"""The suites read the kernel through its array forms: each figure they take
from ``eval_lattice`` or the batched conditional means equals the scalar
evaluators' bit for bit, failed points included."""

import json

import numpy as np
import pytest

from seqscreen import modelfile

from seqscreen.errors import DensityUnderflowError, DomainError, EvaluationError
from seqscreen.model_core import (
    AdditiveNoiseKernel,
    DEFAULT_TOLERANCES,
    GridSpec,
    PowerKernel,
    ScreeningModel,
    TableKernel,
    eval_kernel,
    TableSignal,
    make_kernel,
    make_signal,
)
from seqscreen.numerics import differentiate
from seqscreen.propositions import (
    _check_mean_normalized,
    _check_mean_slope_one,
    _check_translation_invariance,
    delta_diagnostic,
    verify_prop2,
)
from seqscreen.regularity import gamma
from seqscreen.transforms import relabel
from test_array_checks import (
    MODELS,
    _scalar_conditional_mean,
    _scalar_conditional_mean_derivative,
)

TOL = DEFAULT_TOLERANCES
SMALL = GridSpec(v_points=17, V_points=17)
_SCALAR_FAILURES = (DomainError, EvaluationError, DensityUnderflowError)


class _Banded:
    """A kernel whose density refuses the values in ``band``; the subclass
    has no array form of its own, so the lattice falls back to
    eval_kernel."""

    band = (0.0, 0.0)

    def pdf(self, v, V):
        if self.band[0] < V < self.band[1]:
            raise DomainError(f"no density at V={V!r}")
        return super().pdf(v, V)


class _BandedLogistic(_Banded, AdditiveNoiseKernel):
    pass


class _BandedPower(_Banded, PowerKernel):
    pass


def _banded(kernel, V):
    kernel.band = (V - 1e-12, V + 1e-12)
    return kernel


def _power():
    return ScreeningModel(make_signal("uniform", (1.0, 2.0)),
                          make_kernel("power"))


def _logistic():
    return ScreeningModel(make_signal("uniform", (0.0, 1.0)),
                          make_kernel("additive_noise", noise="logistic"))


def _table():
    V_nodes = np.linspace(-4.0, 5.0, 17)
    rows = [1.0 / (1.0 + np.exp(-(V_nodes - v))) for v in (0.0, 0.5, 1.0)]
    return ScreeningModel(make_signal("uniform", (0.0, 1.0)),
                          TableKernel([0.0, 0.5, 1.0], V_nodes, rows))


def _banded_logistic():
    plain = _logistic()
    f = delta_diagnostic(plain, n_v=9, n_offsets=9, fd_check=False)
    V = float(f.v[4] + f.offsets[3])
    return ScreeningModel(plain.signal, _banded(_BandedLogistic(), V))


DELTA_MODELS = {
    "power": _power,
    "logistic": _logistic,
    "table": _table,
    "ihi_power": lambda: relabel(_power(), "inverse_hazard_integral"),
    "banded": _banded_logistic,
}


def _scalar_delta(model, f):
    """delta and delta1 of a field, one eval_kernel call per point."""
    k = model.kernel.support
    delta = np.zeros(f.delta.shape)
    delta1 = np.zeros(f.delta.shape)
    n_interior = 0
    for i, v in enumerate(f.v.tolist()):
        for j, x in enumerate(f.offsets.tolist()):
            V = v + x
            if V <= k.lower or V >= k.upper:
                delta[i, j] = 0.0 if V <= k.lower else 1.0
                continue
            n_interior += 1
            try:
                ke = eval_kernel(model, v, V, TOL)
            except _SCALAR_FAILURES:
                delta[i, j] = delta1[i, j] = np.nan
                continue
            delta[i, j], delta1[i, j] = ke.H, ke.h + ke.dHdv
    return delta, delta1, n_interior


class TestDeltaDiagnostic:
    @pytest.mark.parametrize("name", DELTA_MODELS)
    def test_fields_equal_scalar_loop(self, name):
        model = DELTA_MODELS[name]()
        f = delta_diagnostic(model, n_v=9, n_offsets=9, fd_check=False)
        delta, delta1, n_interior = _scalar_delta(model, f)
        assert np.array_equal(f.delta, delta, equal_nan=True)
        assert np.array_equal(f.delta1, delta1, equal_nan=True)
        assert f.n_interior == n_interior

    def test_banded_point_is_nan(self):
        model = _banded_logistic()
        assert not model.kernel._exact_arrays()
        f = delta_diagnostic(model, n_v=9, n_offsets=9)
        assert np.argwhere(np.isnan(f.delta)).tolist() == [[4, 3]]
        assert np.isnan(f.delta1[4, 3]) and np.isnan(f.delta1_fd[4, 3])


class _Holed(AdditiveNoiseKernel):
    """A logistic kernel whose cdf, scalar and array alike, is NaN on one
    value band; it keeps the array form of its own class."""

    _fields = AdditiveNoiseKernel._fields

    def __init__(self, lo, hi):
        super().__init__("logistic")
        self.hole = (lo, hi)

    def cdf(self, v, V):
        lo, hi = self.hole
        return np.nan if lo < V < hi else super().cdf(v, V)

    def _cdf_field(self, v, V):
        lo, hi = self.hole
        return np.where((lo < V) & (V < hi), np.nan,
                        super()._cdf_field(v, V))


def _table_decreasing_hazard():
    """The table kernel over a signal whose hazard falls, then rises."""
    sig = TableSignal([0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                      [3.0, 1.2, 0.7, 0.55, 0.8, 1.6])
    return ScreeningModel(sig, _table().kernel)


FD_MODELS = {
    "table": _table,
    "mean_table": lambda: relabel(_table(), "mean"),
    "runningmax_table": lambda: relabel(_table_decreasing_hazard(),
                                        "runningmax_hazard"),
}


def _scalar_fd(model, f):
    """delta1_fd of a field, differencing kernel.cdf(s, s + x) point by
    point with the route's step and kink rule."""
    v_lo, v_hi = model.signal.support.as_tuple()
    k = model.kernel.support
    fd = np.full(f.delta.shape, np.nan)
    for i, v in enumerate(f.v.tolist()):
        for j, x in enumerate(f.offsets.tolist()):
            if np.isnan(f.delta1[i, j]):
                continue
            V = v + x
            step = min(TOL.derivative_step(v),
                       0.4 * min(v - v_lo, v_hi - v, V - k.lower,
                                 k.upper - V))
            if step < 1e-9:
                continue
            est = differentiate(lambda s: model.kernel.cdf(s, s + x), v,
                                step)
            if not est.nonsmooth:
                fd[i, j] = est.value
    return fd


class TestDifferencedRoute:
    @pytest.mark.parametrize("name", FD_MODELS)
    def test_fd_equals_scalar_differentiate(self, name):
        # the small margin puts the end rows within the step's room cap
        model = FD_MODELS[name]()
        f = delta_diagnostic(model, n_v=9, n_offsets=9, grid=GridSpec(
            v_points=17, V_points=17, endpoint_margin=1e-6))
        fd = _scalar_fd(model, f)
        assert np.array_equal(f.delta1_fd, fd, equal_nan=True)
        assert f.n_evaluable == np.count_nonzero(~np.isnan(fd)) > 0

    def test_nan_stencil_raises_as_the_scalar_route(self):
        # the array cdf gives NaN at one stencil point: the route falls back
        # to the scalar probes, which name the first such point
        plain = _logistic()
        f = delta_diagnostic(plain, n_v=9, n_offsets=9, fd_check=False)
        V = float(f.v[4] + f.offsets[3]) + 1e-5
        model = ScreeningModel(plain.signal, _Holed(V - 2.5e-6, V + 2.5e-6))
        with pytest.raises(EvaluationError) as want:
            _scalar_fd(model, f)
        with pytest.raises(EvaluationError, match="returned NaN") as got:
            delta_diagnostic(model, n_v=9, n_offsets=9)
        assert str(got.value) == str(want.value)

    def test_mean_derived_stencils_bisect_together(self):
        # every stencil point is off the relabeling's caches; they bisect
        # in one batch, one map call per halving
        model = relabel(_power(), "mean")
        rel = model.relabeling
        calls = []
        phi_many = rel._phi_many
        rel._phi_many = lambda v: calls.append(v.size) or phi_many(v)
        f = delta_diagnostic(model, n_v=17, n_offsets=17)
        assert f.n_evaluable > 0
        assert 0 < len(calls) <= 50


def _scalar_gamma(model, v, V):
    try:
        return gamma(model, v, V, TOL)
    except _SCALAR_FAILURES:
        return None


def _banded_power():
    """Refuses the middle lower-edge offset of suite 2's lattice."""
    plain = _power()
    k_lower = plain.kernel.support.lower
    _, b_hi, _ = plain.value_bounds(SMALL)
    V = k_lower + 1e-3 * (b_hi - k_lower)
    return ScreeningModel(plain.signal, _banded(_BandedPower(), V))


class TestProp2Lattice:
    @pytest.mark.parametrize("make", [
        _power, _table, _banded_power,
        lambda: relabel(_power(), "integrated_hazard")])
    def test_trend_and_gmax_equal_scalar_gamma(self, make):
        model = make()
        rep = verify_prop2(model, SMALL, TOL)
        k = model.kernel.support
        _, b_hi, _ = model.value_bounds(SMALL)
        span = b_hi - k.lower
        trend = rep.evidence["gamma_lower_edge_trend"]
        gmax = 0.0
        for row in trend:
            v = row["v"]
            want = [_scalar_gamma(model, v, k.lower + s * span)
                    for s in (1e-2, 1e-3, 1e-4)]
            assert row["gamma_at_offsets"] == want
            for q in (0.25, 0.5, 0.75):
                g = _scalar_gamma(model, v, k.lower + q * span)
                if g is not None:
                    gmax = max(gmax, g)
        assert rep.evidence["rescaled_delta1_signs"]["slope"] == gmax / 2.0

    def test_refused_point_is_null(self):
        rep = verify_prop2(_banded_power(), SMALL, TOL)
        for row in rep.evidence["gamma_lower_edge_trend"]:
            assert row["gamma_at_offsets"][1] is None
            assert not row["vanishing"]


def _scalar_worst(errors, vs):
    worst, at = 0.0, None
    for err, v in zip(errors, vs):
        if err > worst:
            worst, at = err, v
    return worst, at


MEAN_MODELS = {
    "power": _power,
    "logistic": _logistic,
    "table": _table,
    "mean_power": lambda: relabel(_power(), "mean"),
    "banded": _banded_logistic,
}


class TestMeanChecks:
    @pytest.mark.parametrize("name", MEAN_MODELS)
    def test_checks_equal_scalar_loops(self, name):
        model = MEAN_MODELS[name]()
        vs = model.signal_grid(GridSpec(v_points=5, V_points=2))
        v_list = vs.tolist()
        means = [_scalar_conditional_mean(model, v, tolerances=TOL)
                 for v in v_list]
        worst, at = _scalar_worst(
            [abs(m - v) / max(1.0, abs(v)) for m, v in zip(means, v_list)],
            v_list)
        assert _check_mean_normalized(model, vs, TOL) == {
            "passed": worst <= 1e-6, "max_relative_error": worst,
            "worst_at": at}
        slopes = [_scalar_conditional_mean_derivative(model, v,
                                                      tolerances=TOL)
                  for v in v_list]
        worst, at = _scalar_worst([abs(d - 1.0) for d in slopes], v_list)
        assert _check_mean_slope_one(model, vs, TOL) == {
            "passed": worst <= 1e-7, "max_abs_error": worst, "worst_at": at}


def _scalar_translation(model, grid):
    """Suite 3's translation check, one scalar cdf pair at a time."""
    vs = model.signal_grid(GridSpec(v_points=17, V_points=2))
    worst = 0.0
    at = None
    n = 0
    for a in vs[::4]:
        a = float(a)
        lo, hi = model.value_range(a, grid)
        Vs = np.linspace(lo, hi, 33)
        for b in vs:
            b = float(b)
            t = b - a
            for V in Vs:
                V = float(V)
                try:
                    d = abs(model.kernel.cdf(b, V + t)
                            - model.kernel.cdf(a, V))
                except (DomainError, ValueError, OverflowError):
                    continue
                n += 1
                if d > worst:
                    worst, at = d, [a, b, V]
    return {"passed": worst <= 1e-8, "max_abs_error": worst,
            "worst_at": at, "n_compared": n}


def _additive(noise):
    return lambda: ScreeningModel(make_signal("uniform", (0.0, 1.0)),
                                  make_kernel("additive_noise", noise=noise))


def _on_uniform(kernel, lo, hi):
    return lambda: ScreeningModel(make_signal("uniform", (lo, hi)),
                                  make_kernel(kernel))


TRANSLATION_MODELS = {
    "normal": _additive("normal"),
    "logistic": _additive("logistic"),
    "laplace": _additive("laplace"),
    "stress_power05": lambda: modelfile.load(
        MODELS / "stress_power05.model")[0],
    "exp_tilt": _on_uniform("exp_tilt", 0.5, 2.0),
    # V ** v overflows on the upper rows, where V + b - a passes 2
    "power_wide": _on_uniform("power", 1.0, 2000.0),
    "table": _table,
    "mean_power": lambda: relabel(_power(), "mean"),
    "mean_logistic": lambda: relabel(_logistic(), "mean"),
    # NaN cdf on a band: those pairs count but are never the worst
    "holed": lambda: ScreeningModel(_logistic().signal, _Holed(0.2, 0.6)),
}


class TestTranslationInvariance:
    @pytest.mark.parametrize("name", TRANSLATION_MODELS)
    def test_equals_scalar_loop(self, name):
        model = TRANSLATION_MODELS[name]()
        grid = GridSpec()
        got = _check_translation_invariance(model, grid, TOL)
        # as printed: the same types, and floats bit for bit
        assert json.dumps(got) == json.dumps(_scalar_translation(model, grid))
        assert got["n_compared"] > 0

    @pytest.mark.parametrize("name, compared", [
        ("stress_power05", 5 * 17 * 33), ("power_wide", None)])
    def test_a_raising_block_goes_pair_by_pair(self, name, compared):
        # the power kernel's array cdf refuses values below its support,
        # where the scalar one is complex, and raises OverflowError where
        # the power overflows; pairs whose scalar cdf overflows are skipped
        model = TRANSLATION_MODELS[name]()
        kernel = model.kernel
        calls = []
        cdf = kernel.cdf
        kernel.cdf = lambda v, V: calls.append(v) or cdf(v, V)
        got = _check_translation_invariance(model, GridSpec(), TOL)
        assert calls
        if compared is None:
            assert 0 < got["n_compared"] < 5 * 17 * 33
        else:
            assert got["n_compared"] == compared

    @pytest.mark.parametrize("name", ["logistic", "table", "exp_tilt",
                                      "mean_logistic"])
    def test_array_blocks_make_no_scalar_calls(self, name):
        model = TRANSLATION_MODELS[name]()
        model.kernel.cdf = None  # a scalar call would raise TypeError
        _check_translation_invariance(model, GridSpec(), TOL)

    def test_power_array_cdf_refuses_negative_values(self):
        kernel = PowerKernel()
        with pytest.raises(DomainError, match="-0.25"):
            kernel._cdf_field(np.array([[0.5]]), np.array([[0.25, -0.25]]))
        assert kernel.cdf(0.5, -0.25) == (-0.25) ** 0.5
