"""Batched quadrature and the array forms built on it.

Every batched result is compared with its scalar counterpart under ``==``
or ``np.array_equal``, never a tolerance: the batch must give what the
scalar loop gives, value, error estimate and error message alike.
"""

import bisect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscreen import modelfile, numerics, transforms
from seqscreen.errors import (
    ConstructionError,
    DensityUnderflowError,
    DomainError,
    IntegrabilityError,
    QuadratureError,
)
from seqscreen.model_core import (
    AdditiveNoiseKernel,
    BetaSignal,
    GridSpec,
    PowerKernel,
    ScreeningModel,
    TableKernel,
    TableSignal,
    UniformSignal,
    conditional_mean_derivative_many,
    conditional_mean_many,
    make_kernel,
    make_signal,
)
from seqscreen.numerics import Interval, integrate_many, kahan_prefix
from seqscreen.regularity import _inverse_hazard, regularity_report
from seqscreen.transforms import (
    RELABELING_KINDS,
    Relabeling,
    TransformedModel,
    make_relabeling,
    relabel,
    transform_section,
)
from reference_forms import integrate, kernel_forms, signal_forms
from test_array_checks import (
    _scalar_conditional_mean,
    _scalar_conditional_mean_derivative,
)

SMALL = GridSpec(v_points=17, V_points=17)

# integrand k is sqrt|x - c_k| + 1/(1 + x^2): a kink that forces refinement
CENTRES = np.array([0.1, 0.1, 0.5, 0.8, 0.95, 0.2])
BOUNDS = [(0.0, 1.0), (1.0, 0.0), (0.3, 0.3), (-2.0, 3.0), (0.5, 0.5000001),
          (0.25, -0.75)]


def _scalar_integrand(k):
    c = float(CENTRES[k])
    return lambda x: math.sqrt(abs(x - c)) + 1.0 / (1.0 + x * x)


def _batch_integrand(idx, x):
    return np.sqrt(np.abs(x - CENTRES[idx][:, None])) + 1.0 / (1.0 + x * x)


class TestIntegrateMany:
    def test_equals_integrate_per_integral(self):
        lowers, uppers = zip(*BOUNDS)
        values, errors, failures = integrate_many(
            _batch_integrand, lowers, uppers, rel_tol=1e-12)
        assert failures == {}
        for k, bounds in enumerate(BOUNDS):
            want = integrate(_scalar_integrand(k), bounds, rel_tol=1e-12)
            assert (values[k], errors[k]) == want
        # reversed bounds flip the sign, zero width gives exact zeros
        assert values[1] == -values[0] and errors[1] == errors[0]
        assert (values[2], errors[2]) == (0.0, 0.0)

    def test_max_depth_failure_on_the_power_singularity(self):
        # stress_power05: the kernel density 0.5 * V^(-1/2) on (0, 1) makes
        # the bisection chase the singularity until max_depth
        kernel = PowerKernel()
        vs = np.array([1.0, 0.5, 1.4999, 0.5])
        values, errors, failures = integrate_many(
            lambda idx, V: kernel._fields(vs[idx][:, None], V)[1],
            [0.0] * 4, [1.0] * 4)
        assert sorted(failures) == [1, 3]
        for k, v in enumerate(vs.tolist()):
            f = lambda V, v=v: kernel.pdf(v, V)  # noqa: E731
            if k in failures:
                with pytest.raises(QuadratureError) as want:
                    integrate(f, (0.0, 1.0))
                got = failures[k]
                assert isinstance(got, QuadratureError)
                assert str(got) == str(want.value)
                assert "48 bisections" in str(got)
                assert got.partial == want.value.partial
                assert got.error_estimate == want.value.error_estimate
                assert math.isnan(values[k]) and math.isnan(errors[k])
            else:
                assert (values[k], errors[k]) == integrate(f, (0.0, 1.0))

    def test_max_intervals_failure_has_the_same_message(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_INTERVALS", 5)
        values, _, failures = integrate_many(
            _batch_integrand, [0.0, 0.0], [1.0, 1.0], rel_tol=1e-15)
        for k in range(2):
            with pytest.raises(QuadratureError) as want:
                integrate(_scalar_integrand(k), (0.0, 1.0), rel_tol=1e-15)
            assert str(failures[k]) == str(want.value)
            assert failures[k].partial == want.value.partial

    def test_integrand_error_is_the_row_calls_own(self):
        limits = np.array([2.0, 0.7, 2.0, 0.4])

        def batch(idx, x):
            bad = x > limits[idx][:, None]
            if bad.any():
                # the last offending node, not the first in node order
                raise DensityUnderflowError(
                    f"vanished at x={float(x[bad][-1])!r}")
            return x * x

        values, _, failures = integrate_many(batch, [0.0] * 4, [1.0] * 4)
        assert sorted(failures) == [1, 3]
        # the nodes of the one panel [0, 1]: the centre, then centre +- dx
        dx = 0.5 * numerics._GK_NODES
        row = np.r_[0.5, np.column_stack([0.5 + dx, 0.5 - dx]).ravel()]
        for k in range(4):
            if k in failures:
                with pytest.raises(DensityUnderflowError) as want:
                    batch(np.array([k]), row[None, :])
                assert type(failures[k]) is DensityUnderflowError
                assert str(failures[k]) == str(want.value)
            else:
                assert values[k] == integrate(lambda x: x * x, (0.0, 1.0))[0]

    def test_a_failed_round_retries_each_open_integral_once(self):
        # integral 1 first meets its limit in round 2, on the half [0.5, 1]
        # of the first panel; sqrt keeps every integral open until then
        limits = np.array([2.0, 0.997, 2.0])
        calls = []

        def batch(idx, x):
            calls.append(idx.tolist())
            if (x > limits[idx][:, None]).any():
                raise DensityUnderflowError("vanished")
            return np.sqrt(x) * (idx[:, None] + 1.0)

        values, _, failures = integrate_many(batch, [0.0] * 3, [1.0] * 3)
        assert list(failures) == [1]
        # round 2's batch call, then one call per integral with both of
        # its new panels; integral 1 is not evaluated again
        assert calls[:5] == [[0, 1, 2], [0, 0, 1, 1, 2, 2], [0, 0], [1, 1],
                             [2, 2]]
        assert all(1 not in idx for idx in calls[5:])
        for k in (0, 2):
            alone, _, _ = integrate_many(lambda idx, x: batch(idx + k, x),
                                         [0.0], [1.0])
            assert values[k] == alone[0]

    def test_other_exceptions_propagate(self):
        class Bug(RuntimeError):
            pass

        def batch(idx, x):
            raise Bug("not a numeric cause")

        with pytest.raises(Bug):
            integrate_many(batch, [0.0], [1.0])

    def test_bounds_are_checked(self):
        with pytest.raises(ConstructionError, match="finite"):
            integrate_many(_batch_integrand, [0.0], [math.inf])
        with pytest.raises(ConstructionError, match="NaN"):
            integrate_many(_batch_integrand, [math.nan], [1.0])
        values, errors, failures = integrate_many(_batch_integrand, [], [])
        assert len(values) == len(errors) == 0 and failures == {}

    def test_panels_go_through_the_module_rule(self, monkeypatch):
        # a wrapper of ``numerics._gk15`` (a tracer's panel counter) sees
        # every panel round of both entry points
        rounds = []
        rule = numerics._gk15

        def counted(*args):
            rounds.append(len(args[1]))
            return rule(*args)

        monkeypatch.setattr(numerics, "_gk15", counted)
        integrate_many(_batch_integrand, [0.0, -2.0], [1.0, 3.0])
        assert rounds and rounds[0] == 2
        rounds.clear()
        numerics.integrate(_scalar_integrand(0), (0.0, 1.0))
        assert rounds and rounds[0] == 1


# ---------------------------------------------------------------------------
# the refinement order: integrate_many against the heap refinement of
# ``reference_forms.integrate``, one integral at a time


def _lifted(scalars):
    """The batch integrand that reads ``scalars[idx[r]]`` at each node of
    row r, so a failing node raises as the scalar form would."""
    def batch(idx, x):
        return np.array([[scalars[k](v) for v in row]
                         for k, row in zip(idx.tolist(), x.tolist())])
    return batch


def _reference_batch(scalars, lowers, uppers, **tols):
    """``(values, errors, failures)`` as ``integrate_many`` must return
    them, from the reference refinement of each integral alone. A batch
    meets the failures round by round: the integrand failures of a
    round's panels, then the give-ups of the next split, each by index."""
    values, errors, failures = [], [], []
    for k, (f, lo, hi) in enumerate(zip(scalars, lowers, uppers)):
        calls, raised = 0, False

        def counted(x, f=f):
            nonlocal calls, raised
            calls += 1
            try:
                return f(x)
            except Exception:
                raised = True
                raise

        try:
            value, error = integrate(counted, (lo, hi), **tols)
        except (QuadratureError, ArithmeticError, ValueError,
                DensityUnderflowError) as exc:
            values.append(math.nan)
            errors.append(math.nan)
            # 15 nodes in the first panel round, 30 in each later one
            rnd = (calls - 1 + 15) // 30
            failures.append(((2 * rnd if raised else 2 * rnd + 1, k), exc))
            continue
        values.append(value)
        errors.append(error)
    return values, errors, dict((k, exc) for (_, k), exc in sorted(
        failures, key=lambda item: item[0]))


def _same(x, y) -> bool:
    """Equal floats, zeros by sign and NaN equal to NaN."""
    x, y = float(x), float(y)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _assert_as_reference(scalars, lowers, uppers, batch=None, **tols):
    got = integrate_many(batch or _lifted(scalars), lowers, uppers, **tols)
    want = _reference_batch(scalars, lowers, uppers, **tols)
    for g, w in zip(got[:2], want[:2]):
        assert len(g) == len(w)
        assert all(_same(a, b) for a, b in zip(g.tolist(), w))
    assert list(got[2]) == list(want[2])
    for k, exc in want[2].items():
        assert type(got[2][k]) is type(exc)
        assert str(got[2][k]) == str(exc)
        if isinstance(exc, QuadratureError):
            assert _same(got[2][k].partial, exc.partial)
            assert _same(got[2][k].error_estimate, exc.error_estimate)
    return got


def _root(c):
    return lambda x: math.sqrt(abs(x - c))


def _inverse_root(c, at_c=None):
    """x**-0.5 about c: integrable, but never within the give-up limits;
    at c it raises ZeroDivisionError, or reads ``at_c`` if given."""
    return lambda x: 1.0 / math.sqrt(abs(x - c)) if x != c else (
        at_c if at_c is not None else 1.0 / 0.0)


def _vanishing(limit, kink=None):
    """cos(3x), or sqrt|x - kink| to force refinement, up to ``limit``."""
    def f(x):
        if x > limit:
            raise DensityUnderflowError(f"vanished at x={x!r}")
        return math.cos(3.0 * x) if kink is None else math.sqrt(abs(x - kink))
    return f


class TestRefinementOrder:
    def test_tied_panels_split_oldest_first(self):
        # symmetric about the midpoint 0, so each half's panels mirror the
        # other's bit for bit and tie; the lower half is older. At the
        # give-up, the message names the panel the tie rule chose.
        scalars = [_root(0.0), _inverse_root(0.0, at_c=0.0),
                   lambda x: abs(x)]
        got = _assert_as_reference(scalars, [-1.0] * 3, [1.0] * 3,
                                   rel_tol=1e-13)
        assert list(got[2]) == [1]
        assert "near [-" in str(got[2][1])

    def test_tied_panels_at_the_panel_limit(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_INTERVALS", 7)
        got = _assert_as_reference([_root(0.0), _root(0.5)], [-1.0, 0.0],
                                   [1.0, 1.0], rel_tol=1e-15)
        assert list(got[2]) == [0, 1]
        assert "exceeded 7 panels" in str(got[2][0])

    def test_every_way_to_end_in_one_batch(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_DEPTH", 10)
        monkeypatch.setattr(numerics, "_MAX_INTERVALS", 30)
        scalars = [lambda x: math.sin(60.0 * x),  # the panel limit
                   _inverse_root(0.0),  # the depth limit
                   _vanishing(0.55),  # its integrand raises
                   lambda x: math.exp(-x),  # converges
                   _vanishing(0.997, kink=0.8),  # raises a round in
                   _inverse_root(0.25)]
        got = _assert_as_reference(scalars, [0.0] * 6,
                                   [10.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                                   rel_tol=1e-12)
        assert sorted(got[2]) == [0, 1, 2, 4, 5]
        assert list(got[2]) != sorted(got[2])  # in round order
        assert "exceeded 30 panels" in str(got[2][0])
        assert "after 10 bisections" in str(got[2][1])

    def test_reversed_zero_width_and_nan(self):
        def nan_in_a_sliver(x):
            return math.nan if 0.3 < x < 0.3001 else math.sqrt(abs(x - 0.3))

        scalars = [_root(0.3), _root(0.3), _root(0.3), nan_in_a_sliver,
                   lambda x: math.nan, lambda x: -0.0, lambda x: -0.0,
                   lambda x: math.inf]
        got = _assert_as_reference(
            scalars, [1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.5, 1.0, 1.0, 1.0, 0.0, 1.0], rel_tol=1e-13)
        assert got[2] == {}
        assert _same(got[0][0], -got[0][1]) and got[1][0] == got[1][1]
        assert _same(got[0][2], 0.0) and _same(got[1][2], 0.0)
        assert math.isnan(got[0][3]) and math.isnan(got[0][4])
        assert _same(got[0][5], 0.0) and _same(got[0][6], -0.0)

    @given(st.lists(st.tuples(st.sampled_from(["root", "inverse_root"]),
                              st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                              st.floats(-2.0, 2.0)),
                    min_size=1, max_size=4),
           st.sampled_from([1e-6, 1e-9, 1e-12]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_batches_match_the_reference(self, specs, rel_tol,
                                                few_panels):
        scalars, lowers, uppers = [], [], []
        for kind, c, lo, hi in specs:
            scalars.append((_root if kind == "root" else _inverse_root)(c))
            lowers.append(lo)
            uppers.append(hi)
        limit = 9 if few_panels else numerics._MAX_INTERVALS
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "_MAX_INTERVALS", limit)
            _assert_as_reference(scalars, lowers, uppers, rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# conditional means


class _OpaqueKernel(AdditiveNoiseKernel):
    """Same law, but no array fields of its own: evaluated point by point."""

    def cdf_dv(self, v, V):
        return None


def _table_kernel():
    V_nodes = np.linspace(-4.0, 5.0, 17)
    rows = [1.0 / (1.0 + np.exp(-(V_nodes - v))) for v in (0.0, 0.5, 1.0)]
    return TableKernel([0.0, 0.5, 1.0], V_nodes, rows)


def _mean_models():
    uniform = make_signal("uniform", (0.0, 1.0))
    logistic = ScreeningModel(uniform, make_kernel("additive_noise",
                                                   noise="logistic"))
    return {
        "normal": ScreeningModel(uniform, make_kernel(
            "additive_noise", noise="normal", scale=0.5)),
        "logistic": logistic,
        "laplace": ScreeningModel(uniform, make_kernel(
            "additive_noise", noise="laplace", scale=0.05)),
        "power": ScreeningModel(make_signal("uniform", (0.5, 2.0)),
                                make_kernel("power")),
        # starts inside exp_tilt's small-signal branch
        "exp_tilt": ScreeningModel(make_signal("uniform", (0.0, 0.05)),
                                   make_kernel("exp_tilt")),
        "table": ScreeningModel(uniform, _table_kernel()),
        "relabeled": relabel(logistic, "inverse_hazard_integral"),
        "opaque": ScreeningModel(uniform, _OpaqueKernel(noise="logistic")),
    }


MEAN_MODELS = _mean_models()


def _signals(model):
    inner = model.signal_grid(GridSpec(v_points=9, V_points=2)).tolist()
    if isinstance(model, TransformedModel):
        # phi' = S/f vanishes at the top, where the scalar forms divide by
        # it (see test_zero_slope_raises_the_scalar_error)
        return [model.signal.support.lower, *inner]
    return [*model.signal.support.as_tuple(), *inner]


class TestConditionalMeanMany:
    @pytest.mark.parametrize("name", sorted(MEAN_MODELS))
    def test_mean_equals_scalar_loop(self, name):
        model = MEAN_MODELS[name]
        vs = _signals(model)
        want = [_scalar_conditional_mean(model, v) for v in vs]
        assert np.array_equal(conditional_mean_many(model, vs), want)

    @pytest.mark.parametrize("name", sorted(MEAN_MODELS))
    def test_slope_equals_scalar_loop(self, name):
        model = MEAN_MODELS[name]
        vs = _signals(model)
        want = [_scalar_conditional_mean_derivative(model, v) for v in vs]
        assert np.array_equal(conditional_mean_derivative_many(model, vs),
                              want)

    def test_zero_slope_raises_the_scalar_error(self):
        model = MEAN_MODELS["relabeled"]
        w_hi = model.signal.support.upper
        with pytest.raises(ZeroDivisionError):
            _scalar_conditional_mean_derivative(model, w_hi)
        with pytest.raises(ZeroDivisionError):
            conditional_mean_derivative_many(model, [0.5, w_hi])
        with pytest.raises(ZeroDivisionError) as want:
            signal_forms(model.signal)[2](w_hi)
        for call in (lambda: model.signal.pdf(w_hi),
                     lambda: model.signal.pdf_many(np.array([0.5, w_hi]))):
            with pytest.raises(ZeroDivisionError) as got:
                call()
            assert str(got.value) == str(want.value)

    def test_outside_the_support_raises_the_scalar_error(self):
        model = MEAN_MODELS["logistic"]
        for many, one in ((conditional_mean_many, _scalar_conditional_mean),
                          (conditional_mean_derivative_many,
                           _scalar_conditional_mean_derivative)):
            with pytest.raises(DomainError) as want:
                one(model, 1.5)
            with pytest.raises(DomainError, match=str(want.value)):
                many(model, [0.5, 1.5])

    def test_table_cdf_field_keeps_the_scalar_clamps(self):
        kernel = _table_kernel()
        cdf = kernel_forms(kernel)[0]
        Vs = np.array([-5.0, -4.0, -1.3, 0.0, 2.7, 5.0, 6.0])
        for v in (0.0, 0.3, 1.0):
            got = kernel._cdf_field(np.array([[v]]), Vs[None, :])[0]
            assert np.array_equal(got, [cdf(v, V) for V in Vs.tolist()])

    def test_mean_relabeling_lattice_equals_scalar_means(self, monkeypatch):
        model = ScreeningModel(UniformSignal(Interval(1.0, 2.0)),
                               PowerKernel())
        rel = make_relabeling(model, "mean")
        assert np.array_equal(
            rel._lat_w,
            [_scalar_conditional_mean(model, v) for v in rel._lat_v])
        monkeypatch.setattr(transforms, "_TABLE_POINTS", 17)
        table = rel.table()
        assert [p for _, _, p in table] == [
            _scalar_conditional_mean_derivative(model, v)
            for v, _, _ in table]


# ---------------------------------------------------------------------------
# signals


TABLE_NODES = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


def _signal_cases():
    return {
        "uniform": UniformSignal(Interval(-1.0, 2.0)),
        "beta22": BetaSignal(2.0, 2.0, Interval(0.0, 3.0)),
        "beta0502": BetaSignal(0.5, 2.0),
        "beta0305": BetaSignal(3.0, 0.5),
        "table": TableSignal(TABLE_NODES, [3.0, 1.2, 0.7, 0.55, 0.8, 1.6]),
        "relabeled": relabel(
            ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                           AdditiveNoiseKernel()),
            "inverse_hazard_integral").signal,
    }


SIGNALS = _signal_cases()


def _points(signal, endpoints):
    rng = np.random.default_rng(7)
    lo, hi = signal.support.as_tuple()
    inner = np.concatenate([np.linspace(lo, hi, 19)[1:-1],
                            rng.uniform(lo, hi, 41)])
    return np.concatenate([[lo, hi], inner]) if endpoints else inner


class TestSignalArrays:
    @pytest.mark.parametrize("name", sorted(SIGNALS))
    def test_sf_and_pdf_equal_scalar_forms(self, name):
        # the array forms, and the scalar forms that call them at one
        # point, against the closed-form references
        signal = SIGNALS[name]
        # the beta densities with a shape below 1 raise at the endpoints,
        # the relabeled one divides by phi' = 0 at the top
        endpoints = name not in ("beta0502", "beta0305", "relabeled")
        vs = _points(signal, endpoints)
        if name == "table":
            # the cell edges: every node, and a node's neighbours
            nodes = np.array(TABLE_NODES)
            vs = np.concatenate([nodes, np.nextafter(nodes[1:], -1.0),
                                 np.nextafter(nodes[:-1], 2.0), vs])
        for many, one, ref in zip(
                (signal.cdf_many, signal.sf_many, signal.pdf_many),
                (signal.cdf, signal.sf, signal.pdf), signal_forms(signal)):
            want = [ref(v) for v in vs.tolist()]
            got = many(vs)
            assert np.array_equal(got, want)
            assert [one(v) for v in vs.tolist()] == want
            grid = many(vs[:40].reshape(5, 8))
            assert np.array_equal(grid.ravel(), got[:40])

    @pytest.mark.parametrize("name", sorted(SIGNALS))
    def test_outside_the_support_raises_the_scalar_error(self, name):
        signal = SIGNALS[name]
        lo, hi = signal.support.as_tuple()
        outside = hi + 1.0 if math.isfinite(hi) else lo - 1.0
        mid = float(_points(signal, False)[0])
        for many, one in ((signal.cdf_many, signal.cdf),
                          (signal.sf_many, signal.sf),
                          (signal.pdf_many, signal.pdf)):
            with pytest.raises(DomainError) as want:
                one(outside)
            with pytest.raises(DomainError) as got:
                many(np.array([mid, outside]))
            assert str(got.value) == str(want.value)

    def test_beta_endpoint_raises_the_scalar_error(self):
        signal = SIGNALS["beta0502"]
        pdf = signal_forms(signal)[2]
        assert pdf(1.0) == signal.pdf(1.0) == 0.0
        with pytest.raises(DomainError) as want:
            pdf(0.0)
        assert str(want.value) == (
            "beta density unbounded at the support endpoint v=0.0")
        for call in (lambda: signal.pdf(0.0),
                     lambda: signal.pdf_many(np.array([0.5, 1.0, 0.0]))):
            with pytest.raises(DomainError) as got:
                call()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("shapes, bounded_end, unbounded_end", [
        ((3.0, 0.5), 0.0, 1.0), ((0.5, 2.0), 1.0, 0.0)])
    def test_beta_raises_only_at_an_unbounded_endpoint(
            self, shapes, bounded_end, unbounded_end):
        signal = BetaSignal(*shapes)
        assert signal.pdf(bounded_end) == 0.0
        assert np.array_equal(signal.pdf_many(np.array([0.5, bounded_end])),
                              [signal.pdf(0.5), 0.0])
        with pytest.raises(DomainError) as want:
            signal.pdf(unbounded_end)
        assert str(want.value).endswith(f"v={unbounded_end!r}")
        with pytest.raises(DomainError) as got:
            signal.pdf_many(np.array([0.5, bounded_end, unbounded_end]))
        assert str(got.value) == str(want.value)

    def test_subclass_overriding_the_scalar_form_loops_it(self):
        class Doubled(UniformSignal):
            def pdf(self, v):
                return 2.0 * super().pdf(v)

        signal = Doubled(Interval(0.0, 2.0))
        assert np.array_equal(signal.pdf_many(np.array([0.5, 1.0])),
                              [2.0 * 0.5, 2.0 * 0.5])


# ---------------------------------------------------------------------------
# relabelings: cells, slope cache, derived files


def _cell_reference(phi_prime, nodes, context):
    """The cell-by-cell loop the batched cumulative integral replaces."""
    incs = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        try:
            inc, _ = integrate(phi_prime, (float(a), float(b)),
                               rel_tol=1e-13, abs_tol=1e-16)
        except QuadratureError as exc:
            raise IntegrabilityError(
                f"{context}: slope integral diverged on "
                f"[{float(a)!r}, {float(b)!r}]") from exc
        incs.append(inc)
    return kahan_prefix(incs, 0.0)


def _decreasing_hazard_model():
    sig = TableSignal([0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                      [3.0, 1.2, 0.7, 0.55, 0.8, 1.6])
    return ScreeningModel(sig, AdditiveNoiseKernel(noise="logistic"))


def _inverse_hazard_slope(signal, nodes):
    return lambda v: signal.sf(v) / signal.pdf(v)


def _runningmax_slope(signal, nodes):
    """hazard(v) / g(v), g the running maximum of the hazard at ``nodes``;
    past the last node, the hazard over g's last value, capped at 1."""
    nodes = nodes.tolist()
    g = list(itertools.accumulate(
        (signal.pdf(v) / signal.sf(v) for v in nodes), max))

    def slope(v):
        if v >= nodes[-1]:
            s = signal.sf(v)
            if s <= 0.0:
                return 1.0
            h = signal.pdf(v) / s
            return 1.0 if h >= g[-1] else h / g[-1]
        k = bisect.bisect_right(nodes, v) - 1
        if g[k] == 0.0:
            return 1.0
        return signal.pdf(v) / signal.sf(v) / g[k]

    return slope


def _scalar_piecewise_phi(slope, nodes, lat_w):
    """phi as the lattice value at the start of the point's cell plus a
    scalar ``integrate`` of ``slope`` over the partial cell; past the last
    node, the integral runs from that node."""
    nodes = nodes.tolist()

    def phi(v):
        k = min(max(bisect.bisect_right(nodes, v) - 1, 0), len(nodes) - 2)
        if v > nodes[-1]:
            k = len(nodes) - 1
        if v == nodes[k]:
            return float(lat_w[k])
        inc, _ = integrate(slope, (nodes[k], v), rel_tol=1e-13,
                           abs_tol=1e-16)
        return float(lat_w[k]) + inc

    return phi


# the scalar slope of each cumulative kind, given the signal and the nodes
SCALAR_SLOPES = {"inverse_hazard_integral": _inverse_hazard_slope,
                 "runningmax_hazard": _runningmax_slope}


class TestRelabelingCells:
    @pytest.mark.parametrize("kind", sorted(SCALAR_SLOPES))
    def test_lattice_equals_cell_by_cell_loop(self, kind):
        model = _decreasing_hazard_model()
        rel = make_relabeling(model, kind)
        want = _cell_reference(SCALAR_SLOPES[kind](model.signal, rel._lat_v),
                               rel._lat_v, kind)
        assert np.array_equal(rel._lat_w, want)

    def test_divergent_cell_reports_the_first_failing_cell(self):
        model = ScreeningModel(BetaSignal(2.0, 2.0),
                               AdditiveNoiseKernel(noise="normal"))
        with pytest.raises(IntegrabilityError) as got:
            make_relabeling(model, "inverse_hazard_integral")
        with pytest.raises(IntegrabilityError) as want:
            _cell_reference(lambda v: model.signal.sf(v) / model.signal.pdf(v),
                            np.linspace(0.0, 1.0, 513),
                            "inverse_hazard_integral")
        assert str(got.value) == str(want.value)


# off-lattice signals; the last two lie past the running-max lattice's end
OFF_LATTICE = [0.0, 0.1234567, 0.2000123, 0.50123, 0.77777, 0.9999985,
               1.0 - 5e-7, 1.0 - 1e-9]


class TestOnePointMaps:
    @pytest.mark.parametrize("kind", sorted(SCALAR_SLOPES))
    def test_piecewise_phi_equals_the_scalar_integral(self, kind):
        model = _decreasing_hazard_model()
        rel = make_relabeling(model, kind)
        fn = SCALAR_SLOPES[kind](model.signal, rel._lat_v)
        want = _scalar_piecewise_phi(fn, rel._lat_v, rel._lat_w)
        assert [rel.phi(v) for v in OFF_LATTICE] == [want(v)
                                                     for v in OFF_LATTICE]
        assert [rel.phi_prime(v) for v in OFF_LATTICE] == [
            fn(v) for v in OFF_LATTICE]
        if kind == "runningmax_hazard":
            assert rel._lat_v[-1] < OFF_LATTICE[-2]
            assert rel.codomain.upper == want(1.0)

    def test_integrated_hazard_is_w_lo_minus_log_survival(self):
        model = _decreasing_hazard_model()
        rel = make_relabeling(model, "integrated_hazard", w_lo=0.25)

        def want(v):
            s = model.signal.sf(v)
            return math.inf if s <= 0.0 else 0.25 - math.log(s)

        assert [rel.phi(v) for v in OFF_LATTICE] == [want(v)
                                                     for v in OFF_LATTICE]
        assert rel._lat_w.tolist() == [want(v) for v in rel._lat_v.tolist()]
        assert rel.codomain.upper == want(1.0) == math.inf

    @pytest.mark.parametrize("shape", [(5,), (5, 1)], ids=["1d", "2d"])
    @pytest.mark.parametrize("kind", RELABELING_KINDS)
    def test_phis_is_one_array_call(self, kind, shape):
        base = (MEAN_MODELS["logistic"] if kind == "mean"
                else _decreasing_hazard_model())
        rel = make_relabeling(base, kind)
        calls = []
        many = rel._phi_many
        rel._phi_many = lambda v: calls.append(len(v)) or many(v)
        vs = np.reshape(OFF_LATTICE[1:6], shape)
        ws = rel.phis(vs)
        assert calls == [vs.size]
        one_point = make_relabeling(base, kind)
        points = vs.ravel().tolist()
        assert ws.shape == shape
        assert ws.ravel().tolist() == [one_point.phi(v) for v in points]
        assert [rel.phi(v) for v in points] == [one_point.phi(v)
                                                for v in points]
        assert calls == [vs.size]


def _failing_slope_relabeling(threshold):
    """phi(v) = 2v whose slope underflows above ``threshold``; called on
    many points it names the last offending point, called on one point
    that point."""

    def phi_prime(vs):
        bad = vs > threshold
        if bad.any():
            raise DensityUnderflowError(
                f"slope vanished at v={float(vs[bad][-1])!r}")
        return np.full(vs.shape, 2.0)

    lat_v = np.linspace(0.0, 1.0, 33)
    return Relabeling("affine", Interval(0.0, 1.0), lambda v: 2.0 * v,
                      phi_prime, lat_v, 2.0 * lat_v, w_hi=2.0)


class TestSlopeCache:
    @pytest.mark.parametrize("vs", [np.linspace(0.0, 1.0, 23),
                                    np.linspace(0.0, 1.0, 24).reshape(4, 6)],
                             ids=["1d", "2d"])
    def test_fill_equals_scalar_slopes(self, vs):
        base = MEAN_MODELS["logistic"]
        filled = make_relabeling(base, "mean")
        scalar = make_relabeling(base, "mean")
        want = [scalar.phi_prime(v) for v in vs.ravel().tolist()]
        assert np.array_equal(filled.phi_primes(vs),
                              np.reshape(want, vs.shape))
        assert filled._slope == scalar._slope

    @pytest.mark.parametrize("vs, error, message", [
        # the array call's own error: its last offending point
        (np.linspace(0.0, 1.0, 11), DensityUnderflowError,
         "slope vanished at v=1.0"),
        # the domain is checked first, at the first new point outside it
        ([0.7, 0.9, 1.5], DomainError,
         "signal value 1.5 outside relabeling domain [0.0, 1.0]"),
        ([1.5, 0.7, -0.5], DomainError,
         "signal value 1.5 outside relabeling domain [0.0, 1.0]"),
        ([0.2, math.nan], DomainError,
         "signal value nan outside relabeling domain [0.0, 1.0]")],
        ids=["array", "domain-last", "domain-first", "nan"])
    def test_domain_first_then_the_array_error_stands(self, vs, error,
                                                       message):
        rel = _failing_slope_relabeling(0.6)
        with pytest.raises(error) as got:
            rel.phi_primes(vs)
        assert str(got.value) == message
        assert rel._slope == {}  # nothing new entered the cache

    def test_lattice_hazard_raises_the_slopes_own_error(self):
        # the signal lattice is mapped once; its error stands, unreplayed
        base = ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                              AdditiveNoiseKernel())
        tm = TransformedModel(base, _failing_slope_relabeling(0.6))
        ws = tm.signal_grid(SMALL)
        with pytest.raises(DensityUnderflowError) as got:
            _inverse_hazard(tm, ws)
        # the last offending point, at the grid's top margin
        assert str(got.value) == "slope vanished at v=0.9999"


class TestDerivedFileRoundTrip:
    @pytest.mark.parametrize("kind", RELABELING_KINDS)
    def test_load_gives_the_same_reports(self, kind):
        base = (ScreeningModel(UniformSignal(Interval(1.0, 2.0)),
                               PowerKernel())
                if kind == "mean" else _decreasing_hazard_model())
        tm = relabel(base, kind)
        section = transform_section(tm)
        text = modelfile.dumps(tm)
        loaded, _, _ = modelfile.loads(text)
        assert isinstance(loaded, TransformedModel)
        assert transform_section(loaded) == section
        assert (regularity_report(loaded, SMALL).to_json()
                == regularity_report(tm, SMALL).to_json())
