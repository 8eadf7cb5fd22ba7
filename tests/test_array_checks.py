"""The relabeling self-check, model validation, the suite-1 hazard profile,
the derived-file replay and the conditional means run on array forms. Each
is held here against the per-point loop it replaced, kept as a reference:
the same outcome, the same numbers and the same error, raised at the same
point; a self-check probe that cannot be evaluated is named as the one
the loop fails at first.
"""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from seqscreen import model_core, modelfile, transforms
from seqscreen.cli import main
from seqscreen.errors import (
    DensityUnderflowError,
    DomainError,
    EvaluationError,
    IntegrabilityError,
    NearEndpointError,
    QuadratureError,
    NUMERIC_CAUSES,
    SelfCheckError,
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
    ValuationKernel,
    conditional_mean,
    conditional_mean_derivative,
    conditional_mean_derivative_many,
    conditional_mean_many,
    eval_kernel,
    resolve_config,
    validate_model,
)
from seqscreen.numerics import Interval, differentiate, stencil
from seqscreen.propositions import _hazard_profile
from seqscreen.regularity import check_assumption, gamma, hazard, virtual_value
from seqscreen.transforms import (
    Relabeling,
    TransformedModel,
    _RelabeledSignal,
    _pdf_over_sf,
    apply_relabeling,
    make_relabeling,
    transform_section,
)
from reference_forms import integrate

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"


def _raised(fn, *args):
    """``(type, text)`` of what ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)
    return None


def _logistic():
    return ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                          AdditiveNoiseKernel(noise="logistic"))


def _power():
    return ScreeningModel(UniformSignal(Interval(1.0, 2.0)), PowerKernel())


def _decreasing_hazard():
    sig = TableSignal([0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                      [3.0, 1.2, 0.7, 0.55, 0.8, 1.6])
    return ScreeningModel(sig, AdditiveNoiseKernel(noise="logistic"))


# ---------------------------------------------------------------------------
# the relabeling self-check


def _probes(base):
    """The self-check's seeded (v, V) probe pairs."""
    rng = random.Random(transforms._SELF_CHECK_SEED)
    lo, hi = base.signal.support.as_tuple()
    span = hi - lo
    probes = []
    for _ in range(transforms._SELF_CHECK_POINTS):
        v = lo + span * (0.02 + 0.96 * rng.random())
        V_lo, V_hi = base.value_range(v)
        probes.append((v, V_lo + (V_hi - V_lo) * (0.02 + 0.96 * rng.random())))
    return probes


def _scalar_self_check(base, tm, rel):
    """The self-check probe by probe through the scalar evaluators."""
    probes = _probes(base)
    rel.phis([x for v, _ in probes for x in stencil(v)[1]])
    rel.phi_primes([v for v, _ in probes])
    worst, worst_at, n_bad = 0.0, None, 0
    for v, V in probes:
        w = rel.phi(v)
        p = rel.phi_prime(v)
        errs = []
        est = differentiate(rel.phi, v)
        if not est.nonsmooth:
            slope_tol = max(1e-3, 20.0 * est.error / max(1.0, abs(p)))
            slope_err = abs(est.value - p) / max(1.0, abs(p))
            if slope_err > slope_tol:
                errs.append(slope_err)
        base_haz = float(_pdf_over_sf(base.signal, np.array([v]))[0])
        tm_haz = float(_pdf_over_sf(tm.signal, np.array([w]))[0])
        want = base_haz / p
        errs.append(abs(tm_haz - want) / max(1.0, abs(want)))
        g_b = gamma(base, v, V)
        g_t = gamma(tm, w, V)
        errs.append(abs(g_t * p - g_b) / max(1.0, abs(g_b)))
        psi_b = virtual_value(base, v, V)
        psi_t = virtual_value(tm, w, V)
        errs.append(abs(psi_t - psi_b) / max(1.0, abs(psi_b)))
        err = max(errs)
        if err > transforms._SELF_CHECK_TOL:
            n_bad += 1
            if err > worst:
                worst, worst_at = err, (v, V)
    if n_bad:
        raise SelfCheckError(
            f"relabeling self-check failed at {n_bad} of "
            f"{transforms._SELF_CHECK_POINTS} probe points; worst relative "
            f"error {worst:.3e} at (v, V) = {worst_at}")


def _first_failing_probe(base, tm, rel):
    """The first probe (v, V) at which the scalar evaluators, probe by
    probe in the order of the identities, raise; None if none does."""
    for v, V in _probes(base):
        try:
            w, p = rel.phi(v), rel.phi_prime(v)
            differentiate(rel.phi, v)
            haz = float(_pdf_over_sf(base.signal, np.array([v]))[0])
            _pdf_over_sf(tm.signal, np.array([w]))
            haz / p
            gamma(base, v, V), gamma(tm, w, V)
            hazard(base, v), hazard(tm, w)
        except NUMERIC_CAUSES:
            return v, V
    return None


class _DoubledDensity(_RelabeledSignal):
    """A relabeled signal whose density is off by a factor of 2."""

    def pdf(self, w):
        return 2.0 * super().pdf(w)


def _wrong_slope(base):
    lat_v = np.linspace(0.0, 1.0, 513)
    return TransformedModel(base, Relabeling(
        "affine", base.signal.support, lambda v: 2.0 * v,
        lambda v: np.full(v.shape, 1.0), lat_v, 2.0 * lat_v, w_hi=2.0,
        params={"slope": 2.0, "intercept": 0.0}))


def _zero_slope(base):
    """phi(v) = 2v whose declared slope is 0 above v = 0.5."""
    lat_v = np.linspace(0.0, 1.0, 513)
    return TransformedModel(base, Relabeling(
        "affine", base.signal.support, lambda v: 2.0 * v,
        lambda v: np.where(v > 0.5, 0.0, 2.0), lat_v, 2.0 * lat_v, w_hi=2.0))


def _nan_map(base):
    """phi(v) = 2v that reads NaN above v = 0.7."""
    lat_v = np.linspace(0.0, 1.0, 513)
    return TransformedModel(base, Relabeling(
        "affine", base.signal.support,
        lambda v: np.where(v > 0.7, math.nan, 2.0 * v),
        lambda v: np.full(v.shape, 2.0), lat_v, 2.0 * lat_v, w_hi=2.0))


def _hazard_off(base):
    tm = TransformedModel(base, make_relabeling(base, "affine", slope=2.0))
    tm.signal = _DoubledDensity(base.signal, tm.relabeling)
    return tm


def _running_max(base):
    return TransformedModel(base, make_relabeling(base, "runningmax_hazard"))


def _flat_kernel(base):
    """A table kernel flat over V in (0.5, 0.6): its density vanishes
    there, so gamma raises at the probes that land in the band."""
    V = [0.0, 0.5, 0.6, 1.0]
    kernel = TableKernel([0.0, 1.0], V, [[0.0, 0.5, 0.5, 1.0],
                                         [0.0, 0.4, 0.4, 1.0]])
    model = ScreeningModel(base.signal, kernel)
    return TransformedModel(model, make_relabeling(model, "affine",
                                                   slope=2.0))


class _Corner(PowerKernel):
    """A power kernel whose density raises ValueError at low signals and
    high values. Being a subclass, it takes the scalar evaluators."""

    def pdf(self, v, V):
        if v < 1.05 and V > 0.9:
            raise ValueError(f"corner at v={v!r}, V={V!r}")
        return super().pdf(v, V)


class TestSelfCheck:
    @pytest.mark.parametrize("build", [_wrong_slope, _hazard_off])
    def test_raises_as_the_probe_loop(self, build):
        want = _raised(_scalar_self_check, *self._case(build))
        got = _raised(transforms._self_check, *self._case(build))
        assert want is not None and want[0] is SelfCheckError
        assert got == want

    @pytest.mark.parametrize("build, cause", [
        (_flat_kernel, "conditional density vanished"),
        (_zero_slope, "zero slope phi'"),
        (_nan_map, "NaN in the map's difference stencil"),
    ])
    def test_names_the_first_probe_that_cannot_be_evaluated(self, build,
                                                            cause):
        """The probe is the one the scalar evaluators fail at first; the
        cause is what its arrays show there."""
        at = _first_failing_probe(*self._case(build))
        assert at is not None
        got = _raised(transforms._self_check, *self._case(build))
        assert got == (EvaluationError, "relabeling self-check cannot "
                       f"evaluate the probe (v, V) = {at}: {cause}")

    def test_running_max_map_with_kinks_passes(self):
        for check in (_scalar_self_check, transforms._self_check):
            case = self._case(_running_max, _decreasing_hazard())
            assert _raised(check, *case) is None
        # a probe's difference stencil straddles a corner of the map
        _, _, rel = case
        rng = random.Random(transforms._SELF_CHECK_SEED)
        corners = []
        for _ in range(transforms._SELF_CHECK_POINTS):
            corners.append(differentiate(
                rel.phi, 0.02 + 0.96 * rng.random()).nonsmooth)
            rng.random()
        assert any(corners)

    def test_wrong_slope_message(self):
        got = _raised(transforms._self_check, *self._case(_wrong_slope))
        assert got[1].startswith(
            "relabeling self-check failed at 32 of 32 probe points")

    def test_scalar_kernel_is_evaluated_at_the_probe_pairs_alone(self):
        base = ScreeningModel(UniformSignal(Interval(1.0, 2.0)), _Corner())
        tm = TransformedModel(base, make_relabeling(base, "affine",
                                                    slope=2.0))
        # no probe pair meets the corner, but one probe's signal with
        # another's value does
        vs, Vs = np.array(_probes(base)).T
        corner = (vs[:, None] < 1.05) & (Vs[None, :] > 0.9)
        assert corner.any() and not np.diagonal(corner).any()
        for check in (_scalar_self_check, transforms._self_check):
            assert _raised(check, base, tm, tm.relabeling) is None

    @staticmethod
    def _case(build, base=None):
        tm = build(base or _logistic())
        return tm.base, tm, tm.relabeling


# ---------------------------------------------------------------------------
# model validation


def _scalar_validate(model, grid=None, tolerances=None):
    """``validate_model`` with one scalar integral per check."""
    grid, tol = resolve_config(grid, tolerances)
    checks = []

    def record(name, passed, **detail):
        checks.append({"name": name, "passed": bool(passed), **detail})

    rel = getattr(model, "relabeling", None)
    relabeled = rel is not None and getattr(model, "base", None) is not None
    checked = model.base if relabeled else model
    sig = checked.signal
    s_lo, s_hi = sig.support.as_tuple()
    sig_window = checked.signal_grid(grid)
    sa, sb = float(sig_window[0]), float(sig_window[-1])
    axis = "base" if relabeled else "signal"
    try:
        inner, _ = integrate(sig.pdf, (sa, sb), rel_tol=tol.quadrature_rel)
        mass = ((sig.cdf(sa) - sig.cdf(s_lo)) + inner
                + (sig.sf(sb) - sig.sf(s_hi)))
        record("signal_mass", abs(mass - 1.0) <= 1e-7, value=mass,
               window=[sa, sb], axis=axis)
    except (QuadratureError, DomainError) as exc:
        record("signal_mass", False, error=str(exc))
    for q in (0.25, 0.5, 0.75):
        v = sa + q * (sb - sa)
        try:
            part, _ = integrate(sig.pdf, (sa, v), rel_tol=tol.quadrature_rel)
            span = sig.cdf(v) - sig.cdf(sa)
            record("signal_cdf_consistency", abs(part - span) <= 1e-7, at=v,
                   quadrature=part, declared=span, axis=axis)
        except (QuadratureError, DomainError) as exc:
            record("signal_cdf_consistency", False, at=v, error=str(exc))
    if relabeled:
        for q in (0.25, 0.5, 0.75):
            v = float(sig_window[int(q * (len(sig_window) - 1))])
            w = rel.phi(v)
            cdf_ok = abs(model.signal.cdf(w) - sig.cdf(v)) <= 1e-12
            lhs = model.signal.pdf(w) * rel.phi_prime(v)
            rhs = sig.pdf(v)
            pdf_ok = abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
            record("signal_cdf_consistency", cdf_ok and pdf_ok, at=v,
                   relabeled_at=w)
    mass_tol = 2.0 * grid.tail_mass_cut + 1e-7
    kernel = checked.kernel

    def mass_over(v, a, b):
        # one integral per piece between the density's jumps, summed in order
        cuts = [a, *[x for x in kernel._density_jumps if a < x < b], b]
        total = 0
        for piece in zip(cuts, cuts[1:]):
            part, _ = integrate(lambda V: kernel.pdf(v, V), piece,
                                rel_tol=tol.quadrature_rel)
            total += part
        return total

    for v in (sa, 0.5 * (sa + sb), sb):
        # the value grid's window, its slivers from the cdf
        lo, hi = checked.value_range(v, grid)
        pad = grid.endpoint_margin * (hi - lo)
        wa = lo + pad if np.isfinite(kernel.support.lower) else lo
        wb = hi - pad if np.isfinite(kernel.support.upper) else hi
        try:
            inner = mass_over(v, wa, wb)
        except QuadratureError as exc:
            record("kernel_mass", False, at=v, error=str(exc),
                   window=[wa, wb])
            continue
        mass = ((kernel.cdf(v, wa) - kernel.cdf(v, lo)) + inner
                + (kernel.cdf(v, hi) - kernel.cdf(v, wb)))
        record("kernel_mass", abs(mass - 1.0) <= mass_tol, at=v, value=mass,
               window=[wa, wb])
    return checks


class TestValidation:
    @pytest.mark.parametrize("path", sorted(MODELS.glob("*.model")),
                             ids=lambda p: p.stem)
    def test_benchmark_models(self, path):
        model, grid, tol = modelfile.load(str(path))
        result = validate_model(model, grid, tol)
        assert result.checks == _scalar_validate(model, grid, tol)

    def test_fosd_violating_and_derived_models(self):
        V_nodes = np.linspace(0.0, 1.0, 33)
        kernel = TableKernel([0.0, 1.0], V_nodes, [V_nodes ** 2, V_nodes])
        ordering = ScreeningModel(UniformSignal(Interval(0.0, 1.0)), kernel)
        derived = apply_relabeling(_power(), make_relabeling(_power(),
                                                             "mean"))
        # validation does not judge stochastic ordering: the report's FOSD
        # check over the full lattice does
        for model in (ordering, derived):
            result = validate_model(model)
            assert result.passed
            assert result.checks == _scalar_validate(model)

    @pytest.mark.parametrize("support", [(0.5, 1.5), (0.5, 1.0), (0.1, 1.0)])
    def test_power_singularity_gets_a_verdict(self, support, tmp_path,
                                              capsys):
        # Below v = 1 the power kernel's density v V^(v-1) is unbounded at
        # V = 0: the kernel mass integrates the window the value grid keeps,
        # never up to V = 0. (0.5, 1.5) is stress_power05.
        model = ScreeningModel(UniformSignal(Interval(*support)),
                               PowerKernel())
        result = validate_model(model)
        assert result.passed
        assert result.checks == _scalar_validate(model)
        assert all("window" in c for c in result.checks
                   if c["name"] == "kernel_mass")
        path = tmp_path / "power.model"
        path.write_text(modelfile.dumps(model), encoding="utf-8")
        assert main(["check", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        # the paper's finite-lower-endpoint claim: A1 fails
        assert not report["checks"]["A1"]["passed"]

    def test_table_kernel_mass_is_split_where_the_density_jumps(self):
        # The density is constant between value nodes. Over the support
        # (-3.9991, 4.9991), whose ends are not nodes, one GK15 integral
        # across the jumps converges falsely to 0.99983 with an error
        # estimate near 1e-16; integrated node to node the mass is 1.
        V_nodes = np.r_[-3.9991, np.linspace(-4.0, 5.0, 17)[1:-1], 4.9991]
        rows = [1.0 / (1.0 + np.exp(v - V_nodes)) for v in (0.0, 0.5, 1.0)]
        model = ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                               TableKernel([0.0, 0.5, 1.0], V_nodes, rows))
        result = validate_model(model)
        assert result.passed
        masses = [c["value"] for c in result.checks
                  if c["name"] == "kernel_mass"]
        assert len(masses) == 3
        assert all(abs(m - 1.0) <= 1e-12 for m in masses)
        assert result.checks == _scalar_validate(model)


# ---------------------------------------------------------------------------
# scalar evaluator traffic on the command-line paths


@pytest.fixture
def scalar_calls(monkeypatch):
    """Every call of a signal's or kernel's scalar cdf, sf, pdf or
    cdf_dv, by (class, method)."""
    calls = []
    classes = {c for module in (model_core, transforms)
               for c in vars(module).values()
               if isinstance(c, type) and issubclass(
                   c, (model_core.SignalDistribution,
                       model_core.ValuationKernel))}
    for cls in classes:
        for name in ("cdf", "sf", "pdf", "cdf_dv"):
            if name in vars(cls):
                def counted(*args, _fn=vars(cls)[name],
                            _key=(cls.__name__, name)):
                    calls.append(_key)
                    return _fn(*args)

                monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["check", "power.model"], ["check", "stress_power05.model"],
    ["check", "tablesig.model"],
    ["verify", "tablesig.model", "--prop", "1"],
    ["verify", "logistic.model", "--prop", "3"],
    ["verify", "tablekernel.model", "--prop", "3"]],
    ids=" ".join)
def test_cli_paths_make_few_scalar_calls(argv, scalar_calls, capsys):
    # Validation's integrals, suite 1's hazard clip and suite 3's
    # translation check run on the array forms; what is left is
    # validation's sliver and chain-rule spot checks. Each one-point call
    # costs some 10 us, so a per-point loop here (hundreds to thousands of
    # calls) shows as a slowdown.
    argv = [argv[0], str(MODELS / argv[1]), *argv[2:]]
    assert main(argv) in (0, 1)
    capsys.readouterr()
    assert len(scalar_calls) <= 32


# ---------------------------------------------------------------------------
# the suite-1 hazard profile


def _scalar_hazard_profile(tm, grid):
    base, rel = tm.base, tm.relabeling
    pairs = []
    dev = 0.0
    for v in base.signal_grid(grid):
        v = float(v)
        if base.signal.cdf(v) >= 1.0 - 1e-6:
            continue
        w = rel.phi(v)
        try:
            hz, _ = hazard(tm, w)
        except (DensityUnderflowError, DomainError, NearEndpointError):
            continue
        pairs.append((w, hz))
        dev = max(dev, abs(hz - 1.0))
    samples = [pairs[k] for k in
               np.linspace(0, len(pairs) - 1, min(9, len(pairs))).astype(int)]
    return {
        "n_points": len(pairs),
        "max_abs_deviation_from_one": dev,
        "w_first": pairs[0][0], "w_last": pairs[-1][0],
        "hazard_min": min(h for _, h in pairs),
        "hazard_max": max(h for _, h in pairs),
        "samples": [[w, h] for w, h in samples],
    }


@pytest.mark.parametrize("kind", ["inverse_hazard_integral",
                                  "integrated_hazard", "runningmax_hazard"])
@pytest.mark.parametrize("base", [_logistic, _decreasing_hazard,
                                  lambda: ScreeningModel(
                                      BetaSignal(1.0, 2.5),
                                      AdditiveNoiseKernel(noise="normal"))])
def test_hazard_profile_equals_the_point_loop(kind, base):
    grid = GridSpec(v_points=65, V_points=9)
    profiles = []
    for profile in (_scalar_hazard_profile, _hazard_profile):
        tm = apply_relabeling(base(), make_relabeling(base(), kind))
        check_assumption(tm, "A0", grid)
        profiles.append(profile(tm, grid))
    assert profiles[0] == profiles[1]


# ---------------------------------------------------------------------------
# the derived-file replay


def _scalar_replay(rel, table):
    """The phi_table replay row by row."""
    for v_k, w_k, p_k in table.tolist():
        w_got = rel.phi(v_k)
        if abs(w_got - w_k) > 1e-8 * max(1.0, abs(w_k)):
            raise SelfCheckError(
                f"rebuilt phi({v_k!r}) = {w_got!r} does not match the "
                f"recorded {w_k!r}")
        p_got = rel.phi_prime(v_k)
        if abs(p_got - p_k) > 1e-6 * max(1.0, abs(p_k)):
            raise SelfCheckError(
                f"rebuilt phi'({v_k!r}) = {p_got!r} does not match the "
                f"recorded {p_k!r}")


def _tampered(edits):
    """The logistic inverse-hazard-integral table, as an (n, 3) array, with
    ``edits`` applied: row index -> function of its (v, w, slope)."""
    tm = apply_relabeling(_logistic(), make_relabeling(
        _logistic(), "inverse_hazard_integral"))
    rows = transform_section(tm)["phi_table"]
    for k, edit in edits.items():
        rows[k] = edit(*rows[k])
    return np.array(rows)


_EDITS = {
    "intact": {},
    "phi": {5: lambda v, w, p: (v, w + 0.01, p)},
    "slope": {7: lambda v, w, p: (v, w, p * 1.1)},
    "slope_before_phi": {
        9: lambda v, w, p: (v, w + 0.01, p),
        4: lambda v, w, p: (v, w, p * 1.1)},
    "outside": {2: lambda v, w, p: (1.5, w, p)},
    "slope_before_outside": {
        1: lambda v, w, p: (v, w, p * 1.1),
        6: lambda v, w, p: (-0.25, w, p)},
    "outside_before_phi": {
        2: lambda v, w, p: (1.5, w, p),
        8: lambda v, w, p: (v, w + 0.01, p)},
    "phi_before_outside": {
        2: lambda v, w, p: (v, w + 0.01, p),
        8: lambda v, w, p: (1.5, w, p)},
}


@pytest.mark.parametrize("case", list(_EDITS))
def test_replay_raises_as_the_row_loop(case):
    table = _tampered(_EDITS[case])
    got = [_raised(replay, make_relabeling(_logistic(),
                                           "inverse_hazard_integral"), table)
           for replay in (_scalar_replay, transforms._replay_table)]
    assert got[0] == got[1]
    assert (got[0] is None) == (case == "intact")


def test_bisected_target_keeps_the_exact_lattice_preimage():
    rel = make_relabeling(_power(), "mean")
    assert rel.inverse(rel.w_lo) == 1.0
    rel.inverses([rel.w_lo - 1e-10])
    assert rel.inverse(rel.w_lo) == 1.0


# ---------------------------------------------------------------------------
# conditional means


def _scalar_conditional_mean(model, v, grid=None, tolerances=None):
    """E[V | v] by two scalar layer-cake integrals, the upper tail first."""
    grid, tol = resolve_config(grid, tolerances)
    if not model.signal.support.contains(v):
        raise DomainError(f"signal value {v!r} outside the signal support")
    lo, hi = model.value_range(v, grid)
    c = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    rel = tol.quadrature_rel
    try:
        upper, _ = integrate(lambda x: 1.0 - model.kernel.cdf(v, x + c),
                             (0.0, hi - c), rel_tol=rel)
        lower, _ = integrate(lambda x: model.kernel.cdf(v, x + c),
                             (lo - c, 0.0), rel_tol=rel)
    except QuadratureError as exc:
        raise IntegrabilityError(
            f"conditional mean did not converge at v={v!r}: {exc}") from exc
    return c + upper - lower


def _scalar_conditional_mean_derivative(model, v, grid=None,
                                        tolerances=None):
    """d/dv of E[V | v] by one scalar integral of ``-eval_kernel().dHdv``."""
    grid, tol = resolve_config(grid, tolerances)
    if not model.signal.support.contains(v):
        raise DomainError(f"signal value {v!r} outside the signal support")
    lo, hi = model.value_range(v, grid)
    try:
        value, _ = integrate(lambda V: -eval_kernel(model, v, V, tol).dHdv,
                             (lo, hi), rel_tol=tol.quadrature_rel)
    except QuadratureError as exc:
        raise IntegrabilityError(
            f"conditional mean derivative did not converge at v={v!r}: {exc}"
        ) from exc
    return value


class _ScalarLogistic(ValuationKernel):
    """Logistic noise through scalar evaluators alone, no array fields.
    A nonzero ``pole`` adds ``pole / |V - v - 0.3|`` to the cdf, so the
    integrals of both conditional means diverge."""

    family = "scalar_logistic"

    def __init__(self, pole=0.0):
        super().__init__(Interval(-math.inf, math.inf))
        self.pole = pole

    def cdf(self, v, V):
        F = 1.0 / (1.0 + math.exp(v - V))
        return F + self.pole / abs(V - v - 0.3) if self.pole else F

    def pdf(self, v, V):
        F = 1.0 / (1.0 + math.exp(v - V))
        return F * (1.0 - F)

    def cdf_dv(self, v, V):
        d = V - v - 0.3
        return -self.pdf(v, V) + (self.pole * d / abs(d) ** 3 if self.pole
                                  else 0.0)

    def quantile(self, v, p):
        return v + math.log(p / (1.0 - p))


class _ScalarLogisticNoSlope(_ScalarLogistic):
    """The same, its signal-derivative left to ``eval_kernel``'s stencil."""

    def cdf_dv(self, v, V):
        return None


MEAN_PAIRS = [(conditional_mean, conditional_mean_many,
               _scalar_conditional_mean),
              (conditional_mean_derivative, conditional_mean_derivative_many,
               _scalar_conditional_mean_derivative)]


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or ``(type, text)`` of what it raises."""
    return _raised(fn, *args) or fn(*args)


@pytest.mark.parametrize("kernel_type", [_ScalarLogistic,
                                         _ScalarLogisticNoSlope])
@pytest.mark.parametrize("pole", [0.0, 1.0])
@pytest.mark.parametrize("one, many, reference", MEAN_PAIRS,
                         ids=["mean", "slope"])
def test_scalar_kernel_means_equal_the_reference(kernel_type, pole, one,
                                                 many, reference):
    model = ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                           kernel_type(pole))
    vs = [0.0, 0.35, 1.0, 1.5]
    want = [_outcome(reference, model, v) for v in vs]
    # the last signal is outside the support
    assert want[-1] == (DomainError,
                        "signal value 1.5 outside the signal support")
    failed = [w for w in want[:-1] if isinstance(w, tuple)]
    assert len(failed) == (3 if pole else 0)
    assert all(w[0] is IntegrabilityError for w in failed)
    for v, w in zip(vs, want):
        assert _outcome(one, model, v) == w
    if failed:
        assert _outcome(many, model, vs[:-1]) == failed[0]
    else:
        assert np.array_equal(many(model, vs[:-1]), want[:-1])
    # the batch checks every signal before it integrates
    assert _outcome(many, model, vs) == want[-1]
