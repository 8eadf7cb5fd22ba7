"""The relabeling self-check, model validation, the suite-1 hazard profile
and the derived-file replay run on array forms. Each is held here against
the per-point loop it replaced, kept as a reference: the same outcome, the
same numbers and the same error, raised at the same point.
"""

import dataclasses
import random
from pathlib import Path

import numpy as np
import pytest

from seqscreen import modelfile, transforms
from seqscreen.errors import (
    DensityUnderflowError,
    DomainError,
    EvaluationError,
    NearEndpointError,
    QuadratureError,
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
    eval_kernel,
    resolve_config,
    validate_model,
)
from seqscreen.numerics import Interval, differentiate, integrate, stencil
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
    rel.fill_phis([x for v, _ in probes for x in stencil(v)[1]])
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
    @pytest.mark.parametrize("build, outcome", [
        (_wrong_slope, SelfCheckError),
        (_hazard_off, SelfCheckError),
        (_flat_kernel, DensityUnderflowError),
    ])
    def test_raises_as_the_probe_loop(self, build, outcome):
        want = _raised(_scalar_self_check, *self._case(build))
        got = _raised(transforms._self_check, *self._case(build))
        assert want is not None and want[0] is outcome
        assert got == want

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
    """``validate_model`` with one scalar integral per check and the
    stochastic-ordering sample through ``eval_kernel`` point by point."""
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
    for v in (sa, 0.5 * (sa + sb), sb):
        lo, hi = checked.value_range(v, grid)
        try:
            mass, _ = integrate(lambda V: checked.kernel.pdf(v, V), (lo, hi),
                                rel_tol=tol.quadrature_rel)
            record("kernel_mass", abs(mass - 1.0) <= mass_tol, at=v,
                   value=mass)
        except QuadratureError as exc:
            record("kernel_mass", False, at=v, error=str(exc))
    fosd_bad = 0
    vs = np.linspace(sa, sb, 8)
    Vs = checked.value_grid(dataclasses.replace(grid, v_points=8, V_points=8))
    for v in vs:
        for V in Vs:
            if eval_kernel(checked, float(v), float(V), tol).fosd_violation:
                fosd_bad += 1
    record("fosd_sample", fosd_bad == 0, violations=int(fosd_bad),
           sampled=int(len(vs) * len(Vs)))
    return checks


class _Refusing(AdditiveNoiseKernel):
    """A kernel whose signal-derivative raises above V = 0.3, where only
    the stochastic-ordering sample reads it: ``first`` on the sample's
    first row (signals below 0.1), ``rest`` on the others."""

    def __init__(self, first, rest):
        super().__init__(noise="logistic")
        self.first, self.rest = first, rest

    def cdf_dv(self, v, V):
        if V > 0.3:
            exc_type = self.first if v < 0.1 else self.rest
            raise exc_type(f"refused at v={v!r}, V={V!r}")
        return super().cdf_dv(v, V)


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
        for model in (ordering, derived):
            result = validate_model(model)
            assert result.checks == _scalar_validate(model)
        assert not validate_model(ordering).fosd_ok

    @pytest.mark.parametrize("first, rest", [
        (EvaluationError, EvaluationError), (ValueError, ValueError),
        # the lattice marks the first row's points failed, then lets the
        # ValueError of a later row through
        (EvaluationError, ValueError)])
    def test_fosd_sample_raises_as_the_point_loop(self, first, rest):
        model = ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                               _Refusing(first, rest))
        want = _raised(_scalar_validate, model)
        assert want is not None and want[0] is first
        assert _raised(validate_model, model) == want


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
    """The phi_table replay token by token."""
    for tok in table.split():
        pieces = tok.split(":")
        if len(pieces) != 3:
            raise transforms.ConstructionError(
                f"phi_table entries need v:w:slope, got {tok!r}")
        v_k = transforms._parse_float(pieces[0], "phi_table")
        w_k = transforms._parse_float(pieces[1], "phi_table")
        p_k = transforms._parse_float(pieces[2], "phi_table")
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
    """The logistic inverse-hazard-integral table with ``edits`` applied:
    token index -> function of its (v, w, slope) strings."""
    tm = apply_relabeling(_logistic(), make_relabeling(
        _logistic(), "inverse_hazard_integral"))
    tokens = transform_section(tm)["phi_table"].split()
    for k, edit in edits.items():
        tokens[k] = edit(*tokens[k].split(":"))
    return " ".join(tokens)


_EDITS = {
    "intact": {},
    "phi": {5: lambda v, w, p: f"{v}:{float(w) + 0.01!r}:{p}"},
    "slope": {7: lambda v, w, p: f"{v}:{w}:{float(p) * 1.1!r}"},
    "slope_before_phi": {
        9: lambda v, w, p: f"{v}:{float(w) + 0.01!r}:{p}",
        4: lambda v, w, p: f"{v}:{w}:{float(p) * 1.1!r}"},
    "phi_before_parse": {
        3: lambda v, w, p: f"{v}:{float(w) + 0.01!r}:{p}",
        6: lambda v, w, p: f"{v}:{w}:x"},
    "pieces": {2: lambda v, w, p: f"{v}:{w}"},
    "outside_before_phi": {
        2: lambda v, w, p: f"1.5:{w}:{p}",
        8: lambda v, w, p: f"{v}:{float(w) + 0.01!r}:{p}"},
    "phi_before_outside": {
        2: lambda v, w, p: f"{v}:{float(w) + 0.01!r}:{p}",
        8: lambda v, w, p: f"1.5:{w}:{p}"},
}


@pytest.mark.parametrize("case", list(_EDITS))
def test_replay_raises_as_the_token_loop(case):
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
