"""Desk-scale verification suites for the three structural claims.

Each suite splits its work into hypothesis checks (does this model satisfy
the claim's preconditions) and conclusion checks (does the claimed behavior
show up numerically), then folds them into one verdict:

    consistent         hypotheses hold and every conclusion check passed
    discrepancy        hypotheses hold but some conclusion check failed
    hypothesis-failed  a precondition is not met, so nothing was tested
    not-applicable     the claim does not speak about this model at all

The suites never prove anything; they hunt for counterexamples on finite
lattices and report what they measured, with enough provenance to rerun.

Suite 1 (relabelings restore a monotone hazard): builds the three hazard
relabelings, checks A0 on each, and measures the relabeled hazard profile
of the inverse-hazard-integral construction against the constant profile it
is often described as producing. The measured profile is the squared base
hazard at the preimage, so for a non-constant base hazard the constant
reading fails while A0 itself is still achievable; the suite reports the
measured profile and flags the mismatch as a discrepancy rather than
papering over it.

Suite 2 (a finite lower value endpoint breaks A1 + A2): checks that at
least one of A1, A2 fails, then collects the mechanism: the information
ratio collapses toward zero at the lower edge, and after an affine signal
rescale the shifted-cdf derivative changes sign across the lattice.

Suite 3 (mean-normalized regular models are additive-translation models):
forward direction treats mean normalization plus A1 + A2 plus an unbounded
value axis as hypotheses and looks for the additive fingerprints (ratio
identically 1, unit conditional-mean slope, translation invariance);
converse direction assumes the fingerprints and checks A1 + A2.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    EvaluationError,
    IntegrabilityError,
    NUMERIC_CAUSES,
)
from .model_core import (
    GridSpec,
    ScreeningModel,
    ToleranceConfig,
    _exact_map,
    conditional_mean_derivative_many,
    conditional_mean_many,
    resolve_config,
)
from .numerics import _probe, richardson, stencil
from .regularity import (
    _evaluate_bundle,
    _inverse_hazard,
    _provenance,
    _ratio,
    check_assumption,
    compute_field,
)
from .transforms import apply_relabeling, make_relabeling, relabel

__all__ = [
    "DeltaField",
    "delta_diagnostic",
    "PropositionReport",
    "verify_prop1",
    "verify_prop2",
    "verify_prop3",
    "verify",
]

_GAMMA_DEV_TOL = 1e-10
_MEAN_SLOPE_TOL = 1e-7
_TRANSLATION_TOL = 1e-8
_MEAN_NORMALIZED_TOL = 1e-6
_DELTA_RESIDUAL_TOL = 1e-4
_DELTA_FD_FRACTION = 0.01


# ---------------------------------------------------------------------------
# the shifted-cdf diagnostic


@dataclass
class DeltaField:
    """H_v(v + x) and its total signal-derivative on a (v, offset) lattice.

    ``delta1`` is the factored form h * (1 - gamma) evaluated pointwise;
    ``delta1_fd`` re-derives it by differencing v -> H_v(v + x) directly.
    Offsets that land outside the value support record delta 0 or 1 and a
    zero derivative; they are excluded from the comparison. Points whose
    evaluation failed hold NaN in both fields.
    """

    v: np.ndarray
    offsets: np.ndarray
    delta: np.ndarray
    delta1: np.ndarray
    delta1_fd: np.ndarray
    n_interior: int
    n_evaluable: int
    n_residual_bad: int
    max_residual: float
    provenance: dict

    def summary(self) -> dict:
        return {
            "n_points": int(self.delta.size),
            "n_interior": self.n_interior,
            "n_evaluable": self.n_evaluable,
            "n_residual_bad": self.n_residual_bad,
            "max_residual": self.max_residual,
            "n_delta1_positive": int(np.sum(self.delta1 > 1e-12)),
            "n_delta1_negative": int(np.sum(self.delta1 < -1e-12)),
        }


def delta_diagnostic(model: ScreeningModel, n_v: int = 33,
                     n_offsets: int = 33, grid: GridSpec | None = None,
                     tolerances: ToleranceConfig | None = None,
                     fd_check: bool = True) -> DeltaField:
    """Evaluate the shifted-cdf field and cross-check its derivative.

    When ``fd_check`` is on and more than 1% of the evaluable points show a
    relative residual above 1e-4 between the factored and the differenced
    derivative, the routine raises EvaluationError: a field that the two
    routes cannot agree on must not feed a verdict.
    """
    grid, tol = resolve_config(grid, tolerances)
    v_lo, v_hi = model.signal.support.as_tuple()
    vs = model.signal_grid(dataclasses.replace(grid, v_points=max(n_v, 2),
                                               V_points=2))
    b_lo, b_hi, _ = model.value_bounds(grid)
    # a half-line signal support spans its offsets from the last grid signal
    v_top = v_hi if math.isfinite(v_hi) else float(vs[-1])
    offsets = np.linspace(b_lo - v_top, b_hi - v_lo, max(n_offsets, 2))
    k = model.kernel.support

    # one sheared row per signal: row i holds the values vs[i] + offsets
    Vs = vs[:, None] + offsets[None, :]
    rows = [model.kernel.eval_lattice(model, vs[i:i + 1, None], Vs[i:i + 1],
                                      tol) for i in range(len(vs))]
    H, h, dHdv, failed = map(np.vstack, zip(*rows))
    below, above = Vs <= k.lower, Vs >= k.upper
    outside = below | above
    delta = np.where(below, 0.0, np.where(above, 1.0, H))
    delta1 = np.where(outside, 0.0, h + dHdv)
    fd = np.full_like(delta, np.nan)
    n_interior = int(np.count_nonzero(~outside))
    # difference v -> H_v(v + x) at every evaluable point at once; the step
    # is at most 0.4 x the room to both supports, so the cdf needs no clamp
    room = np.minimum(np.minimum(vs - v_lo, v_hi - vs)[:, None],
                      np.minimum(Vs - k.lower, k.upper - Vs))
    steps = np.array([tol.derivative_step(v) for v in vs.tolist()])
    step = np.minimum(steps[:, None], 0.4 * room)
    i, j = np.nonzero(~failed & fd_check & (step >= 1e-9))
    hs, points = stencil(vs[i], step[i, j])
    value, _, nonsmooth = richardson(hs, *_shifted_cdf(
        model.kernel, np.stack(points, axis=1), offsets[j]).T)
    # a stencil across a kink (a table's cell edge) says nothing
    i, j, value = i[~nonsmooth], j[~nonsmooth], value[~nonsmooth]
    fd[i, j] = value
    n_evaluable = int(value.size)
    d1 = delta1[i, j]
    residual = np.abs(value - d1) / np.maximum(1.0, np.abs(d1))
    max_residual = float(np.max(residual[residual > 0.0], initial=0.0))
    n_bad = int(np.count_nonzero(residual > _DELTA_RESIDUAL_TOL))
    if fd_check and n_evaluable and n_bad > _DELTA_FD_FRACTION * n_evaluable:
        raise EvaluationError(
            f"shifted-cdf derivative routes disagree at {n_bad} of "
            f"{n_evaluable} points (worst residual {max_residual:.3e})")
    return DeltaField(
        v=vs, offsets=offsets, delta=delta, delta1=delta1, delta1_fd=fd,
        n_interior=n_interior, n_evaluable=n_evaluable,
        n_residual_bad=n_bad, max_residual=max_residual,
        provenance={"grid": grid.describe(), "tolerances": tol.describe()},
    )


def _shifted_cdf(kernel, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``kernel.cdf(s, s + x[r])`` at every point s of each row r of
    ``s``, by one array call if the kernel has its own ``_fields``; else,
    or if that raises or gives NaN, pair by pair through the probes of
    ``differentiate``, so a failure raises where they would."""
    if kernel._exact_arrays():
        try:
            F = kernel._cdf_field(s, s + x[:, None])
            if not np.isnan(F).any():
                return F
        except NUMERIC_CAUSES:
            pass
    return np.array([[_probe(lambda t: kernel.cdf(t, t + shift), t)
                      for t in row]
                     for row, shift in zip(s.tolist(), x.tolist())]
                    ).reshape(s.shape)


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class PropositionReport:
    proposition: int
    verdict: str
    hypothesis_checks: dict = field(default_factory=dict)
    conclusion_checks: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    direction: str | None = None

    def to_dict(self) -> dict:
        d = {"proposition": self.proposition}
        if self.direction is not None:
            d["direction"] = self.direction
        d.update({
            "verdict": self.verdict,
            "hypothesis_checks": self.hypothesis_checks,
            "conclusion_checks": self.conclusion_checks,
            "evidence": self.evidence,
            "provenance": self.provenance,
        })
        return d

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _verdict(hypothesis_checks: dict, conclusion_checks: dict) -> str:
    if not all(c["passed"] for c in hypothesis_checks.values()):
        return "hypothesis-failed"
    if all(c["passed"] for c in conclusion_checks.values()):
        return "consistent"
    return "discrepancy"


# ---------------------------------------------------------------------------
# suite 1: hazard relabelings


def _hazard_profile(tm, grid: GridSpec) -> dict:
    """Relabeled hazard sampled where the base cdf is clear of its top."""
    base = tm.base
    clear = ~(_exact_map(base.signal.cdf, base.signal_grid(grid))
              >= 1.0 - 1e-6)
    ws = tm.signal_grid(grid)[clear]
    # where ``hazard`` raises, the point is left out
    ws = ws[~_inverse_hazard(tm, ws)[1]]
    hz = tm.signal.pdf_many(ws) / tm.signal.sf_many(ws)
    # max() from 0, which meets a NaN deviation in point order
    dev = max([0.0] + np.abs(hz - 1.0).tolist())
    ws, hz = ws.tolist(), hz.tolist()
    samples = np.linspace(0, len(ws) - 1, min(9, len(ws))).astype(int)
    return {
        "n_points": len(ws),
        "max_abs_deviation_from_one": dev,
        "w_first": ws[0], "w_last": ws[-1],
        "hazard_min": min(hz),
        "hazard_max": max(hz),
        "samples": [[ws[k], hz[k]] for k in samples.tolist()],
    }


def verify_prop1(model: ScreeningModel, grid: GridSpec | None = None,
                 tolerances: ToleranceConfig | None = None
                 ) -> PropositionReport:
    """Can a signal relabeling make A0 hold for this model?

    Hypothesis: the inverse hazard is integrable over the signal support.
    Conclusions: each relabeling kind yields A0 (kind by kind), and the
    inverse-hazard-integral construction is additionally measured against
    the constant unit-hazard profile frequently attributed to it. That
    profile reading fails whenever the base hazard is not constant, and the
    mismatch is reported as a discrepancy with the measured profile attached.
    """
    grid, tol = resolve_config(grid, tolerances)
    hyp: dict = {}
    conc: dict = {}
    evidence: dict = {}
    try:
        integral = make_relabeling(model, "inverse_hazard_integral")
        hyp["inverse_hazard_integrable"] = {"passed": True}
    except IntegrabilityError as exc:
        hyp["inverse_hazard_integrable"] = {"passed": False,
                                            "detail": str(exc)}
        return PropositionReport(
            proposition=1, verdict="hypothesis-failed",
            hypothesis_checks=hyp, conclusion_checks=conc,
            evidence=evidence,
            provenance=_provenance(model, grid, tol, suite=True))

    kinds = ("inverse_hazard_integral", "integrated_hazard",
             "runningmax_hazard")
    a0_by_kind = {}
    profiles = {}
    for kind in kinds:
        try:
            rel = integral if kind == kinds[0] else make_relabeling(model, kind)
        except ConstructionError as exc:
            a0_by_kind[kind], profiles[kind] = False, {
                "built": False, "detail": str(exc)}
            continue
        tm = apply_relabeling(model, rel)
        rep = check_assumption(tm, "A0", grid, tol)
        a0_by_kind[kind] = rep.passed
        profiles[kind] = _hazard_profile(tm, grid)
    evidence["relabeled_hazard_profiles"] = profiles

    conc["a0_achievable"] = {
        "passed": any(a0_by_kind.values()),
        "by_kind": a0_by_kind,
    }
    flag_tol = max(1e-6, 100.0 * tol.monotonicity_slack)
    dev = profiles["inverse_hazard_integral"]["max_abs_deviation_from_one"]
    conc["inverse_hazard_integral_constant_profile"] = {
        "passed": dev <= flag_tol,
        "max_abs_deviation_from_one": dev,
        "tolerance": flag_tol,
        "note": ("relabeled hazard equals the squared base hazard at the "
                 "preimage; a constant unit profile requires the base "
                 "hazard to be constant already"),
    }
    return PropositionReport(
        proposition=1, verdict=_verdict(hyp, conc), hypothesis_checks=hyp,
        conclusion_checks=conc, evidence=evidence,
        provenance=_provenance(model, grid, tol, suite=True))


# ---------------------------------------------------------------------------
# suite 2: bounded-below value support


def verify_prop2(model: ScreeningModel, grid: GridSpec | None = None,
                 tolerances: ToleranceConfig | None = None
                 ) -> PropositionReport:
    """A finite lower value endpoint should rule out A1 and A2 together."""
    grid, tol = resolve_config(grid, tolerances)
    prov = _provenance(model, grid, tol, suite=True)
    k = model.kernel.support
    if not math.isfinite(k.lower):
        return PropositionReport(
            proposition=2, verdict="not-applicable",
            hypothesis_checks={"value_support_bounded_below":
                               {"passed": False, "lower": "-inf"}},
            evidence={}, provenance=prov)

    hyp: dict = {"value_support_bounded_below":
                 {"passed": True, "lower": k.lower}}
    bundle = _evaluate_bundle(model, grid, tol)
    fosd = check_assumption(model, "FOSD", grid, tol, bundle)
    hyp["strict_stochastic_order"] = {"passed": fosd.passed,
                                      "n_violations": fosd.n_violations}

    a1 = check_assumption(model, "A1", grid, tol, bundle)
    a2 = check_assumption(model, "A2", grid, tol, bundle)
    conc = {"a1_a2_not_both": {
        "passed": not (a1.passed and a2.passed),
        "a1_passed": a1.passed,
        "a2_passed": a2.passed,
        "a1_violations": a1.n_violations,
        "a2_violations": a2.n_violations,
    }}

    evidence: dict = {}
    # One lattice serves both mechanisms: three signal levels against three
    # offsets above the lower edge and the three value quartiles.
    _, b_hi, _ = model.value_bounds(grid)
    span = b_hi - k.lower
    vs = model.signal_grid(grid)
    levels = vs[[len(vs) // 4, len(vs) // 2, (3 * len(vs)) // 4]]
    Vs = k.lower + np.array([1e-2, 1e-3, 1e-4, 0.25, 0.5, 0.75]) * span
    _, h, dHdv, failed = model.kernel.eval_lattice(
        model, levels[:, None], Vs[None, :], tol)
    G, _ = _ratio(h, dHdv, failed)

    # Mechanism 1: the ratio collapses toward zero at the lower edge.
    trend = []
    for v, edge in zip(levels.tolist(), G[:, :3].tolist()):
        row = [None if math.isnan(g) else g for g in edge]
        vals = [g for g in row if g is not None]
        trend.append({
            "v": v,
            "gamma_at_offsets": row,
            "vanishing": (len(vals) == 3 and vals[0] >= vals[1] >= vals[2]
                          and vals[2] <= 0.5),
        })
    evidence["gamma_lower_edge_trend"] = trend

    # Mechanism 2: after an affine rescale that pushes the ratio above one
    # somewhere, the shifted-cdf derivative takes both signs.
    quartiles = G[:, 3:]
    gmax = max([0.0, *quartiles[~np.isnan(quartiles)].tolist()])
    if gmax > 0:
        tm = relabel(model, "affine", slope=gmax / 2.0)
        dfield = delta_diagnostic(tm, n_v=17, n_offsets=17, grid=grid,
                                  tolerances=tol, fd_check=False)
        s = dfield.summary()
        evidence["rescaled_delta1_signs"] = {
            "slope": gmax / 2.0,
            "n_positive": s["n_delta1_positive"],
            "n_negative": s["n_delta1_negative"],
            "sign_change_present": (s["n_delta1_positive"] > 0
                                    and s["n_delta1_negative"] > 0),
        }

    # Route agreement for the derivative field itself.
    dcheck = delta_diagnostic(model, n_v=17, n_offsets=17, grid=grid,
                              tolerances=tol)
    evidence["delta1_route_agreement"] = dcheck.summary()

    return PropositionReport(
        proposition=2, verdict=_verdict(hyp, conc), hypothesis_checks=hyp,
        conclusion_checks=conc, evidence=evidence, provenance=prov)


# ---------------------------------------------------------------------------
# suite 3: additive-translation structure


def _worst(errors, vs) -> tuple[float, float | None]:
    """The largest error and the first v that reaches it; (0.0, None) when
    no error is positive."""
    worst, at = 0.0, None
    for err, v in zip(errors.tolist(), vs.tolist()):
        if err > worst:
            worst, at = err, v
    return worst, at


def _check_mean_normalized(model, vs, tol) -> dict:
    means = conditional_mean_many(model, vs, tolerances=tol)
    worst, at = _worst(np.abs(means - vs) / np.maximum(1.0, np.abs(vs)), vs)
    return {"passed": worst <= _MEAN_NORMALIZED_TOL,
            "max_relative_error": worst, "worst_at": at}


def _check_gamma_one(model, grid, tol, bundle) -> dict:
    fld = compute_field(model, "gamma", grid, tol, bundle)
    dev = np.abs(fld.values - 1.0)
    if np.all(np.isnan(dev)):
        return {"passed": False, "max_abs_deviation": None, "worst_at": None}
    k = int(np.nanargmax(dev))
    i, j = divmod(k, dev.shape[1])
    return {"passed": float(dev[i, j]) <= _GAMMA_DEV_TOL,
            "max_abs_deviation": float(dev[i, j]),
            "worst_at": [float(fld.v[i]), float(fld.V[j])]}


def _check_mean_slope_one(model, vs, tol) -> dict:
    slopes = conditional_mean_derivative_many(model, vs, tolerances=tol)
    worst, at = _worst(np.abs(slopes - 1.0), vs)
    return {"passed": worst <= _MEAN_SLOPE_TOL, "max_abs_error": worst,
            "worst_at": at}


def _check_translation_invariance(model, grid, tol) -> dict:
    vs = model.signal_grid(dataclasses.replace(grid, v_points=17,
                                               V_points=2))
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
    return {"passed": worst <= _TRANSLATION_TOL, "max_abs_error": worst,
            "worst_at": at, "n_compared": n}


def _check_unbounded_support(model) -> dict:
    k = model.kernel.support
    unbounded = math.isinf(k.lower) and math.isinf(k.upper)
    positive = False
    if unbounded:
        v_lo, v_hi = model.signal.support.as_tuple()
        v_mid = 0.5 * (v_lo + v_hi)
        try:
            q_lo = model.kernel.quantile(v_mid, 1e-9)
            q_hi = model.kernel.quantile(v_mid, 1.0 - 1e-9)
            positive = (model.kernel.pdf(v_mid, q_lo) > 0.0
                        and model.kernel.pdf(v_mid, q_hi) > 0.0)
        except (DomainError, ValueError, OverflowError, NotImplementedError):
            positive = False
    return {"passed": unbounded and positive,
            "support_unbounded": unbounded,
            "density_positive_at_extremes": positive}


def verify_prop3(model: ScreeningModel,
                 direction: str | tuple[str, ...] = "forward",
                 grid: GridSpec | None = None,
                 tolerances: ToleranceConfig | None = None
                 ) -> PropositionReport | dict[str, PropositionReport]:
    """Mean-normalized A1 + A2 models versus additive translation structure.

    ``forward`` assumes mean normalization, A1, A2, and an unbounded value
    axis, then checks the additive fingerprints. ``converse`` assumes the
    fingerprints and checks A1 and A2. Given a tuple of directions, returns
    a dict of reports keyed by direction, built from one run of the checks
    both directions share.
    """
    directions = (direction,) if isinstance(direction, str) else direction
    for d in directions:
        if d not in ("forward", "converse"):
            raise ValueError("direction must be 'forward' or 'converse'")
    grid, tol = resolve_config(grid, tolerances)
    prov = _provenance(model, grid, tol, suite=True)
    vs_probe = model.signal_grid(dataclasses.replace(grid, v_points=5,
                                                     V_points=2))

    mean_norm = _check_mean_normalized(model, vs_probe, tol)
    bundle = _evaluate_bundle(model, grid, tol)
    a1 = check_assumption(model, "A1", grid, tol, bundle)
    a2 = check_assumption(model, "A2", grid, tol, bundle)
    a1c = {"passed": a1.passed, "n_violations": a1.n_violations}
    a2c = {"passed": a2.passed, "n_violations": a2.n_violations}
    support = _check_unbounded_support(model)
    gamma_one = _check_gamma_one(model, grid, tol, bundle)
    slope_one = _check_mean_slope_one(model, vs_probe, tol)
    translation = _check_translation_invariance(model, grid, tol)

    reports = {}
    for d in directions:
        if d == "forward":
            hyp = {"mean_normalized": mean_norm, "a1": a1c, "a2": a2c,
                   "value_support_unbounded": support}
            conc = {"gamma_identically_one": gamma_one,
                    "conditional_mean_slope_one": slope_one,
                    "translation_invariance": translation}
        else:
            hyp = {"gamma_identically_one": gamma_one,
                   "translation_invariance": translation,
                   "value_support_unbounded": support,
                   "mean_normalized": mean_norm}
            conc = {"a1": a1c, "a2": a2c,
                    "conditional_mean_slope_one": slope_one}
        reports[d] = PropositionReport(
            proposition=3, verdict=_verdict(hyp, conc),
            hypothesis_checks=hyp, conclusion_checks=conc, evidence={},
            provenance=prov, direction=d)
    return reports[direction] if isinstance(direction, str) else reports


def verify(model: ScreeningModel, proposition: int,
           grid: GridSpec | None = None,
           tolerances: ToleranceConfig | None = None):
    """Dispatch: suites 1 and 2 return one report, suite 3 returns both
    directions as a dict."""
    if proposition == 1:
        return verify_prop1(model, grid, tolerances)
    if proposition == 2:
        return verify_prop2(model, grid, tolerances)
    if proposition == 3:
        return verify_prop3(model, ("forward", "converse"), grid, tolerances)
    raise ValueError(f"unknown proposition {proposition!r}; choose 1, 2, 3")
