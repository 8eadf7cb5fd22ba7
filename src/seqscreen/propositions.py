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
    DensityUnderflowError,
    DomainError,
    EvaluationError,
    IntegrabilityError,
    NearEndpointError,
)
from .model_core import (
    GridSpec,
    ScreeningModel,
    ToleranceConfig,
    conditional_mean,
    conditional_mean_derivative,
    eval_kernel,
    resolve_config,
)
from .numerics import differentiate
from .regularity import (
    _evaluate_bundle,
    _provenance,
    check_assumption,
    compute_field,
    gamma,
)
from .regularity import hazard as _hazard
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
    zero derivative; they are excluded from the comparison.
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


def _clamped_cdf(model: ScreeningModel, v: float, V: float) -> float:
    k = model.kernel.support
    if V <= k.lower:
        return 0.0
    if V >= k.upper:
        return 1.0
    return model.kernel.cdf(v, V)


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

    delta = np.zeros((len(vs), len(offsets)))
    delta1 = np.zeros_like(delta)
    fd = np.full_like(delta, np.nan)
    n_interior = 0
    n_evaluable = 0
    n_bad = 0
    max_residual = 0.0
    for i, v in enumerate(vs):
        v = float(v)
        for j, x in enumerate(offsets):
            x = float(x)
            V = v + x
            if V <= k.lower or V >= k.upper:
                delta[i, j] = 0.0 if V <= k.lower else 1.0
                continue
            n_interior += 1
            try:
                ke = eval_kernel(model, v, V, tol)
            except (DomainError, EvaluationError, DensityUnderflowError):
                delta[i, j] = np.nan
                delta1[i, j] = np.nan
                continue
            delta[i, j] = ke.H
            delta1[i, j] = ke.h + ke.dHdv
            if not fd_check:
                continue
            room_v = min(v - v_lo, v_hi - v)
            room_V = min(V - k.lower if math.isfinite(k.lower) else math.inf,
                         k.upper - V if math.isfinite(k.upper) else math.inf)
            step = min(tol.derivative_step(v), 0.4 * min(room_v, room_V))
            if step < 1e-9:
                continue
            est = differentiate(
                lambda s: _clamped_cdf(model, s, s + x), v, step=step)
            if est.nonsmooth:
                # the stencil straddles a kink (table interpolants have
                # them along cell edges); differencing says nothing there
                continue
            fd[i, j] = est.value
            n_evaluable += 1
            residual = (abs(est.value - delta1[i, j])
                        / max(1.0, abs(delta1[i, j])))
            max_residual = max(max_residual, residual)
            if residual > _DELTA_RESIDUAL_TOL:
                n_bad += 1
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
    base, rel = tm.base, tm.relabeling
    pairs = []
    dev = 0.0
    for v in base.signal_grid(grid):
        v = float(v)
        if base.signal.cdf(v) >= 1.0 - 1e-6:
            continue
        w = rel.phi(v)
        try:
            hz, _ = _hazard(tm, w)
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
        tm = apply_relabeling(model, integral if kind == kinds[0]
                              else make_relabeling(model, kind))
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
    # Mechanism 1: the ratio collapses toward zero at the lower edge.
    _, b_hi, _ = model.value_bounds(grid)
    span = b_hi - k.lower
    vs = model.signal_grid(grid)
    levels = [float(vs[len(vs) // 4]), float(vs[len(vs) // 2]),
              float(vs[(3 * len(vs)) // 4])]
    trend = []
    for v in levels:
        row = []
        for scale in (1e-2, 1e-3, 1e-4):
            V = k.lower + scale * span
            try:
                row.append(gamma(model, v, V, tol))
            except (DensityUnderflowError, EvaluationError, DomainError):
                row.append(None)
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
    gmax = 0.0
    for v in levels:
        for q in (0.25, 0.5, 0.75):
            V = k.lower + q * span
            try:
                gmax = max(gmax, gamma(model, v, V, tol))
            except (DensityUnderflowError, EvaluationError, DomainError):
                continue
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


def _check_mean_normalized(model, vs, tol) -> dict:
    worst = 0.0
    at = None
    for v in vs:
        v = float(v)
        err = abs(conditional_mean(model, v, tolerances=tol) - v) / max(
            1.0, abs(v))
        if err > worst:
            worst, at = err, v
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
    worst = 0.0
    at = None
    for v in vs:
        v = float(v)
        err = abs(conditional_mean_derivative(model, v, tolerances=tol) - 1.0)
        if err > worst:
            worst, at = err, v
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
