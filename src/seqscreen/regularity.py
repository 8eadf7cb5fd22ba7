"""Hazard, information ratio, virtual value, and the assumption checks.

The checks are keyed by short codes:

    A0    signal hazard f/(1-F) weakly increasing in v
    A1    the ratio dH_v(V)/dv over h_v(V) weakly increasing in V
    A2    the same ratio weakly increasing in v
    FOSD  dH_v(V)/dv strictly negative at interior points
    PSI   virtual value weakly increasing in both arguments

A0 is scanned through the inverse hazard (survival over density), which must
be weakly decreasing; near the upper endpoint the inverse form stays finite
where the hazard itself blows up. A1 and A2 are scanned through the
information ratio gamma = -(dH_v/dv)/h_v, which must be weakly decreasing
along the corresponding axis. For additive noise dH_v/dv = -h_v exactly, so
gamma reads 1 at every point that evaluated, also where h_v underflows, and
narrow noise gets a verdict. The FOSD slack is relative to the local
density: a point is flagged only when dHdv >= -slack * h and h is above
the density floor, so a thin tail where both quantities underflow together
is not a spurious hit.

A check's holes are the NaN of the field it reads: the inverse hazard for
A0, gamma for A1, A2 and FOSD, the virtual value for PSI. A point is a hole
where an evaluation failed or a density or survival fell below its floor.
Holes are tolerated up to 1% of the field and excluded from the scans; past
that the check aborts and names the box that holds them rather than
reporting a verdict built on holes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DensityUnderflowError, EvaluationError, NearEndpointError
from .model_core import (
    AdditiveNoiseKernel,
    GridSpec,
    ScreeningModel,
    ToleranceConfig,
    eval_kernel,
    resolve_config,
)
from .numerics import scan_violations

__all__ = [
    "hazard",
    "gamma",
    "virtual_value",
    "Field2D",
    "compute_field",
    "CheckReport",
    "check_assumption",
    "RegularityReport",
    "regularity_report",
    "CHECK_CODES",
    "FIELD_NAMES",
]

CHECK_CODES = ("A0", "A1", "A2", "FOSD", "PSI")
FIELD_NAMES = ("H", "h", "dHdv", "gamma", "psi")

_SURVIVAL_FLOOR = 1e-15
_DENSITY_FLOOR = 1e-300
_WITNESS_CAP = 64
_FAIL_FRACTION = 0.01
# per check: the bundle field whose NaN are its holes and which it scans,
# the axes it scans along, the direction the field must keep and the
# witnesses' label; FOSD scans nothing and reads hits of its own
_CHECKS = {
    "A0": ("inv_hazard", ("v",), "decreasing", "inverse_hazard"),
    "A1": ("gamma", ("V",), "decreasing", "gamma"),
    "A2": ("gamma", ("v",), "decreasing", "gamma"),
    "FOSD": ("gamma", (), None, None),
    "PSI": ("psi", ("V", "v"), "increasing", "psi"),
}


# ---------------------------------------------------------------------------
# pointwise quantities


def hazard(model: ScreeningModel, v: float) -> tuple[float, float]:
    """Signal hazard and its reciprocal at v, as (f/(1-F), (1-F)/f).

    Raises NearEndpointError once survival drops below 1e-15, where neither
    direction of the ratio deserves trust.
    """
    s = model.signal.sf(v)
    f = model.signal.pdf(v)
    if s <= _SURVIVAL_FLOOR:
        raise NearEndpointError(
            f"signal survival {s:.3e} at v={v!r} is too small for a hazard")
    if f < _DENSITY_FLOOR:
        raise DensityUnderflowError(
            f"signal density vanished at v={v!r}")
    return f / s, s / f


def gamma(model: ScreeningModel, v: float, V: float,
          tolerances: ToleranceConfig | None = None) -> float:
    """Information ratio -(dH_v(V)/dv) / h_v(V)."""
    ke = eval_kernel(model, v, V, tolerances)
    if ke.h < _DENSITY_FLOOR:
        raise DensityUnderflowError(
            f"conditional density vanished at v={v!r}, V={V!r}")
    return -ke.dHdv / ke.h


def virtual_value(model: ScreeningModel, v: float, V: float,
                  tolerances: ToleranceConfig | None = None) -> float:
    """psi(v, V) = V - ((1-F)/f) * gamma(v, V)."""
    _, inv = hazard(model, v)
    return V - inv * gamma(model, v, V, tolerances)


# ---------------------------------------------------------------------------
# lattice evaluation


@dataclass
class Field2D:
    """A scalar field sampled on the signal x value lattice.

    ``values[i, j]`` belongs to ``(v[i], V[j])``; failed evaluations hold
    NaN. ``rows()`` yields (v, V, value) in row-major order.
    """

    name: str
    v: np.ndarray
    V: np.ndarray
    values: np.ndarray

    def rows(self):
        for i, vi in enumerate(self.v):
            for j, Vj in enumerate(self.V):
                yield float(vi), float(Vj), float(self.values[i, j])


@dataclass
class _Bundle:
    """Every lattice field the checks read, evaluated once; a NaN is a hole."""

    vs: np.ndarray
    Vs: np.ndarray
    h: np.ndarray
    dHdv: np.ndarray
    gamma: np.ndarray
    psi: np.ndarray
    H: np.ndarray
    inv_hazard: np.ndarray


def _inverse_hazard(model: ScreeningModel, vs: np.ndarray) -> np.ndarray:
    """Inverse hazard on the signal lattice, equal to ``hazard`` bit for bit.

    The signal's array forms give every point at once; a point below the
    survival or density floor holds NaN, and an error the array forms raise
    stands.
    """
    s = model.signal.sf_many(vs)
    f = model.signal.pdf_many(vs)
    inv = np.full(len(vs), np.nan)
    np.divide(s, f, out=inv,
              where=(s > _SURVIVAL_FLOOR) & (f >= _DENSITY_FLOOR))
    return inv


def _ratio(h: np.ndarray, dHdv: np.ndarray) -> np.ndarray:
    """The information ratio of lattice arrays, equal to ``gamma`` bit for
    bit. A density below the floor, or the NaN of a failed evaluation,
    leaves NaN there."""
    G = np.full_like(h, np.nan)
    np.divide(-dHdv, h, out=G, where=h >= _DENSITY_FLOOR)
    return G


def _evaluate_bundle(model: ScreeningModel, grid: GridSpec,
                     tol: ToleranceConfig) -> _Bundle:
    vs = model.signal_grid(grid)
    Vs = model.value_grid(grid)
    inv_haz = _inverse_hazard(model, vs)
    H, h, dHdv = model.kernel.eval_lattice(model, vs[:, None], Vs[None, :],
                                           tol)
    if type(model.kernel) is AdditiveNoiseKernel:
        # dH/dv = -h exactly, so gamma is 1 wherever the point evaluated,
        # also where h underflows
        G = np.where(np.isnan(h), np.nan, 1.0)
    else:
        G = _ratio(h, dHdv)
    psi = Vs[None, :] - inv_haz[:, None] * G
    return _Bundle(vs=vs, Vs=Vs, h=h, dHdv=dHdv, gamma=G, psi=psi, H=H,
                   inv_hazard=inv_haz)


def compute_field(model: ScreeningModel, name: str,
                  grid: GridSpec | None = None,
                  tolerances: ToleranceConfig | None = None,
                  bundle: _Bundle | None = None) -> Field2D:
    """Sample one of H, h, dHdv, gamma, psi on the evaluation lattice.

    ``bundle`` is a lattice already evaluated for this model, grid and
    tolerances; without one the lattice is evaluated here.
    """
    if name not in FIELD_NAMES:
        raise ValueError(f"unknown field {name!r}; choose from {FIELD_NAMES}")
    if bundle is None:
        grid, tol = resolve_config(grid, tolerances)
        bundle = _evaluate_bundle(model, grid, tol)
    return Field2D(name=name, v=bundle.vs, V=bundle.Vs,
                   values=getattr(bundle, name))


# ---------------------------------------------------------------------------
# check reports


@dataclass
class CheckReport:
    """Outcome of one assumption check on one model."""

    name: str
    passed: bool
    n_violations: int
    worst_violation: float
    witnesses: list[dict] = field(default_factory=list)
    n_evaluated: int = 0
    n_failed: int = 0
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _abort_if_holey(name: str, holes: np.ndarray, vs: np.ndarray,
                    Vs: np.ndarray | None) -> None:
    """Raise once more than 1% of a field are holes, naming the box of
    signals (and, for a lattice field, values) where they lie."""
    n_failed = int(holes.sum())
    if n_failed <= _FAIL_FRACTION * holes.size:
        return
    lattice = holes.ndim == 2
    at = vs[holes.any(axis=1) if lattice else holes]
    box = f"v in [{at.min():.6g}, {at.max():.6g}]"
    if lattice:
        at = Vs[holes.any(axis=0)]
        box += f", V in [{at.min():.6g}, {at.max():.6g}]"
    raise EvaluationError(
        f"{name} check aborted: {n_failed} of {holes.size} evaluations failed "
        f"inside {box}")


def _provenance(model: ScreeningModel, grid: GridSpec,
                tol: ToleranceConfig, *, suite: bool = False) -> dict:
    """What a rerun needs: the grid and tolerances, led by the model for a
    verification suite, followed by the value-axis truncation for a check."""
    prov = {"model": model.describe()} if suite else {}
    prov.update(grid=grid.describe(), tolerances=tol.describe())
    if not suite:
        prov["truncation"] = model.truncation_info(grid)
    return prov


def _finish(name: str, parts: list[tuple], n_evaluated: int, n_failed: int,
            provenance: dict) -> CheckReport:
    """Assemble a report from the hits of one or more scans.

    Each part is ``(magnitudes, key0, key1, witness)``: hits rank by
    magnitude, largest first, then by (key0, key1), stably; ``witness(k)``
    builds the dict of the part's k-th hit, and only the reported ones are
    built.
    """
    mags = np.concatenate([p[0] for p in parts])
    order = np.lexsort((np.concatenate([p[2] for p in parts]),
                        np.concatenate([p[1] for p in parts]), -mags))
    starts = np.cumsum([0] + [len(p[0]) for p in parts]).tolist()
    witnesses = []
    for k in order[:_WITNESS_CAP].tolist():
        n = next(n for n in range(len(parts)) if k < starts[n + 1])
        witnesses.append(parts[n][3](k - starts[n]))
    return CheckReport(
        name=name,
        passed=not len(mags),
        n_violations=len(mags),
        worst_violation=float(mags[order[0]]) if len(mags) else 0.0,
        witnesses=witnesses,
        n_evaluated=n_evaluated,
        n_failed=n_failed,
        provenance=provenance,
    )


def _scan_lines(values: np.ndarray, vs: np.ndarray, Vs: np.ndarray | None,
                axis: str, direction: str, slack: float,
                label: str) -> tuple:
    """Scan a field for monotonicity along one axis, skipping NaN holes.

    ``axis`` is "V" (scan each row over the value grid) or "v" (scan each
    column over the signal grid). A 1-D ``values`` is one line over the
    signal grid, and its witnesses carry no fixed coordinate. Returns one
    hit part for ``_finish``.
    """
    if axis == "V":
        lines, fixed, xs = values, vs, Vs
        fixed_name, free_name = "v", "V"
    else:
        lines, fixed, xs = values.T, Vs, vs
        fixed_name, free_name = "V", "v"
    line, k0, k1, move = scan_violations(xs, lines, direction, slack)
    lines = np.atleast_2d(lines)
    x0, x1 = xs[k0], xs[k1]
    y0, y1 = lines[line, k0], lines[line, k1]
    one_line = values.ndim == 1
    f = x0 if one_line else fixed[line]

    def witness(n: int) -> dict:
        w = {} if one_line else {fixed_name: float(f[n])}
        w.update({
            f"{free_name}_lo": float(x0[n]),
            f"{free_name}_hi": float(x1[n]),
            f"{label}_lo": float(y0[n]),
            f"{label}_hi": float(y1[n]),
            "violation": float(move[n]),
        })
        return w

    return (move, f, x0, witness) if axis == "V" else (move, x0, f, witness)


def check_assumption(model: ScreeningModel, which: str,
                     grid: GridSpec | None = None,
                     tolerances: ToleranceConfig | None = None,
                     bundle: _Bundle | None = None) -> CheckReport:
    """Run one named check (A0, A1, A2, FOSD, or PSI) on the model.

    ``bundle`` is a lattice already evaluated for this model, grid and
    tolerances. Without one, A0 evaluates the hazard on the signal grid
    only and the other checks evaluate the lattice here.
    """
    code = which.upper()
    if code not in CHECK_CODES:
        raise ValueError(f"unknown check {which!r}; choose from {CHECK_CODES}")
    grid, tol = resolve_config(grid, tolerances)
    prov = _provenance(model, grid, tol)
    slack = tol.monotonicity_slack
    name, axes, direction, label = _CHECKS[code]
    if code == "A0" and bundle is None:
        vs, Vs = model.signal_grid(grid), None
        values = _inverse_hazard(model, vs)
    else:
        if bundle is None:
            bundle = _evaluate_bundle(model, grid, tol)
        vs, Vs, values = bundle.vs, bundle.Vs, getattr(bundle, name)
    holes = np.isnan(values)
    _abort_if_holey(code, holes, vs, Vs)
    if code == "FOSD":
        i, j = np.nonzero((bundle.dHdv >= -slack * bundle.h)
                          & (bundle.h >= _DENSITY_FLOOR))
        v, V = vs[i], Vs[j]
        d, hloc = bundle.dHdv[i, j], bundle.h[i, j]
        margin = d + slack * hloc

        def witness(n: int) -> dict:
            return {"v": float(v[n]), "V": float(V[n]), "dHdv": float(d[n]),
                    "h": float(hloc[n]), "violation": float(margin[n])}

        parts = [(margin, v, V, witness)]
    else:
        parts = [_scan_lines(values, vs, Vs, axis, direction, slack, label)
                 for axis in axes]
    return _finish(code, parts, holes.size, int(holes.sum()), prov)


# ---------------------------------------------------------------------------
# the combined report


@dataclass
class RegularityReport:
    """All five checks on one model, with the two headline verdicts.

    ``classic_regular`` requires A0, A1, and A2 together; ``psi_regular``
    requires only the monotone virtual value. ``fosd_ok`` reports the strict
    ordering check on its own since everything else presumes it.
    """

    model: dict
    checks: dict[str, CheckReport]
    classic_regular: bool
    psi_regular: bool
    fosd_ok: bool
    provenance: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def regularity_report(model: ScreeningModel, grid: GridSpec | None = None,
                      tolerances: ToleranceConfig | None = None
                      ) -> RegularityReport:
    """Run every check and fold the verdicts into one report."""
    grid, tol = resolve_config(grid, tolerances)
    bundle = _evaluate_bundle(model, grid, tol)
    checks = {code: check_assumption(model, code, grid, tol, bundle)
              for code in CHECK_CODES}
    return RegularityReport(
        model=model.describe(),
        checks=checks,
        classic_regular=(checks["A0"].passed and checks["A1"].passed
                         and checks["A2"].passed),
        psi_regular=checks["PSI"].passed,
        fosd_ok=checks["FOSD"].passed,
        provenance=_provenance(model, grid, tol),
    )
