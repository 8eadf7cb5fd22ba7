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
along the corresponding axis. The FOSD slack is relative to the local
density: a point is flagged only when dHdv >= -slack * h, so thin tails
where both quantities underflow together do not produce spurious hits.

Evaluation failures (density underflow, survival exhausted) are tolerated up
to 1% of the lattice per check and excluded from the scans; past that the
check aborts and names the failing region rather than reporting a verdict
built on holes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DensityUnderflowError,
    DomainError,
    EvaluationError,
    NUMERIC_CAUSES,
    NearEndpointError,
)
from .model_core import (
    GridSpec,
    ScreeningModel,
    ToleranceConfig,
    eval_kernel,
    resolve_config,
)
from .numerics import _pointwise, scan_violations

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
    """Every lattice field the checks read, evaluated once."""

    vs: np.ndarray
    Vs: np.ndarray
    h: np.ndarray
    dHdv: np.ndarray
    gamma: np.ndarray
    psi: np.ndarray
    H: np.ndarray
    inv_hazard: np.ndarray
    hazard_failed: np.ndarray
    kernel_failures: list[tuple[float, float]]


def _inverse_hazard(model: ScreeningModel, vs: np.ndarray):
    """Inverse hazard on the signal lattice, and the mask of points where
    the hazard could not be evaluated (those hold NaN).

    The signal's array forms give every point at once, equal to ``hazard``
    bit for bit. If they raise, the points are evaluated one at a time, so
    that each failure is marked (or raised) where ``hazard`` meets it.
    """
    try:
        s = model.signal.sf_many(vs)
        f = model.signal.pdf_many(vs)
    except NUMERIC_CAUSES:
        inv, errors = _pointwise(
            lambda v: hazard(model, v)[1], vs,
            record=(NearEndpointError, DensityUnderflowError, DomainError))
        return inv, np.isin(np.arange(len(vs)), list(errors))
    failed = (s <= _SURVIVAL_FLOOR) | (f < _DENSITY_FLOOR)
    inv = np.full(len(vs), np.nan)
    np.divide(s, f, out=inv, where=~failed)
    return inv, failed


def _ratio(h: np.ndarray, dHdv: np.ndarray, failed: np.ndarray):
    """The information ratio of lattice arrays, equal to ``gamma`` bit for
    bit, and the mask of points where it is defined. A failed evaluation or
    a density below the floor (or NaN) leaves NaN there."""
    ok = ~failed & (h >= _DENSITY_FLOOR)
    G = np.full_like(h, np.nan)
    np.divide(-dHdv, h, out=G, where=ok)
    return G, ok


def _evaluate_bundle(model: ScreeningModel, grid: GridSpec,
                     tol: ToleranceConfig) -> _Bundle:
    vs = model.signal_grid(grid)
    Vs = model.value_grid(grid)
    inv_haz, hazard_failed = _inverse_hazard(model, vs)
    H, h, dHdv, failed = model.kernel.eval_lattice(model, vs[:, None],
                                                   Vs[None, :], tol)
    G, ok = _ratio(h, dHdv, failed)
    v_list, V_list = vs.tolist(), Vs.tolist()
    kernel_failures = [(v_list[i], V_list[j])
                       for i, j in zip(*np.nonzero(~ok))]
    psi = Vs[None, :] - inv_haz[:, None] * G
    return _Bundle(vs=vs, Vs=Vs, h=h, dHdv=dHdv, gamma=G, psi=psi, H=H,
                   inv_hazard=inv_haz, hazard_failed=hazard_failed,
                   kernel_failures=kernel_failures)


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


def _abort_if_holey(name: str, n_failed: int, n_total: int,
                    coords: list[tuple[float, float | None]]) -> None:
    if n_failed <= _FAIL_FRACTION * n_total:
        return
    vs = [c[0] for c in coords]
    Vs = [c[1] for c in coords if c[1] is not None]
    box = f"v in [{min(vs):.6g}, {max(vs):.6g}]"
    if Vs:
        box += f", V in [{min(Vs):.6g}, {max(Vs):.6g}]"
    raise EvaluationError(
        f"{name} check aborted: {n_failed} of {n_total} evaluations failed "
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

    if code == "A0":
        if bundle is None:
            vs = model.signal_grid(grid)
            inv, failed = _inverse_hazard(model, vs)
        else:
            vs, inv = bundle.vs, bundle.inv_hazard
            failed = bundle.hazard_failed
        failures = [(v, None) for v in vs[failed].tolist()]
        _abort_if_holey("A0", len(failures), len(vs), failures)
        part = _scan_lines(inv, vs, None, "v", "decreasing", slack,
                           "inverse_hazard")
        return _finish("A0", [part], len(vs), len(failures), prov)

    if bundle is None:
        bundle = _evaluate_bundle(model, grid, tol)
    n_total = len(bundle.vs) * len(bundle.Vs)

    if code == "FOSD":
        _abort_if_holey("FOSD", len(bundle.kernel_failures), n_total,
                        bundle.kernel_failures)
        i, j = np.nonzero(bundle.dHdv >= -slack * bundle.h)
        v, V = bundle.vs[i], bundle.Vs[j]
        d, hloc = bundle.dHdv[i, j], bundle.h[i, j]
        margin = d + slack * hloc

        def witness(n: int) -> dict:
            return {"v": float(v[n]), "V": float(V[n]), "dHdv": float(d[n]),
                    "h": float(hloc[n]), "violation": float(margin[n])}

        return _finish("FOSD", [(margin, v, V, witness)], n_total,
                       len(bundle.kernel_failures), prov)

    if code in ("A1", "A2"):
        _abort_if_holey(code, len(bundle.kernel_failures), n_total,
                        bundle.kernel_failures)
        axis = "V" if code == "A1" else "v"
        part = _scan_lines(bundle.gamma, bundle.vs, bundle.Vs, axis,
                           "decreasing", slack, "gamma")
        return _finish(code, [part], n_total, len(bundle.kernel_failures),
                       prov)

    # PSI: virtual value must rise along both axes.
    n_failed = int(np.isnan(bundle.psi).sum())
    failed_coords = [(float(bundle.vs[i]), float(bundle.Vs[j]))
                     for i, j in zip(*np.nonzero(np.isnan(bundle.psi)))]
    _abort_if_holey("PSI", n_failed, n_total, failed_coords)
    parts = [_scan_lines(bundle.psi, bundle.vs, bundle.Vs, axis,
                         "increasing", slack, "psi") for axis in ("V", "v")]
    return _finish("PSI", parts, n_total, n_failed, prov)


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
