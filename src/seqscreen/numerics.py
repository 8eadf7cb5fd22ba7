"""Shared numeric substrate: adaptive quadrature, finite differences,
monotone scans with violation witnesses, and compensated prefix sums.

Everything here is pure and deterministic. Quadrature runs over finite
bounds only, refines intervals in a fixed worst-error-first order and
accumulates the final sum in interval position order, so identical inputs
produce bit-identical outputs. The rule used on each panel is the
Gauss-Kronrod (7, 15) pair, whose nodes are all interior, so integrable
endpoint singularities never get evaluated head-on.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (NUMERIC_CAUSES, ConstructionError, EvaluationError,
                     QuadratureError)

__all__ = [
    "Interval",
    "DerivativeEstimate",
    "integrate",
    "integrate_many",
    "differentiate",
    "stencil",
    "scan_violations",
    "kahan_prefix",
    "invert_monotone",
]

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class Interval:
    """A nonempty open-or-closed interval; either endpoint may be infinite."""

    lower: float
    upper: float

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise ConstructionError("interval endpoints must not be NaN")
        if not lo < hi:
            raise ConstructionError(
                f"interval requires lower < upper, got [{lo}, {hi}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float, *, closed: bool = True) -> bool:
        if closed:
            return self.lower <= x <= self.upper
        return self.lower < x < self.upper

    def as_tuple(self) -> tuple[float, float]:
        return (self.lower, self.upper)


# Gauss-Kronrod (7, 15) abscissae and weights on [-1, 1]; positive half of a
# symmetric rule. Odd indices (plus the centre) are the embedded Gauss nodes.
_GK_NODES = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_GK_WEIGHTS = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
)
_GK_CENTRE_WEIGHT = 0.20948214108472782
_GAUSS_WEIGHTS = {1: 0.1294849661688697, 3: 0.27970539148927664,
                  5: 0.3818300505051189}
_GAUSS_CENTRE_WEIGHT = 0.4179591836734694
# (node, Kronrod weight, Gauss weight or None) per node pair
_GK_RULE = tuple((node, w, _GAUSS_WEIGHTS.get(i))
                 for i, (node, w) in enumerate(zip(_GK_NODES, _GK_WEIGHTS)))


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Kronrod-15 panel on [a, b]; returns (estimate, error_indicator)."""
    centre = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    fc = f(centre)
    kron = _GK_CENTRE_WEIGHT * fc
    gauss = _GAUSS_CENTRE_WEIGHT * fc
    for node, kw, gw in _GK_RULE:
        dx = halfwidth * node
        pair = f(centre + dx) + f(centre - dx)
        kron += kw * pair
        if gw is not None:
            gauss += gw * pair
    return kron * halfwidth, abs(kron - gauss) * halfwidth


class _Refinement:
    """One integral's adaptive state: its panel heap, worst-first order,
    stopping test, give-up rules and final left-to-right sum.

    ``integrate`` and ``integrate_many`` drive this one object, so a batched
    integral refines exactly as it would alone.
    """

    __slots__ = ("heap", "value", "error", "sign", "seq", "panels", "worst")

    def __init__(self, a: float, b: float, value: float, err: float,
                 sign: float):
        self.heap = [[-err, 0, a, b, 0, value, err]]
        self.value, self.error, self.sign = value, err, sign
        self.seq = 1
        self.panels = 1

    def split(self, rel_tol: float, abs_tol: float, max_depth: int,
              max_intervals: int) -> tuple[float, float, float] | None:
        """None once the error estimate meets the tolerance; otherwise pop
        the worst panel and return ``(a, mid, b)`` to refine it."""
        if not self.error > max(abs_tol, rel_tol * abs(self.value)):
            return None
        worst = heapq.heappop(self.heap)
        _, _, a, b, depth, _, _ = worst
        if depth >= max_depth:
            raise QuadratureError(
                f"quadrature did not converge after {max_depth} bisections "
                f"near [{a:.6g}, {b:.6g}]",
                partial=self.sign * self.value, error_estimate=self.error)
        if self.panels >= max_intervals:
            raise QuadratureError(
                f"quadrature exceeded {max_intervals} panels",
                partial=self.sign * self.value, error_estimate=self.error)
        self.worst = worst
        return a, 0.5 * (a + b), b

    def absorb(self, halves: tuple[float, float, float, float]) -> None:
        """Replace the panel ``split`` popped by its two halves, given as
        ``(value, error)`` of the lower half followed by the upper one."""
        v1, e1, v2, e2 = halves
        _, _, a, b, depth, val, perr = self.worst
        mid = 0.5 * (a + b)
        self.value += (v1 + v2) - val
        self.error += (e1 + e2) - perr
        seq = self.seq
        heapq.heappush(self.heap, [-e1, seq, a, mid, depth + 1, v1, e1])
        heapq.heappush(self.heap, [-e2, seq + 1, mid, b, depth + 1, v2, e2])
        self.seq = seq + 2
        self.panels += 1

    def result(self) -> tuple[float, float]:
        # Deterministic final accumulation: sum leaves left to right.
        leaves = sorted(self.heap, key=lambda p: p[2])
        return (self.sign * math.fsum(p[5] for p in leaves),
                math.fsum(p[6] for p in leaves))


def _ordered(lower, upper) -> tuple[float, float, float]:
    """Endpoints in increasing order and the sign a reversed pair gives."""
    lower, upper = float(lower), float(upper)
    if math.isnan(lower) or math.isnan(upper):
        raise ConstructionError("integration endpoints must not be NaN")
    if math.isinf(lower) or math.isinf(upper):
        raise ConstructionError(
            f"integration needs finite bounds, got [{lower}, {upper}]")
    if lower > upper:
        return upper, lower, -1.0
    return lower, upper, 1.0


def integrate(f: Callable[[float], float],
              domain: Interval | tuple[float, float],
              rel_tol: float = 1e-10,
              abs_tol: float = 1e-14,
              max_depth: int = 48,
              max_intervals: int = 2048) -> tuple[float, float]:
    """Adaptively integrate ``f`` over the finite ``domain``.

    Returns ``(value, error_estimate)`` with the error estimate satisfying
    ``error_estimate <= max(abs_tol, rel_tol * |value|)`` on success. The
    worst interval is bisected first; an interval that still dominates the
    error after ``max_depth`` bisections, or a refinement that exhausts
    ``max_intervals`` panels, raises :class:`QuadratureError` carrying the
    partial value. Divergent integrands end up on that path.
    """
    if isinstance(domain, Interval):
        domain = domain.as_tuple()
    lower, upper, sign = _ordered(*domain)
    if lower == upper:
        return 0.0, 0.0
    ref = _Refinement(lower, upper, *_gk15(f, lower, upper), sign)
    while (cut := ref.split(rel_tol, abs_tol, max_depth,
                            max_intervals)) is not None:
        a, mid, b = cut
        ref.absorb(_gk15(f, a, mid) + _gk15(f, mid, b))
    return ref.result()


def integrate_many(f, lowers, uppers, rel_tol: float = 1e-10,
                   abs_tol: float = 1e-14, max_depth: int = 48,
                   max_intervals: int = 2048):
    """Integrate N integrands over finite bounds, refining them together.

    ``f(idx, x)`` evaluates integrand ``idx[r]`` at the nodes ``x[r]`` of an
    (m, 15) array and returns an array of that shape. Each round evaluates
    the panels of every integral still open in one call. Each integral keeps
    its own heap, worst-first refinement, stopping test and failure, so its
    value, error estimate and error message equal ``integrate`` on it alone
    bit for bit. Returns ``(values, errors, failures)``: ``failures`` maps
    the index of each integral that failed (NaN in both arrays) to the
    exception that ended it, a :class:`QuadratureError` or the first one its
    integrand raised.
    """
    n = len(lowers)
    values, errors = [0.0] * n, [0.0] * n
    failures: dict[int, Exception] = {}
    refs: dict[int, _Refinement] = {}
    todo, lo, hi, signs = [], [], [], []
    for k, (a, b) in enumerate(zip(lowers, uppers)):
        a, b, sign = _ordered(a, b)
        if a == b:
            continue
        todo.append(k)
        lo.append(a)
        hi.append(b)
        signs.append(sign)
    if todo:
        vals, errs = _panels(f, todo, lo, hi, failures)
        for r, k in enumerate(todo):
            if k not in failures:
                refs[k] = _Refinement(lo[r], hi[r], vals[r], errs[r],
                                      signs[r])
    while refs:
        todo, lo, hi = [], [], []
        for k, ref in list(refs.items()):
            try:
                cut = ref.split(rel_tol, abs_tol, max_depth, max_intervals)
            except QuadratureError as exc:
                failures[k] = exc
                del refs[k]
                continue
            if cut is None:
                values[k], errors[k] = ref.result()
                del refs[k]
                continue
            a, mid, b = cut
            todo += (k, k)
            lo += (a, mid)
            hi += (mid, b)
        if todo:
            vals, errs = _panels(f, todo, lo, hi, failures)
            for r in range(0, len(todo), 2):
                k = todo[r]
                if k in failures:
                    refs.pop(k, None)
                else:
                    refs[k].absorb((vals[r], errs[r], vals[r + 1],
                                    errs[r + 1]))
    for k in failures:
        values[k] = errors[k] = math.nan
    return np.array(values), np.array(errors), failures


def _panels(f, todo: list[int], lo: list[float], hi: list[float],
            failures: dict[int, Exception]) -> tuple[list[float], list[float]]:
    """Kronrod-15 panels on ``[lo[r], hi[r]]`` of integrals ``todo[r]``.

    The node array holds the centre in column 0 and the pair
    ``centre +- dx_i`` in columns ``2i + 1`` and ``2i + 2``, the order in
    which ``_gk15`` calls its integrand, and the sums run column by column
    in ``_gk15``'s order, so each row equals ``_gk15`` bit for bit. When
    ``f`` raises for a numeric cause, the nodes are evaluated one at a time
    in that order, and an integral whose rows raise is entered in
    ``failures`` with its first exception.
    """
    idx = np.array(todo)
    a, b = np.array(lo), np.array(hi)
    centre = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    x = np.empty((len(todo), 15))
    x[:, 0] = centre
    for i, node in enumerate(_GK_NODES):
        dx = halfwidth * node
        x[:, 2 * i + 1] = centre + dx
        x[:, 2 * i + 2] = centre - dx
    try:
        fx = np.asarray(f(idx, x), dtype=float)
    except NUMERIC_CAUSES:
        fx = np.full(x.shape, math.nan)
        for r, k in enumerate(todo):
            for c in range(15):
                if k in failures:
                    break
                try:
                    fx[r, c] = f(idx[r:r + 1], x[r:r + 1, c:c + 1])[0, 0]
                except NUMERIC_CAUSES as exc:
                    failures[k] = exc
    kron = _GK_CENTRE_WEIGHT * fx[:, 0]
    gauss = _GAUSS_CENTRE_WEIGHT * fx[:, 0]
    for i, (_, kw, gw) in enumerate(_GK_RULE):
        pair = fx[:, 2 * i + 1] + fx[:, 2 * i + 2]
        kron = kron + kw * pair
        if gw is not None:
            gauss = gauss + gw * pair
    return ((kron * halfwidth).tolist(),
            (np.abs(kron - gauss) * halfwidth).tolist())


@dataclass(frozen=True)
class DerivativeEstimate:
    """A derivative value with an error bar and a nonsmoothness flag."""

    value: float
    error: float
    nonsmooth: bool = False


def _probe(f: Callable[[float], float], x: float) -> float:
    try:
        y = float(f(x))
    except NUMERIC_CAUSES as exc:
        raise EvaluationError(f"stencil evaluation failed at x={x!r}") from exc
    if math.isnan(y):
        raise EvaluationError(f"stencil evaluation returned NaN at x={x!r}")
    return y


def stencil(x: float, step: float | None = None
            ) -> tuple[float, tuple[float, ...]]:
    """The step ``differentiate`` takes at x and the points it evaluates,
    in its order: x, x + h, x - h, x + h/2, x - h/2."""
    h = step if step is not None else max(1e-5, 1e-5 * abs(x))
    return h, (x, x + h, x - h, x + 0.5 * h, x - 0.5 * h)


def differentiate(f: Callable[[float], float], x: float,
                  step: float | None = None) -> DerivativeEstimate:
    """Central difference with one Richardson refinement.

    The default step follows the policy ``h = max(1e-5, 1e-5 * |x|)``. The
    reported error combines the Richardson defect with a roundoff bound. A
    kink detector compares second differences at two step sizes: for smooth
    functions the scaled second difference halves with the step, while at a
    kink it stalls; a stalled ratio flags the estimate and inflates the error
    to the gap between one-sided slopes.
    """
    h, points = stencil(x, step)
    if h <= 0:
        raise ConstructionError("differentiation step must be positive")
    f_c, f_p, f_m, f_p2, f_m2 = [_probe(f, p) for p in points]

    d_h = (f_p - f_m) / (2.0 * h)
    d_h2 = (f_p2 - f_m2) / h
    value = (4.0 * d_h2 - d_h) / 3.0

    scale = max(abs(f_p), abs(f_m), abs(f_c), 1e-300)
    roundoff = 4.0 * _EPS * scale / h
    error = abs(value - d_h2) + roundoff

    second_h = abs(f_p - 2.0 * f_c + f_m) / h
    second_h2 = abs(f_p2 - 2.0 * f_c + f_m2) / (0.5 * h)
    nonsmooth = (second_h > 64.0 * _EPS * scale / h
                 and second_h2 > 0.7 * second_h)
    if nonsmooth:
        fwd = (f_p2 - f_c) / (0.5 * h)
        bwd = (f_c - f_m2) / (0.5 * h)
        error = max(error, 0.5 * abs(fwd - bwd))
    return DerivativeEstimate(value=value, error=error, nonsmooth=nonsmooth)


def scan_violations(xs, ys, direction: str, slack: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every point of a line that moves against ``direction`` by more than
    slack from the previous non-NaN point of its line.

    ``xs`` are the strictly increasing abscissae; ``ys`` holds one line per
    row (a 1-D ``ys`` is one line) and NaN entries are holes. Returns the
    arrays ``(line, lower index, upper index, move)`` of the hits in scan
    order.
    """
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"direction must be increasing|decreasing, got {direction!r}")
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    xs = np.asarray(xs, dtype=float)
    lines = np.atleast_2d(np.asarray(ys, dtype=float))
    n = len(xs)
    if n != lines.shape[1]:
        raise ValueError("abscissae and values must have equal length")
    if n < 2:
        raise ValueError("monotone scan requires at least 2 samples")
    if not np.all(xs[1:] > xs[:-1]):
        raise ValueError("abscissae must be strictly increasing")
    valid = ~np.isnan(lines)
    # position of the last non-NaN point at or before each point, -1 if none
    last = np.maximum.accumulate(np.where(valid, np.arange(n), -1), axis=1)
    line, k = np.nonzero(valid[:, 1:] & (last[:, :-1] >= 0))
    k0, k1 = last[line, k], k + 1
    y0, y1 = lines[line, k0], lines[line, k1]
    move = y0 - y1 if direction == "increasing" else y1 - y0
    hit = move > slack
    return line[hit], k0[hit], k1[hit], move[hit]


def kahan_prefix(terms, start: float = 0.0) -> list[float]:
    """Compensated running sums ``[start, start + t0, start + t0 + t1, ...]``."""
    out = [start]
    acc = start
    comp = 0.0
    for c in terms:
        y = c - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        out.append(acc)
    return out


def invert_monotone(f: Callable[[float], float], target: float,
                    lower: float, upper: float, *, tol: float = 1e-12,
                    f_lower: float | None = None,
                    f_upper: float | None = None) -> float:
    """Solve f(x) = target for nondecreasing f by plain bisection.

    The bracket must be finite and is trusted: ``f(lower) <= target`` and
    ``f(upper) >= target`` up to roundoff. Bisection runs until the bracket
    width drops below ``tol`` (absolute, in x).
    """
    if not (math.isfinite(lower) and math.isfinite(upper) and lower <= upper):
        raise ConstructionError(
            f"invert_monotone needs a finite ordered bracket, got [{lower}, {upper}]")
    lo, hi = lower, upper
    f_lo = f(lo) if f_lower is None else f_lower
    f_hi = f(hi) if f_upper is None else f_upper
    if f_lo > target and not math.isclose(f_lo, target, rel_tol=1e-9, abs_tol=1e-9):
        raise ConstructionError("bracket does not contain the target from below")
    if f_hi < target and not math.isclose(f_hi, target, rel_tol=1e-9, abs_tol=1e-9):
        raise ConstructionError("bracket does not contain the target from above")
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
