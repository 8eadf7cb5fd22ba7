"""Shared numeric substrate: adaptive quadrature, finite differences,
monotone scans with violation witnesses, bisection and compensated prefix
sums.

Everything here is pure and deterministic. Quadrature (QUADPACK's QAG) runs
over finite bounds only. ``integrate_many`` keeps all open integrals'
panels in one array store, bisects each one's worst panel per round (the
oldest among equal errors) and sums its panels left to right with
``math.fsum``; ``integrate`` is ``integrate_many`` on one integral. The rule
on each panel is the Gauss-Kronrod (7, 15) pair, whose nodes are all
interior, so integrable endpoint singularities are never evaluated head-on.
"""

from __future__ import annotations

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
    "scan_violations",
    "invert_monotone",
]

_EPS = 2.220446049250313e-16
# An integral gives up when its worst panel has been bisected this often,
# or when it holds this many panels.
_MAX_DEPTH = 48
_MAX_INTERVALS = 2048


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
_GK_NODES = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
])
_GK_WEIGHTS = np.array([
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
])
_GK_CENTRE_WEIGHT = 0.20948214108472782
# the Gauss weights of the node pairs 1, 3 and 5
_GAUSS_WEIGHTS = np.array([0.1294849661688697, 0.27970539148927664,
                           0.3818300505051189])
_GAUSS_CENTRE_WEIGHT = 0.4179591836734694
# a bisected panel's lower bound and error: it sorts last and is never worst
_HUSK = np.array([[math.inf], [-math.inf]])


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
              abs_tol: float = 1e-14) -> tuple[float, float]:
    """``integrate_many`` on the one scalar integrand ``f``, read at each
    node through ``_pointwise``: returns ``(value, error_estimate)``, or
    raises the exception that ended the integral, a
    :class:`QuadratureError` carrying the partial value for one that does
    not converge (divergent integrands end up there)."""
    lo, hi = domain.as_tuple() if isinstance(domain, Interval) else domain
    values, errors, failures = integrate_many(
        lambda idx, x: _pointwise(f, x)[0], [lo], [hi], rel_tol, abs_tol)
    if failures:
        raise failures[0]
    return float(values[0]), float(errors[0])


def integrate_many(f, lowers, uppers, rel_tol: float = 1e-10,
                   abs_tol: float = 1e-14):
    """Integrate N integrands over finite bounds, refining them together.

    ``f(idx, x)`` evaluates integrand ``idx[r]`` at the nodes ``x[r]`` of an
    (m, 15) array and returns an array of that shape. Each round evaluates
    the panels of every integral still open in one call. An integral stops
    once its error estimate is at most ``max(abs_tol, rel_tol * |value|)``;
    until then each round bisects its worst panel, the oldest among ties.
    It gives up with a :class:`QuadratureError` carrying the partial value
    when that panel has been bisected ``_MAX_DEPTH`` times or the integral
    holds ``_MAX_INTERVALS`` panels. Returns ``(values, errors,
    failures)``: ``failures`` maps the index of each integral that failed
    (NaN in both arrays) to the exception that ended it, a
    :class:`QuadratureError` or the first one its integrand raised.
    """
    n = len(lowers)
    values, errors = np.zeros(n), np.zeros(n)
    failures: dict[int, Exception] = {}
    bounds = [_ordered(a, b) for a, b in zip(lowers, uppers)]
    ks = np.array([k for k, (a, b, _) in enumerate(bounds) if a < b],
                  dtype=np.intp)
    a, b, sign = np.array([bounds[k] for k in ks]).reshape(-1, 3).T
    # The store: row r holds the panels of integral ks[r] in creation
    # order, as fields a, b, depth, value and error. Each round every open
    # integral adds the two halves of one panel, so all rows have ``used``
    # columns. A bisected panel stays as a husk (``_HUSK``).
    store = np.empty((5, len(ks), 8))
    store[0, :, 0], store[1, :, 0], store[2, :, 0] = a, b, 0.0
    used, p = 0, 1  # p: the panels each integral adds this round
    while len(ks):
        new = store[:, :, used:used + p]
        new[3], new[4], failed = _gk15(f, ks, new[0], new[1])
        if failed:
            failures.update((int(ks[r]), exc) for r, exc in failed.items())
        if used:  # value and error of each integral, as panels replace one
            with np.errstate(invalid="ignore", over="ignore"):
                total = total + ((new[3:, :, 0] + new[3:, :, 1]) - panel[3:])
        else:
            total = new[3:, :, 0].copy()
        used += p
        # a failed integral reads NaN, so it neither splits nor is done
        split = total[1] > np.fmax(abs_tol, rel_tol * np.abs(total[0]))
        if not split.all():
            done = ~split
            done[list(failed)] = False
            if done.any():
                _finish(store[:, done, :used], ks[done], sign[done], values,
                        errors)
        rows = np.arange(len(ks))
        worst = store[4, :, :used].argmax(axis=1)
        panel = store[:, rows, worst]
        stuck = split & ((panel[2] >= _MAX_DEPTH)
                         | (used // 2 + 1 >= _MAX_INTERVALS))
        if stuck.any():
            for r in np.flatnonzero(stuck).tolist():
                a, b, depth = panel[:3, r].tolist()
                failures[int(ks[r])] = QuadratureError(
                    f"quadrature did not converge after {_MAX_DEPTH} "
                    f"bisections near [{a:.6g}, {b:.6g}]"
                    if depth >= _MAX_DEPTH
                    else f"quadrature exceeded {_MAX_INTERVALS} panels",
                    partial=float(sign[r] * total[0, r]),
                    error_estimate=float(total[1, r]))
            split = split & ~stuck
        if not split.all():
            ks, sign, worst = ks[split], sign[split], worst[split]
            store, panel, total = (store[:, split], panel[:, split],
                                   total[:, split])
            rows = rows[:len(ks)]
        store[0::4, rows, worst] = _HUSK
        if used + 2 > store.shape[2]:
            store = np.concatenate([store, np.empty_like(store)], axis=2)
        a, b = panel[:2]
        mid = 0.5 * (a + b)
        store[0, :, used], store[0, :, used + 1] = a, mid
        store[1, :, used], store[1, :, used + 1] = mid, b
        store[2, :, used:used + 2] = panel[2, :, None] + 1.0
        p = 2
    values[list(failures)] = errors[list(failures)] = math.nan
    return values, errors, failures


def _finish(store, ks, sign, values, errors) -> None:
    """Write the value and error estimate of each finished integral of the
    ``store`` block: its leaves' sums, left to right, by ``math.fsum``; the
    sum of one term is that term plus 0.0, as ``fsum`` gives it."""
    if store.shape[2] == 1:
        values[ks] = sign * (store[3, :, 0] + 0.0)
        errors[ks] = store[4, :, 0] + 0.0
        return
    order = np.argsort(store[0], axis=1, kind="stable")
    order = order[:, :store.shape[2] // 2 + 1]  # the husks sort last
    leaves = np.take_along_axis(store[3:], order[None], axis=2).tolist()
    for k, s, vs, es in zip(ks.tolist(), sign.tolist(), *leaves):
        values[k], errors[k] = s * math.fsum(vs), math.fsum(es)


def _gk15(f, ks, a, b):
    """Kronrod-15 values and error indicators of the panels
    ``[a[r, j], b[r, j]]`` of integrals ``ks[r]``, shaped like ``a``, and
    {row r: exception} of the integrals whose integrand failed.

    Row i of the nodes ``f`` reads holds one panel's nodes: the centre,
    then ``centre + dx_j`` and ``centre - dx_j`` per Kronrod node j. When
    ``f`` raises for a numeric cause, each integral's nodes are evaluated
    one at a time, panel by panel, in that order, and an integral whose
    nodes raise fails with its first exception and NaN values.
    """
    centre = (0.5 * (a + b)).ravel()
    halfwidth = (0.5 * (b - a)).ravel()
    dx = halfwidth[:, None] * _GK_NODES
    x = np.empty((len(centre), 15))
    x[:, 0] = centre
    x[:, 1::2] = centre[:, None] + dx
    x[:, 2::2] = centre[:, None] - dx
    failed = {}
    try:
        fx = np.asarray(f(ks.repeat(a.shape[1]), x), dtype=float)
    except NUMERIC_CAUSES:
        nodes = x.reshape(len(ks), -1)
        fx, failed = _pointwise(
            lambda i: [f(ks[i:i + 1], nodes[i:i + 1, c:c + 1])[0, 0]
                       for c in range(nodes.shape[1])],
            np.arange(len(ks)), record=NUMERIC_CAUSES,
            fill=(math.nan,) * nodes.shape[1])
    fx = fx.reshape(x.shape)
    # the terms of each sum are added in node order, as on floats
    with np.errstate(invalid="ignore", over="ignore"):
        pairs = fx[:, 1::2] + fx[:, 2::2]
        kron = _GK_CENTRE_WEIGHT * fx[:, 0]
        for term in (pairs * _GK_WEIGHTS).T:
            kron = kron + term
        gauss = _GAUSS_CENTRE_WEIGHT * fx[:, 0]
        for term in (pairs[:, 1::2] * _GAUSS_WEIGHTS).T:
            gauss = gauss + term
        return ((kron * halfwidth).reshape(a.shape),
                (abs(kron - gauss) * halfwidth).reshape(a.shape), failed)


def _pointwise(fn, *arrays, record=(), fill=math.nan):
    """``fn`` at each point of the broadcast ``arrays``, called with floats
    in row order; a tuple result adds a trailing axis. A point that raises
    one of the types in ``record`` reads ``fill``, any other exception
    raises at once. Returns the array and {flat index: exception} of the
    recorded points, in row order."""
    arrays = np.broadcast_arrays(*arrays)
    out, errors = [], {}
    for k, point in enumerate(zip(*(a.ravel().tolist() for a in arrays))):
        try:
            out.append(fn(*point))
        except record as exc:
            out.append(fill)
            errors[k] = exc
    out = np.array(out, dtype=float)
    return out.reshape(arrays[0].shape + out.shape[1:]), errors


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


def stencil(x, step=None):
    """The step ``differentiate`` takes at x and the points it evaluates,
    in its order: x, x + h, x - h, x + h/2, x - h/2; x and a given step
    may be arrays."""
    h = step if step is not None else max(1e-5, 1e-5 * abs(x))
    return h, (x, x + h, x - h, x + 0.5 * h, x - 0.5 * h)


def richardson(h, f_c, f_p, f_m, f_p2, f_m2):
    """Central difference with one Richardson refinement, from the values
    at the five stencil points; returns ``(value, error, nonsmooth)``.

    Every operation is elementwise, so floats and arrays give the same
    bits. The error combines the Richardson defect with a roundoff bound. A
    kink detector compares second differences at two step sizes: for smooth
    functions the scaled second difference halves with the step, while at a
    kink it stalls; a stalled ratio flags the estimate and inflates the
    error to the gap between one-sided slopes.
    """
    d_h = (f_p - f_m) / (2.0 * h)
    d_h2 = (f_p2 - f_m2) / h
    value = (4.0 * d_h2 - d_h) / 3.0

    scale = np.maximum(np.maximum(np.maximum(np.abs(f_p), np.abs(f_m)),
                                  np.abs(f_c)), 1e-300)
    error = np.abs(value - d_h2) + 4.0 * _EPS * scale / h

    second_h = np.abs(f_p - 2.0 * f_c + f_m) / h
    second_h2 = np.abs(f_p2 - 2.0 * f_c + f_m2) / (0.5 * h)
    nonsmooth = ((second_h > 64.0 * _EPS * scale / h)
                 & (second_h2 > 0.7 * second_h))
    gap = 0.5 * np.abs((f_p2 - f_c) / (0.5 * h) - (f_c - f_m2) / (0.5 * h))
    error = np.where(nonsmooth, np.maximum(error, gap), error)
    return value, error, nonsmooth


def differentiate(f: Callable[[float], float], x: float,
                  step: float | None = None) -> DerivativeEstimate:
    """``richardson`` on f at the five points of ``stencil(x, step)``; the
    default step follows the policy ``h = max(1e-5, 1e-5 * |x|)``."""
    h, points = stencil(x, step)
    if h <= 0:
        raise ConstructionError("differentiation step must be positive")
    value, error, nonsmooth = richardson(h, *[_probe(f, p) for p in points])
    return DerivativeEstimate(float(value), float(error), bool(nonsmooth))


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


def bisect_many(f, targets, lower, upper, tol: float) -> np.ndarray:
    """The midpoints of the brackets ``[lower[k], upper[k]]`` of
    ``f(x) = targets[k]``, f nondecreasing, halved together at most 200
    times by one call of the array map ``f`` per halving, on the brackets
    still wider than ``tol`` whose midpoint lies strictly inside. A value
    below its target moves the lower end, any other (NaN too) the upper."""
    lo = np.array(lower, dtype=float)
    hi = np.array(upper, dtype=float)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero((hi - lo > tol) & (lo < mid) & (mid < hi))
        if not live.size:
            break
        below = f(mid[live]) < targets[live]
        lo[live[below]] = mid[live[below]]
        hi[live[~below]] = mid[live[~below]]
    return 0.5 * (lo + hi)


def invert_monotone(f: Callable[[float], float], target: float,
                    lower: float, upper: float, *, tol: float = 1e-12,
                    f_lower: float | None = None,
                    f_upper: float | None = None) -> float:
    """Solve f(x) = target for nondecreasing f: ``bisect_many`` on one
    target, calling the scalar f once per halving.

    The bracket must be finite and is trusted: ``f(lower) <= target`` and
    ``f(upper) >= target`` up to roundoff. Bisection runs until the bracket
    width drops below ``tol`` (absolute, in x).
    """
    if not (math.isfinite(lower) and math.isfinite(upper) and lower <= upper):
        raise ConstructionError(
            f"invert_monotone needs a finite ordered bracket, got [{lower}, {upper}]")
    f_lo = f(lower) if f_lower is None else f_lower
    f_hi = f(upper) if f_upper is None else f_upper
    if f_lo > target and not math.isclose(f_lo, target, rel_tol=1e-9, abs_tol=1e-9):
        raise ConstructionError("bracket does not contain the target from below")
    if f_hi < target and not math.isclose(f_hi, target, rel_tol=1e-9, abs_tol=1e-9):
        raise ConstructionError("bracket does not contain the target from above")
    return float(bisect_many(lambda x: f(x.item()), np.array([target]),
                             [lower], [upper], tol)[0])
