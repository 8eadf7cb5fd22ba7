"""Closed-form references for the builtin signal and kernel families, and
the point-by-point loops and the scalar quadrature the package once wrote
out.

Each family states its formulas once in the package, as array forms; the
scalar methods are those forms at one point. These are the per-point
scalar bodies the families once carried, written out on Python floats with
``math``, ``bisect`` and ``**``. The tests require the array forms (and so
the scalar methods) to equal them bit for bit, error texts included.
"""

import bisect
import heapq
import math
from typing import Callable

import numpy as np

from seqscreen import numerics
from seqscreen.errors import (ConstructionError, DomainError,
                              EvaluationError, QuadratureError)
from seqscreen.model_core import (_BETAINC_EPS, _BETAINC_MAX_TERMS,
                                  _LENTZ_TINY, _LOG_SQRT_2PI, _stirling_gap)
from seqscreen.numerics import (_GAUSS_CENTRE_WEIGHT, _GK_CENTRE_WEIGHT,
                                Interval, _ordered, kahan_prefix)

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# signals: (cdf, sf, pdf), each on one point of the support


def signal_forms(signal):
    if signal.family == "relabeled":
        return _relabeled_signal(signal)
    return {"uniform": _uniform, "beta": _beta,
            "table": _table_signal}[signal.family](signal)


def _uniform(signal):
    lo, hi = signal.support.as_tuple()
    return (lambda v: (v - lo) / signal.support.width,
            lambda v: (hi - v) / signal.support.width,
            lambda v: 1.0 / signal.support.width)


def _beta(signal):
    a, b = signal.alpha, signal.beta
    lo, width = signal.support.lower, signal.support.width
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def unit(v):
        return (v - lo) / width

    def pdf(v):
        x = unit(v)
        if x == 0.0 or x == 1.0:
            if (a if x == 0.0 else b) < 1:
                raise DomainError(
                    f"beta density unbounded at the support endpoint v={v!r}")
            return (math.exp(log_norm) * x ** (a - 1.0)
                    * (1.0 - x) ** (b - 1.0) / width)
        log_pdf = (log_norm + (a - 1.0) * math.log(x)
                   + (b - 1.0) * math.log1p(-x))
        return math.exp(log_pdf) / width

    return (lambda v: betainc(a, b, unit(v)),
            lambda v: betainc(b, a, 1.0 - unit(v)),
            pdf)


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), by the modified Lentz
    continued fraction (Lentz 1976; Numerical Recipes, section 6.4).

    Above x = (a + 1)/(a + b + 2) it takes 1 - I_{1-x}(b, a), where the
    fraction converges fast. The prefactor x^a (1-x)^b / (a B(a, b)) is
    expanded about x0 = a/(a + b), so large shapes cancel no lgamma terms.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    swap = x >= (a + 1.0) / (a + b + 2.0)
    p, q, t = (b, a, 1.0 - x) if swap else (a, b, x)
    t0, s0 = p / (p + q), q / (p + q)
    log_front = (p * (math.log1p((t - t0) / t0) if t > 0.5 * t0
                      else math.log(t / t0))
                 + q * math.log1p((t0 - t) / s0)
                 + 0.5 * math.log(p * s0) - _LOG_SQRT_2PI
                 - _stirling_gap(p) - _stirling_gap(q) + _stirling_gap(p + q))
    # Lentz's guard turns a zero denominator into a tiny one
    c, d = 1.0, 1.0 / ((1.0 - (p + q) * t / (p + 1.0)) or _LENTZ_TINY)
    h = d
    for m in range(1, _BETAINC_MAX_TERMS + 1):
        # one step takes the even, then the odd, partial numerator
        k = p + 2 * m
        num = m * (q - m) * t / ((k - 1.0) * k)
        d = 1.0 / ((1.0 + num * d) or _LENTZ_TINY)
        c = (1.0 + num / c) or _LENTZ_TINY
        h *= c * d
        num = -(p + m) * (p + q + m) * t / (k * (k + 1.0))
        d = 1.0 / ((1.0 + num * d) or _LENTZ_TINY)
        c = (1.0 + num / c) or _LENTZ_TINY
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _BETAINC_EPS:
            front = math.exp(log_front) * h / p
            return 1.0 - front if swap else front
    raise EvaluationError(
        f"regularized incomplete beta did not converge in "
        f"{_BETAINC_MAX_TERMS} terms at (a, b, x) = ({a!r}, {b!r}, {x!r})")


def _table_signal(signal):
    params = signal.params()
    nodes, raw = params["nodes"], params["densities"]
    cells = [0.5 * (raw[i] + raw[i + 1]) * (nodes[i + 1] - nodes[i])
             for i in range(len(nodes) - 1)]
    total = math.fsum(cells)
    dens = [y / total for y in raw]
    cells = [c / total for c in cells]
    cdf_at = kahan_prefix(cells)
    sf_at = kahan_prefix(reversed(cells))[::-1]

    def cell(v):
        k = bisect.bisect_right(nodes, v) - 1
        return min(max(k, 0), len(nodes) - 2)

    def pdf(v):
        k = cell(v)
        w = (v - nodes[k]) / (nodes[k + 1] - nodes[k])
        return (1.0 - w) * dens[k] + w * dens[k + 1]

    def cdf(v):
        k = cell(v)
        dx = v - nodes[k]
        slope = (dens[k + 1] - dens[k]) / (nodes[k + 1] - nodes[k])
        return min(1.0, cdf_at[k] + (dens[k] * dx + 0.5 * slope * dx * dx))

    def sf(v):
        k = cell(v)
        dx = nodes[k + 1] - v
        slope = (dens[k] - dens[k + 1]) / (nodes[k + 1] - nodes[k])
        return min(1.0, sf_at[k + 1]
                   + (dens[k + 1] * dx + 0.5 * slope * dx * dx))

    return cdf, sf, pdf


def _relabeled_signal(signal):
    rel = signal.rel
    cdf, sf, pdf = signal_forms(signal.base)

    def density(w):
        v = rel.inverse(w)
        return pdf(v) / rel.phi_prime(v)

    return (lambda w: cdf(rel.inverse(w)), lambda w: sf(rel.inverse(w)),
            density)


# ---------------------------------------------------------------------------
# kernels: (cdf, pdf, cdf_dv), each on one (v, V) pair


def kernel_forms(kernel):
    if kernel.family == "relabeled":
        return _relabeled_kernel(kernel)
    return {"additive_noise": _additive, "power": _power,
            "exp_tilt": _exp_tilt, "table": _table_kernel}[
                kernel.family](kernel)


def _noise(name):
    if name == "normal":
        return (lambda x: 0.5 * math.erfc(-x / _SQRT2),
                lambda x: _INV_SQRT_2PI * math.exp(-0.5 * x * x))
    if name == "logistic":
        def cdf(x):
            if x >= 0.0:
                return 1.0 / (1.0 + math.exp(-x))
            e = math.exp(x)
            return e / (1.0 + e)

        def pdf(x):
            e = math.exp(-abs(x))
            return e / (1.0 + e) ** 2

        return cdf, pdf
    return (lambda x: 0.5 * math.exp(x) if x < 0.0
            else 1.0 - 0.5 * math.exp(-x),
            lambda x: 0.5 * math.exp(-abs(x)))


def _additive(kernel):
    cdf, pdf = _noise(kernel.noise)
    scale = kernel.scale

    def density(v, V):
        return pdf((V - v) / scale) / scale

    return (lambda v, V: cdf((V - v) / scale), density,
            lambda v, V: -density(v, V))


def _power(kernel):
    return (lambda v, V: V ** v, lambda v, V: v * V ** (v - 1.0),
            lambda v, V: math.log(V) * V ** v)


def _exp_tilt(kernel):
    def cdf(v, V):
        if abs(v) < 1e-5:
            # H = V * exp(v(V-1)/2 + v^2 (V^2-1)/24 + O(v^3))
            return V * math.exp(0.5 * v * (V - 1.0)
                                + v * v * (V * V - 1.0) / 24.0)
        return math.expm1(v * V) / math.expm1(v)

    def pdf(v, V):
        if abs(v) < 1e-300:
            return 1.0
        return v * math.exp(v * V) / math.expm1(v)

    def cdf_dv(v, V):
        if abs(v) < 1e-5:
            return cdf(v, V) * (0.5 * (V - 1.0) + v * (V * V - 1.0) / 12.0)
        em_v = math.expm1(v)
        return ((V * math.exp(v * V) * em_v
                 - math.expm1(v * V) * math.exp(v)) / (em_v * em_v))

    return cdf, pdf, cdf_dv


def _table_kernel(kernel):
    params = kernel.params()
    v_nodes, V_nodes, H = params["v_nodes"], params["V_nodes"], params["H"]
    lo, hi = kernel.support.as_tuple()

    def locate(nodes, x):
        k = bisect.bisect_right(nodes, x) - 1
        k = min(max(k, 0), len(nodes) - 2)
        return k, (x - nodes[k]) / (nodes[k + 1] - nodes[k])

    def corners(v, V):
        i, a = locate(v_nodes, v)
        j, b = locate(V_nodes, V)
        return (i, j, a, b,
                H[i][j], H[i][j + 1], H[i + 1][j], H[i + 1][j + 1])

    def cdf(v, V):
        if V <= lo:
            return 0.0
        if V >= hi:
            return 1.0
        _, _, a, b, h00, h01, h10, h11 = corners(v, V)
        return ((1 - a) * ((1 - b) * h00 + b * h01)
                + a * ((1 - b) * h10 + b * h11))

    def pdf(v, V):
        _, j, a, _, h00, h01, h10, h11 = corners(v, V)
        return ((1 - a) * (h01 - h00) + a * (h11 - h10)) / (
            V_nodes[j + 1] - V_nodes[j])

    def cdf_dv(v, V):
        i, _, _, b, h00, h01, h10, h11 = corners(v, V)
        return ((1 - b) * (h10 - h00) + b * (h11 - h01)) / (
            v_nodes[i + 1] - v_nodes[i])

    return cdf, pdf, cdf_dv


def _relabeled_kernel(kernel):
    rel = kernel.rel
    cdf, pdf, cdf_dv = kernel_forms(kernel.base)

    def slope(w, V):
        v = rel.inverse(w)
        return cdf_dv(v, V) / rel.phi_prime(v)

    return (lambda w, V: cdf(rel.inverse(w), V),
            lambda w, V: pdf(rel.inverse(w), V), slope)


# ---------------------------------------------------------------------------
# point-by-point loops


def invert_monotone(f: Callable[[float], float], target: float,
                    lower: float, upper: float, *, tol: float = 1e-12,
                    f_lower: float | None = None,
                    f_upper: float | None = None) -> float:
    """Solve f(x) = target for nondecreasing f by plain bisection on
    floats, one scalar f call per halving, as ``numerics`` once did."""
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


# ---------------------------------------------------------------------------
# scalar quadrature: one heap of panels per integral, one Kronrod-15 panel
# at a time. The give-up limits are read from ``numerics`` when they are
# met, so a test that patches them there patches them here too.

# the rule's nodes, and (Kronrod weight, Gauss weight or None) per node
# pair, as Python floats
_GK_NODES = tuple(numerics._GK_NODES.tolist())
_G1, _G3, _G5 = numerics._GAUSS_WEIGHTS.tolist()
_GK_RULE = tuple(zip(numerics._GK_WEIGHTS.tolist(),
                     (None, _G1, None, _G3, None, _G5, None)))


def _kronrod(fx, halfwidth):
    """Kronrod-15 estimate and error indicator of a panel from its values at
    the centre, then at ``centre + dx_i`` and ``centre - dx_i`` per node i.
    Elementwise, so floats and array columns give the same bits."""
    kron = _GK_CENTRE_WEIGHT * fx[0]
    gauss = _GAUSS_CENTRE_WEIGHT * fx[0]
    for (kw, gw), plus, minus in zip(_GK_RULE, fx[1::2], fx[2::2]):
        pair = plus + minus
        kron = kron + kw * pair
        if gw is not None:
            gauss = gauss + gw * pair
    return kron * halfwidth, abs(kron - gauss) * halfwidth


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Kronrod-15 panel on [a, b]; returns (estimate, error_indicator)."""
    centre = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    fx = [f(centre)]
    for node in _GK_NODES:
        dx = halfwidth * node
        fx += (f(centre + dx), f(centre - dx))
    return _kronrod(fx, halfwidth)


class _Refinement:
    """One integral's adaptive state: its panel heap, worst-first order,
    stopping test, give-up rules and final left-to-right sum."""

    __slots__ = ("heap", "value", "error", "sign", "seq", "panels", "worst")

    def __init__(self, a: float, b: float, value: float, err: float,
                 sign: float):
        self.heap = [[-err, 0, a, b, 0, value, err]]
        self.value, self.error, self.sign = value, err, sign
        self.seq = 1
        self.panels = 1

    def split(self, rel_tol: float,
              abs_tol: float) -> tuple[float, float, float] | None:
        """None once the error estimate meets the tolerance; otherwise pop
        the worst panel and return ``(a, mid, b)`` to refine it."""
        if not self.error > max(abs_tol, rel_tol * abs(self.value)):
            return None
        worst = heapq.heappop(self.heap)
        _, _, a, b, depth, _, _ = worst
        if depth >= numerics._MAX_DEPTH:
            raise QuadratureError(
                f"quadrature did not converge after {numerics._MAX_DEPTH} "
                f"bisections near [{a:.6g}, {b:.6g}]",
                partial=self.sign * self.value, error_estimate=self.error)
        if self.panels >= numerics._MAX_INTERVALS:
            raise QuadratureError(
                f"quadrature exceeded {numerics._MAX_INTERVALS} panels",
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


def integrate(f: Callable[[float], float],
              domain: Interval | tuple[float, float],
              rel_tol: float = 1e-10,
              abs_tol: float = 1e-14) -> tuple[float, float]:
    """Adaptively integrate the scalar ``f`` over the finite ``domain``,
    one panel at a time, worst panel first; ``numerics.integrate`` and
    ``numerics.integrate_many`` must equal it bit for bit."""
    if isinstance(domain, Interval):
        domain = domain.as_tuple()
    lower, upper, sign = _ordered(*domain)
    if lower == upper:
        return 0.0, 0.0
    ref = _Refinement(lower, upper, *_gk15(f, lower, upper), sign)
    while (cut := ref.split(rel_tol, abs_tol)) is not None:
        a, mid, b = cut
        ref.absorb(_gk15(f, a, mid) + _gk15(f, mid, b))
    return ref.result()
