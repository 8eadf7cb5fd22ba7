"""Screening environments: signal distributions, conditional valuation
kernels, and the primitive evaluations every checker builds on.

A screening model pairs a signal distribution (cdf F with density f on a
finite interval) with a family of conditional valuation distributions: for
each signal v, a cdf H_v with density h_v on a common value support whose
endpoints may be infinite. Higher signals shift value distributions upward,
so dH_v(V)/dv < 0 at interior points is a standing requirement; evaluations
that break it are flagged in the result rather than silently accepted.

Infinite value supports are handled by truncating a fixed tail mass per side
before integrating; every report downstream records the truncation actually
used. Signal families expose the survival function directly because hazard
work near the upper endpoint dies by cancellation if survival is recovered
from 1 - F.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    EvaluationError,
    IntegrabilityError,
    QuadratureError,
)
from .numerics import (Interval, _pointwise, differentiate, integrate_many,
                       kahan_prefix)

__all__ = [
    "GridSpec",
    "ToleranceConfig",
    "DEFAULT_GRID",
    "DEFAULT_TOLERANCES",
    "resolve_config",
    "SignalDistribution",
    "UniformSignal",
    "BetaSignal",
    "TableSignal",
    "ValuationKernel",
    "AdditiveNoiseKernel",
    "PowerKernel",
    "ExpTiltKernel",
    "TableKernel",
    "ScreeningModel",
    "KernelEval",
    "ModelValidation",
    "eval_kernel",
    "conditional_mean",
    "conditional_mean_derivative",
    "conditional_mean_many",
    "conditional_mean_derivative_many",
    "validate_model",
    "make_signal",
    "make_kernel",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _bound_repr(x: float):
    """Support endpoint for report dicts; infinities become strings so the
    result stays strict JSON."""
    if math.isfinite(x):
        return x
    return "inf" if x > 0 else "-inf"


def _exact_map(fn, *arrays) -> np.ndarray:
    """``fn`` applied to broadcast arrays point by point, as Python floats.

    Array forms take their transcendentals through ``math`` functions and
    ``pow`` one point at a time, so a point's value does not depend on the
    array around it; numpy's vectorised exp, log and pow can differ in the
    last place."""
    return np.frompyfunc(fn, len(arrays), 1)(*arrays).astype(float)


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_BETAINC_MAX_TERMS = 10_000
_BETAINC_EPS = 1e-15
_LENTZ_TINY = 1e-300
_TILT_SCALED = 0.5 * math.log(np.finfo(float).max)  # expm1(v)^2 overflows


def _stirling_gap(z: float) -> float:
    """lgamma(z) less its Stirling form (z - 1/2) log z - z + log sqrt(2 pi);
    the asymptotic series from z = 20 on, where five terms reach 1e-17."""
    if z < 20.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _LOG_SQRT_2PI
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680
                                                      - r / 1188)))) / z


def _betainc_many(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b) at every point of an array, by
    the modified Lentz continued fraction (Lentz 1976; Numerical Recipes,
    section 6.4).

    Above x = (a + 1)/(a + b + 2) a point takes 1 - I_{1-x}(b, a), where
    the fraction converges fast. The prefactor x^a (1-x)^b / (a B(a, b))
    is expanded about x0 = a/(a + b), so large shapes cancel no lgamma
    terms. Each point's value is the one float arithmetic on that point
    alone gives: the recurrences run elementwise, a point leaves at its own
    first converged step, and its logs and exp go through ``math``.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x <= 0.0, 0.0, 1.0)
    inner = np.flatnonzero(~((x <= 0.0) | (x >= 1.0)))
    if inner.size:
        # float arithmetic overflows to inf and makes NaN without a word
        with np.errstate(over="ignore", invalid="ignore"):
            out.flat[inner] = _betainc_inner(a, b, x.flat[inner])
    return out


def _betainc_inner(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """I_x(a, b) at the points of a flat array that are not at or past
    an end of [0, 1], each orientation's points in one batch."""
    swap = x >= (a + 1.0) / (a + b + 2.0)
    out = np.empty(x.shape)
    running = []
    for flipped, pick in ((False, ~swap), (True, swap)):
        if not pick.any():
            continue
        p, q, t = (b, a, 1.0 - x[pick]) if flipped else (a, b, x[pick])
        front, stuck = _betainc_front(p, q, t)
        out[pick] = 1.0 - front if flipped else front
        running.extend(np.flatnonzero(pick)[stuck].tolist())
    if running:
        raise EvaluationError(
            f"regularized incomplete beta did not converge in "
            f"{_BETAINC_MAX_TERMS} terms at (a, b, x) = "
            f"({a!r}, {b!r}, {float(x[min(running)])!r})")
    return out


def _betainc_front(p: float, q: float, t: np.ndarray):
    """x^p (1-x)^q / (p B(p, q)) times the continued fraction at each x of
    ``t``, and the positions of the points whose fraction did not converge.
    """
    t0, s0 = p / (p + q), q / (p + q)
    if t0 == 0.0 or s0 == 0.0:  # the pointwise form divides by both
        raise ZeroDivisionError("float division by zero")
    near = t > 0.5 * t0
    log_t = np.empty(t.shape)
    log_t[near] = _exact_map(math.log1p, (t[near] - t0) / t0)
    log_t[~near] = _exact_map(math.log, t[~near] / t0)
    log_front = (p * log_t + q * _exact_map(math.log1p, (t0 - t) / s0)
                 + 0.5 * math.log(p * s0) - _LOG_SQRT_2PI
                 - _stirling_gap(p) - _stirling_gap(q) + _stirling_gap(p + q))
    h, stuck = _lentz(p, q, t)
    return _exact_map(math.exp, log_front) * h / p, stuck


def _lentz(p: float, q: float, t: np.ndarray):
    """The incomplete beta's continued fraction at each t, each point
    stopping at its own first step with |delta - 1| <= eps; and the
    positions of the points still running after the last term."""
    h_end = np.empty(t.shape)
    live = np.arange(t.size)
    d = 1.0 / _lentz_guard(1.0 - (p + q) * t / (p + 1.0))
    c, h = np.ones(t.shape), d
    for m in range(1, _BETAINC_MAX_TERMS + 1):
        # one step takes the even, then the odd, partial numerator; the
        # shape-only factors are Python floats, in the pointwise order
        k = p + 2 * m
        num = m * (q - m) * t / ((k - 1.0) * k)
        d = 1.0 / _lentz_guard(1.0 + num * d)
        c = _lentz_guard(1.0 + num / c)
        h = h * (c * d)
        num = -(p + m) * (p + q + m) * t / (k * (k + 1.0))
        d = 1.0 / _lentz_guard(1.0 + num * d)
        c = _lentz_guard(1.0 + num / c)
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) <= _BETAINC_EPS
        if done.any():
            h_end[live[done]] = h[done]
            going = ~done
            live, t, c, d, h = (arr[going] for arr in (live, t, c, d, h))
            if not live.size:
                break
    return h_end, live


def _lentz_guard(den: np.ndarray) -> np.ndarray:
    """Lentz's guard, in place: a zero denominator becomes a tiny one."""
    den[den == 0.0] = _LENTZ_TINY
    return den


def _betainc(a: float, b: float, x: float) -> float:
    """I_x(a, b) at one point: the array form on a one-point array."""
    return float(_betainc_many(a, b, np.array([x], dtype=float))[0])


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class GridSpec:
    """Evaluation lattice sizes and support-edge handling.

    ``endpoint_margin`` is the fraction of the (effective) support width kept
    clear of each finite endpoint; ``tail_mass_cut`` is the probability mass
    dropped per infinite tail before integrating or gridding.
    """

    v_points: int = 129
    V_points: int = 129
    endpoint_margin: float = 1e-4
    tail_mass_cut: float = 1e-9

    def __post_init__(self):
        if self.v_points < 2 or self.V_points < 2:
            raise ConstructionError("grids need at least 2 points per axis")
        if not 0.0 < self.endpoint_margin < 0.5:
            raise ConstructionError("endpoint_margin must lie in (0, 0.5)")
        if not 0.0 < self.tail_mass_cut <= 1e-3:
            raise ConstructionError("tail_mass_cut must lie in (0, 1e-3]")

    def describe(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances shared by the checkers.

    ``monotonicity_slack`` is the absolute slack for monotone scans;
    ``quadrature_rel`` the relative tolerance handed to the integrator;
    the derivative step policy is ``max(floor, scale * |x|)``.
    """

    monotonicity_slack: float = 1e-8
    quadrature_rel: float = 1e-10
    derivative_step_floor: float = 1e-5
    derivative_step_scale: float = 1e-5

    def __post_init__(self):
        # A NaN slack passes every scan (no move exceeds it) and an infinite
        # one fails the FOSD check everywhere, so each field must be finite.
        for f in dataclasses.fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise ConstructionError(
                    f"{f.name} must be strictly positive and finite")

    def derivative_step(self, x: float) -> float:
        return max(self.derivative_step_floor,
                   self.derivative_step_scale * abs(x))

    def describe(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_GRID = GridSpec()
DEFAULT_TOLERANCES = ToleranceConfig()


def resolve_config(grid: GridSpec | None,
                   tolerances: ToleranceConfig | None) -> tuple[GridSpec, ToleranceConfig]:
    return grid or DEFAULT_GRID, tolerances or DEFAULT_TOLERANCES


# ---------------------------------------------------------------------------
# noise families for the additive kernel


class _Noise:
    def ppf(self, p: float) -> float:
        raise NotImplementedError

    def cdf_pdf(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """cdf and pdf on an array."""
        raise NotImplementedError

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        """The cdf alone on an array, equal to ``cdf_pdf``'s bit for bit;
        a family whose cdf is cheaper than both overrides it."""
        return self.cdf_pdf(x)[0]


class _NormalNoise(_Noise):
    def ppf(self, p):
        from scipy.special import ndtri  # SciPy loads for this quantile only
        return float(ndtri(p))

    def cdf_pdf(self, x):
        return (self.cdf_array(x),
                _INV_SQRT_2PI * _exact_map(math.exp, -0.5 * x * x))

    def cdf_array(self, x):
        return 0.5 * _exact_map(math.erfc, -x / _SQRT2)


class _LogisticNoise(_Noise):
    def ppf(self, p):
        return math.log(p / (1.0 - p))

    def cdf_pdf(self, x):
        e = _exact_map(math.exp, -np.abs(x))
        return self._cdf(x, e), e / _exact_map(pow, 1.0 + e, 2)

    def cdf_array(self, x):
        return self._cdf(x, _exact_map(math.exp, -np.abs(x)))

    @staticmethod
    def _cdf(x, e):
        # exp(-|x|) is the exponential both cdf branches take
        return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


class _LaplaceNoise(_Noise):
    def ppf(self, p):
        if p < 0.5:
            return math.log(2.0 * p)
        return -math.log(2.0 * (1.0 - p))

    def cdf_pdf(self, x):
        e = _exact_map(math.exp, -np.abs(x))
        return np.where(x < 0.0, 0.5 * e, 1.0 - 0.5 * e), 0.5 * e


_NOISE_FAMILIES: dict[str, _Noise] = {
    "normal": _NormalNoise(),
    "logistic": _LogisticNoise(),
    "laplace": _LaplaceNoise(),
}


# ---------------------------------------------------------------------------
# signal distributions


class _Family:
    """A named family on ``support``; ``describe`` serializes it for
    reports and model files, with the subclass's ``params`` after the
    family and support."""

    family = "abstract"

    def params(self) -> dict:
        return {}

    def describe(self) -> dict:
        return {"family": self.family,
                "support": [_bound_repr(self.support.lower),
                            _bound_repr(self.support.upper)],
                **self.params()}


class SignalDistribution(_Family):
    """Scalar signal with cdf/pdf/survival on a finite closed support. A
    family defines ``_cdf_array``, ``_sf_array`` and ``_pdf_array`` on
    points of the support, and the scalar forms are those at one point."""

    def __init__(self, support: Interval):
        if not support.bounded:
            raise ConstructionError("signal support must be a finite interval")
        self.support = support

    def cdf(self, v: float) -> float:
        return self._one(self._cdf_array, v)

    def sf(self, v: float) -> float:
        """Survival 1 - F, computed without cancellation near the top."""
        return self._one(self._sf_array, v)

    def pdf(self, v: float) -> float:
        return self._one(self._pdf_array, v)

    def _one(self, array_form, v: float) -> float:
        self._require_in_support(v)
        return float(array_form(np.array([v], dtype=float))[0])

    def _require_in_support(self, v: float) -> None:
        if not self.support.contains(v):
            raise DomainError(
                f"signal value {v!r} outside support "
                f"[{self.support.lower}, {self.support.upper}]")

    def cdf_many(self, v: np.ndarray) -> np.ndarray:
        """``cdf`` at every point of an array, equal to it bit for bit."""
        return self._many("cdf", v)

    def sf_many(self, v: np.ndarray) -> np.ndarray:
        """``sf`` at every point of an array, equal to it bit for bit."""
        return self._many("sf", v)

    def pdf_many(self, v: np.ndarray) -> np.ndarray:
        """``pdf`` at every point of an array, equal to it bit for bit."""
        return self._many("pdf", v)

    def _many(self, name: str, v) -> np.ndarray:
        # Only a family that defines the array form itself uses it: a
        # subclass may override the scalar form, so it loops that instead.
        v = np.asarray(v, dtype=float)
        array_form = vars(type(self)).get(f"_{name}_array")
        if array_form is None:
            return _pointwise(getattr(self, name), v)[0]
        inside = (self.support.lower <= v) & (v <= self.support.upper)
        if not inside.all():
            self._require_in_support(float(v[~inside][0]))
        return array_form(self, v)


class UniformSignal(SignalDistribution):
    """Uniform signal on [lower, upper]."""

    family = "uniform"

    def _cdf_array(self, v):
        return (v - self.support.lower) / self.support.width

    def _sf_array(self, v):
        return (self.support.upper - v) / self.support.width

    def _pdf_array(self, v):
        return np.full(v.shape, 1.0 / self.support.width)


class BetaSignal(SignalDistribution):
    """Beta(alpha, beta) signal rescaled onto [lower, upper]."""

    family = "beta"

    def __init__(self, alpha: float, beta: float,
                 support: Interval = Interval(0.0, 1.0)):
        super().__init__(support)
        if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
            raise ConstructionError(
                "beta shape parameters must be positive and finite")
        self.alpha = float(alpha)
        self.beta = float(beta)
        try:
            self._log_norm = (math.lgamma(alpha + beta) - math.lgamma(alpha)
                              - math.lgamma(beta))
        except OverflowError:
            raise ConstructionError(
                "beta shapes too large: the log normalizing constant "
                "overflows") from None

    def params(self):
        return {"alpha": self.alpha, "beta": self.beta}

    def _unit(self, v):
        return (v - self.support.lower) / self.support.width

    def _cdf_array(self, v):
        return _betainc_many(self.alpha, self.beta, self._unit(v))

    def _sf_array(self, v):
        # Regularized incomplete beta symmetry keeps the upper tail accurate.
        return _betainc_many(self.beta, self.alpha, 1.0 - self._unit(v))

    def _pdf_array(self, v):
        x = self._unit(v)
        inner = (0.0 < x) & (x < 1.0)
        out = np.empty(x.shape)
        xi = x[inner]
        log_pdf = (self._log_norm
                   + (self.alpha - 1.0) * _exact_map(math.log, xi)
                   + (self.beta - 1.0) * _exact_map(math.log1p, -xi))
        out[inner] = _exact_map(math.exp, log_pdf) / self.support.width
        x = x[~inner]
        # at an endpoint a shape below 1 makes it unbounded, one above 1
        # makes it 0, and one equal to 1 leaves a finite constant
        shape = np.where(x == 0.0, self.alpha, self.beta)
        if (shape < 1).any():
            raise DomainError(
                f"beta density unbounded at the support endpoint "
                f"v={float(v[~inner][shape < 1][0])!r}")
        flat = shape == 1.0
        edge = np.zeros(x.shape)
        if flat.any():
            edge[flat] = (math.exp(self._log_norm)
                          * _exact_map(pow, x[flat], self.alpha - 1.0)
                          * _exact_map(pow, 1.0 - x[flat], self.beta - 1.0)
                          / self.support.width)
        out[~inner] = edge
        return out


class TableSignal(SignalDistribution):
    """Signal defined by density values on nodes, linearly interpolated.

    The tabulated density is normalized to unit mass at construction. The
    cdf integrates the interpolant exactly (piecewise quadratic); survival is
    accumulated from the top so the upper tail keeps full relative accuracy.
    """

    family = "table"

    def __init__(self, nodes: Sequence[float], densities: Sequence[float]):
        nodes = [float(x) for x in nodes]
        dens = [float(y) for y in densities]
        if len(nodes) != len(dens) or len(nodes) < 2:
            raise ConstructionError(
                "table signal needs >= 2 matching node/density pairs")
        if not all(map(math.isfinite, nodes + dens)):
            raise ConstructionError(
                "table signal nodes and densities must be finite")
        for a, b in zip(nodes, nodes[1:]):
            if not b > a:
                raise ConstructionError("table nodes must be strictly increasing")
        if any(y < 0 for y in dens):
            raise ConstructionError("table densities must be nonnegative")
        if any(y <= 0 for y in dens[1:-1]):
            raise ConstructionError("table density must be positive at interior nodes")
        super().__init__(Interval(nodes[0], nodes[-1]))
        cells = [0.5 * (dens[i] + dens[i + 1]) * (nodes[i + 1] - nodes[i])
                 for i in range(len(nodes) - 1)]
        total = math.fsum(cells)
        if total <= 0:
            raise ConstructionError("table density has zero total mass")
        self._nodes = np.array(nodes)
        self._raw_dens = dens
        self._dens = np.array(dens) / total
        cells = [c / total for c in cells]
        # Forward and backward accumulations, each compensated.
        self._cdf_at = np.array(kahan_prefix(cells))
        self._sf_at = np.array(kahan_prefix(reversed(cells))[::-1])

    def params(self):
        # Densities are echoed as given; normalization stays internal so that
        # writing and re-reading a model reproduces it exactly.
        return {"nodes": self._nodes.tolist(), "densities": list(self._raw_dens)}

    def _cells(self, v):
        """Cell index and its end nodes and densities, per point."""
        nodes, dens = self._nodes, self._dens
        k = np.clip(np.searchsorted(nodes, v, side="right") - 1, 0,
                    len(nodes) - 2)
        return k, nodes[k], nodes[k + 1], dens[k], dens[k + 1]

    def _pdf_array(self, v):
        _, x0, x1, f0, f1 = self._cells(v)
        w = (v - x0) / (x1 - x0)
        return (1.0 - w) * f0 + w * f1

    def _cdf_array(self, v):
        k, x0, x1, f0, f1 = self._cells(v)
        dx = v - x0
        slope = (f1 - f0) / (x1 - x0)
        return np.minimum(1.0, self._cdf_at[k]
                          + (f0 * dx + 0.5 * slope * dx * dx))

    def _sf_array(self, v):
        k, x0, x1, f0, f1 = self._cells(v)
        dx = x1 - v
        slope = (f0 - f1) / (x1 - x0)
        return np.minimum(1.0, self._sf_at[k + 1]
                          + (f1 * dx + 0.5 * slope * dx * dx))


# ---------------------------------------------------------------------------
# valuation kernels


class ValuationKernel(_Family):
    """Family of conditional value distributions H_v on a common support.

    A builtin family defines ``_fields(v, V)``, its H, h and dH/dv on a
    lattice; its scalar forms are those at one point (``pdf`` and ``cdf_dv``
    at an interior value only). Other kernels override the scalars."""

    # values where the density jumps; validation's quadrature splits there
    _density_jumps: Sequence[float] = ()

    def __init__(self, support: Interval):
        self.support = support

    def cdf(self, v: float, V: float) -> float:
        return float(self._cdf_field(np.array([[v]], float),
                                     np.array([[V]], float))[0, 0])

    def pdf(self, v: float, V: float) -> float:
        return self._at_point(v, V)[1]

    def cdf_dv(self, v: float, V: float) -> float | None:
        """Signal-derivative of H_v(V); None means no analytic form."""
        return self._at_point(v, V)[2] if hasattr(self, "_fields") else None

    def _at_point(self, v: float, V: float) -> list[float]:
        self._require_interior(V)
        fields = self._fields(np.array([[v]], float), np.array([[V]], float))
        return [float(f[0, 0]) for f in fields]

    def quantile(self, v: float, p: float) -> float:
        """Conditional p-quantile. The package asks for one only at an
        infinite value endpoint, so a family with one overrides it."""
        raise NotImplementedError(
            f"{self.family} kernel must override quantile()")

    def check_signal_support(self, support: Interval) -> None:
        """Reject signal supports this family cannot condition on."""

    def _require_interior(self, V: float) -> None:
        if not self.support.contains(V, closed=False):
            raise DomainError(
                f"value {V!r} not interior to "
                f"({self.support.lower}, {self.support.upper})")

    def eval_lattice(self, model: ScreeningModel, v: np.ndarray,
                     V: np.ndarray, tol: ToleranceConfig):
        """H, h and dHdv on the lattice spanned by the column ``v`` and the
        row ``V``, plus the mask of points whose evaluation failed.

        Failed points (a signal outside the model's support, a value not
        interior to the kernel's, or a DomainError or EvaluationError from
        the evaluators) hold NaN. A builtin family evaluates its
        ``_fields(v, V)`` once on the in-domain sub-lattice; every other
        kernel calls eval_kernel point by point.
        """
        shape = (v.shape[0], V.shape[1])
        if self._exact_arrays():
            H, h, dHdv = (np.full(shape, np.nan) for _ in range(3))
            s = model.signal.support
            rows = (s.lower <= v[:, 0]) & (v[:, 0] <= s.upper)
            cols = (self.support.lower < V[0]) & (V[0] < self.support.upper)
            block = np.ix_(rows, cols)
            H[block], h[block], dHdv[block] = self._fields(v[rows],
                                                           V[:, cols])
            return H, h, dHdv, ~(rows[:, None] & cols[None, :])

        def fields(vi, Vj):
            ke = eval_kernel(model, vi, Vj, tol)
            return ke.H, ke.h, ke.dHdv
        out, errors = _pointwise(fields, v, V,
                                 record=(DomainError, EvaluationError),
                                 fill=(np.nan,) * 3)
        failed = np.zeros(shape, dtype=bool)
        failed.flat[list(errors)] = True
        return (*np.moveaxis(out.reshape(shape + (3,)), -1, 0).copy(), failed)

    def cdf_many(self, v, V) -> np.ndarray:
        """``cdf`` at every point of the broadcast signals ``v`` and values
        ``V``: the class's own ``_cdf_field``, else ``cdf`` point by point."""
        if self._exact_arrays():
            return self._cdf_field(v, V)
        return _pointwise(self.cdf, v, V)[0]

    def pdf_many(self, v, V) -> np.ndarray:
        """``pdf`` at every point, as ``cdf_many`` reads ``cdf``."""
        if self._exact_arrays():
            return self._fields(v, V)[1]
        return _pointwise(self.pdf, v, V)[0]

    def pdf_cdf_dv_many(self, model: ScreeningModel, v, V, tolerances=None):
        """h and dH/dv as ``eval_kernel`` gives them: the class's own
        ``_fields`` if every value is interior (else eval_kernel's error for
        the first that is not), or ``eval_kernel`` point by point."""
        if not self._exact_arrays():
            def pair(a, b):
                ke = eval_kernel(model, a, b, tolerances)
                return ke.h, ke.dHdv
            return tuple(np.moveaxis(_pointwise(pair, v, V)[0], -1, 0))
        interior = (self.support.lower < V) & (V < self.support.upper)
        if not interior.all():
            self._require_interior(float(V[~interior][0]))
        return self._fields(v, V)[1:]

    def _exact_arrays(self) -> bool:
        """Whether this kernel's class defines ``_fields`` itself; a subclass
        of a builtin family may override the scalar evaluators, so it takes
        the scalar loop. Only the readers above and ``eval_lattice`` ask."""
        return "_fields" in vars(type(self))

    def _cdf_field(self, v, V):
        """The H of ``_fields`` alone; a family whose cdf is cheaper than
        its three fields overrides it."""
        return self._fields(v, V)[0]


class AdditiveNoiseKernel(ValuationKernel):
    """V = v + scale * noise with mean-zero noise on the whole real line.

    Noise families: normal, logistic, laplace (location is pinned at zero,
    so every member is mean-normalized by construction).
    """

    family = "additive_noise"

    def __init__(self, noise: str = "logistic", scale: float = 1.0):
        if noise not in _NOISE_FAMILIES:
            raise ConstructionError(
                f"unknown noise family {noise!r}; choose from "
                f"{sorted(_NOISE_FAMILIES)}")
        if not 0 < scale < math.inf:
            raise ConstructionError("noise scale must be positive and finite")
        super().__init__(Interval(-math.inf, math.inf))
        self.noise = noise
        self.scale = float(scale)
        self._dist = _NOISE_FAMILIES[noise]

    def params(self):
        return {"noise": self.noise, "scale": self.scale}

    def _fields(self, v, V):
        # Translation family: the signal-derivative is exactly minus the
        # density, bit for bit.
        H, f = self._dist.cdf_pdf((V - v) / self.scale)
        h = f / self.scale
        return H, h, -h

    def _cdf_field(self, v, V):
        return self._dist.cdf_array((V - v) / self.scale)

    def quantile(self, v, p):
        return v + self.scale * self._dist.ppf(p)


class PowerKernel(ValuationKernel):
    """H_v(V) = V ** v on (0, 1); requires strictly positive signals."""

    family = "power"

    def __init__(self):
        super().__init__(Interval(0.0, 1.0))

    def check_signal_support(self, support):
        if support.lower <= 0.0:
            raise ConstructionError(
                "power kernel needs a signal support with positive lower "
                f"endpoint, got {support.lower}")

    def cdf(self, v, V):
        # kept scalar: suite 3's translation check reads it below the value
        # support, where it is complex, which no float array holds
        return V ** v

    def _fields(self, v, V):
        H = _exact_map(pow, V, v)
        return (H, v * _exact_map(pow, V, v - 1.0),
                _exact_map(math.log, V) * H)

    def _cdf_field(self, v, V):
        if (V < 0.0).any():
            raise DomainError(f"value {float(V[V < 0.0][0])!r} below the "
                              "power kernel's value support")
        return _exact_map(pow, V, v)

    def quantile(self, v, p):
        return p ** (1.0 / v)


class ExpTiltKernel(ValuationKernel):
    """Exponentially tilted uniform values: h_v(V) proportional to e^(vV) on (0, 1)."""

    family = "exp_tilt"

    def __init__(self):
        super().__init__(Interval(0.0, 1.0))

    def check_signal_support(self, support):
        if support.lower < 0.0:
            raise ConstructionError(
                "exp_tilt kernel needs nonnegative signals, got lower "
                f"endpoint {support.lower}")

    def _fields(self, v, V):
        # expm1(v)^2 overflows above _TILT_SCALED, so rows there are taken
        # scaled; each form reads the other's rows at v = 0, which is safe
        large = v > _TILT_SCALED
        if large.any():
            return tuple(np.where(large, f, g) for f, g in zip(
                _tilt_scaled(np.where(large, v, 0.0), V),
                self._fields(np.where(large, 0.0, v), V)))
        vV = v * V
        e_vV = _exact_map(math.exp, vV)
        m_vV = _exact_map(math.expm1, vV)
        em_v = _exact_map(math.expm1, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            # rows with |v| < 1e-5, where expm1(v) may vanish, take the
            # expansion H = V exp(v(V-1)/2 + v^2 (V^2-1)/24 + O(v^3)) below
            H = m_vV / em_v
            h = np.where(np.abs(v) < 1e-300, 1.0, v * e_vV / em_v)
            dHdv = ((V * e_vV * em_v - m_vV * _exact_map(math.exp, v))
                    / (em_v * em_v))
        small = np.abs(v) < 1e-5
        if small.any():
            H_small = V * _exact_map(math.exp, 0.5 * v * (V - 1.0)
                                     + v * v * (V * V - 1.0) / 24.0)
            H = np.where(small, H_small, H)
            dHdv = np.where(small, H_small * (0.5 * (V - 1.0)
                                              + v * (V * V - 1.0) / 12.0),
                            dHdv)
        return H, h, dHdv

    def quantile(self, v, p):
        if abs(v) < 1e-8:
            return p
        return math.log1p(p * math.expm1(v)) / v


def _tilt_scaled(v, V):
    """The exp_tilt fields with numerator and denominator scaled by
    a = e^-v: with b = e^(v(V-1)), H = (b - a)/(1 - a), h = v b/(1 - a)
    and dH/dv = (V b (1 - a) - (b - a))/(1 - a)^2."""
    a = _exact_map(math.exp, -v)
    b = _exact_map(math.exp, v * (V - 1.0))
    near = v * V < 1.0  # b - a is a expm1(vV) there, without cancellation
    m_vV = _exact_map(math.expm1, np.where(near, v * V, 0.0))
    b_a = np.where(near, a * m_vV, b - a)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (b_a / (1.0 - a), v * b / (1.0 - a),
                (V * b * (1.0 - a) - b_a) / ((1.0 - a) * (1.0 - a)))


class TableKernel(ValuationKernel):
    """Conditional cdf tabulated on a rectangular lattice, bilinear between.

    Rows (fixed signal node) are renormalized so the cdf runs exactly from 0
    to 1 across the value lattice. The conditional density is the value-slope
    of the interpolant and the signal-derivative its signal-slope, so the
    three fields are mutually consistent by construction.
    """

    family = "table"

    def __init__(self, v_nodes: Sequence[float], V_nodes: Sequence[float],
                 H: Sequence[Sequence[float]]):
        v_nodes = [float(x) for x in v_nodes]
        V_nodes = [float(x) for x in V_nodes]
        grid = np.asarray(H, dtype=float)
        if len(v_nodes) < 2 or len(V_nodes) < 2:
            raise ConstructionError("table kernel lattice needs >= 2 nodes per axis")
        if grid.shape != (len(v_nodes), len(V_nodes)):
            raise ConstructionError(
                f"table kernel values must have shape "
                f"({len(v_nodes)}, {len(V_nodes)}), got {grid.shape}")
        if not (all(map(math.isfinite, v_nodes + V_nodes))
                and np.isfinite(grid).all()):
            raise ConstructionError(
                "table kernel nodes and values must be finite")
        for seq, label in ((v_nodes, "signal"), (V_nodes, "value")):
            for a, b in zip(seq, seq[1:]):
                if not b > a:
                    raise ConstructionError(
                        f"table kernel {label} nodes must be strictly increasing")
        if np.any(np.diff(grid, axis=1) < 0):
            raise ConstructionError(
                "table kernel rows must be nondecreasing in the value axis")
        lo = grid[:, :1]
        hi = grid[:, -1:]
        span = hi - lo
        if np.any(span <= 0):
            raise ConstructionError("table kernel rows must not be flat")
        super().__init__(Interval(V_nodes[0], V_nodes[-1]))
        self._v_nodes = np.asarray(v_nodes)
        self._V_nodes = np.asarray(V_nodes)
        self._density_jumps = V_nodes[1:-1]
        self._H = (grid - lo) / span

    def check_signal_support(self, support):
        if (support.lower < self._v_nodes[0] - 1e-12
                or support.upper > self._v_nodes[-1] + 1e-12):
            raise ConstructionError(
                "signal support exceeds the table kernel's signal lattice")

    def params(self):
        return {
            "v_nodes": self._v_nodes.tolist(),
            "V_nodes": self._V_nodes.tolist(),
            "H": self._H.tolist(),
        }

    def _cells(self, v, V):
        def locate(nodes, x):
            k = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0,
                        len(nodes) - 2)
            return k, (x - nodes[k]) / (nodes[k + 1] - nodes[k])

        i, a = locate(self._v_nodes, v)
        j, b = locate(self._V_nodes, V)
        H = self._H
        return (i, j, a, b,
                H[i, j], H[i, j + 1], H[i + 1, j], H[i + 1, j + 1])

    def _fields(self, v, V):
        i, j, a, b, h00, h01, h10, h11 = self._cells(v, V)
        dV = self._V_nodes[j + 1] - self._V_nodes[j]
        dv = self._v_nodes[i + 1] - self._v_nodes[i]
        return (((1 - a) * ((1 - b) * h00 + b * h01)
                 + a * ((1 - b) * h10 + b * h11)),
                ((1 - a) * (h01 - h00) + a * (h11 - h10)) / dV,
                ((1 - b) * (h10 - h00) + b * (h11 - h01)) / dv)

    def _cdf_field(self, v, V):
        # 0 below the value support, 1 above it (an infinite V gives NaN)
        with np.errstate(invalid="ignore"):
            H = self._fields(v, V)[0]
        return np.where(V <= self.support.lower, 0.0,
                        np.where(V >= self.support.upper, 1.0, H))


_SIGNAL_FAMILIES = {"uniform", "beta", "table"}
_KERNEL_FAMILIES = {"additive_noise", "power", "exp_tilt", "table"}


def make_signal(family: str, support: tuple[float, float] | None = None,
                **params) -> SignalDistribution:
    """Construct a builtin signal family by tag."""
    if family == "uniform":
        if support is None:
            raise ConstructionError("uniform signal needs an explicit support")
        return UniformSignal(Interval(*support))
    if family == "beta":
        alpha = params.pop("alpha", None)
        beta = params.pop("beta", None)
        if alpha is None or beta is None:
            raise ConstructionError("beta signal needs alpha and beta shapes")
        iv = Interval(*support) if support is not None else Interval(0.0, 1.0)
        return BetaSignal(alpha, beta, iv)
    if family == "table":
        nodes = params.pop("nodes", None)
        dens = params.pop("densities", None)
        if nodes is None or dens is None:
            raise ConstructionError("table signal needs nodes and densities")
        return TableSignal(nodes, dens)
    raise ConstructionError(
        f"unknown signal family {family!r}; choose from {sorted(_SIGNAL_FAMILIES)}")


def make_kernel(family: str, **params) -> ValuationKernel:
    """Construct a builtin kernel family by tag."""
    if family == "additive_noise":
        return AdditiveNoiseKernel(noise=params.pop("noise", "logistic"),
                                   scale=params.pop("scale", 1.0))
    if family == "power":
        return PowerKernel()
    if family == "exp_tilt":
        return ExpTiltKernel()
    if family == "table":
        try:
            return TableKernel(params.pop("v_nodes"), params.pop("V_nodes"),
                               params.pop("H"))
        except KeyError as exc:
            raise ConstructionError(
                f"table kernel needs v_nodes, V_nodes, H; missing {exc}") from exc
    raise ConstructionError(
        f"unknown kernel family {family!r}; choose from {sorted(_KERNEL_FAMILIES)}")


# ---------------------------------------------------------------------------
# the model


@dataclass
class ScreeningModel:
    """A signal distribution paired with a conditional valuation kernel."""

    signal: SignalDistribution
    kernel: ValuationKernel

    def __post_init__(self):
        self.kernel.check_signal_support(self.signal.support)

    def describe(self) -> dict:
        return {"signal": self.signal.describe(),
                "kernel": self.kernel.describe()}

    # -- grids ------------------------------------------------------------

    def signal_grid(self, grid: GridSpec | None = None) -> np.ndarray:
        """Interior signal lattice: linspace with endpoint margins applied."""
        grid = grid or DEFAULT_GRID
        lo, hi = self.signal.support.as_tuple()
        margin = grid.endpoint_margin * (hi - lo)
        return np.linspace(lo + margin, hi - margin, grid.v_points)

    def value_bounds(self, grid: GridSpec | None = None) -> tuple[float, float, dict]:
        """Effective value bounds once infinite tails are cut.

        Returns (lo, hi, truncation_record): lo from ``value_range`` at the
        lowest signal and hi from it at the highest (stochastic ordering
        makes those the envelope). The record holds each bound that a tail
        cut replaced, and None for a finite endpoint.
        """
        grid = grid or DEFAULT_GRID
        v_lo, v_hi = self.signal.support.as_tuple()
        lo = self.value_range(v_lo, grid)[0]
        hi = self.value_range(v_hi, grid)[1]
        k = self.kernel.support
        return lo, hi, {
            "tail_mass_cut": grid.tail_mass_cut,
            "lower": None if math.isfinite(k.lower) else lo,
            "upper": None if math.isfinite(k.upper) else hi}

    def value_grid(self, grid: GridSpec | None = None) -> np.ndarray:
        """Interior value lattice; margins only guard finite endpoints."""
        grid = grid or DEFAULT_GRID
        lo, hi, _ = self.value_bounds(grid)
        span = hi - lo
        k = self.kernel.support
        lo_pad = grid.endpoint_margin * span if math.isfinite(k.lower) else 0.0
        hi_pad = grid.endpoint_margin * span if math.isfinite(k.upper) else 0.0
        return np.linspace(lo + lo_pad, hi - hi_pad, grid.V_points)

    def value_range(self, v: float, grid: GridSpec | None = None) -> tuple[float, float]:
        """Integration range for conditional-on-v integrals: an infinite
        endpoint becomes H_v's quantile at the tail mass cut."""
        grid = grid or DEFAULT_GRID
        cut = grid.tail_mass_cut
        k = self.kernel.support
        lo = k.lower if math.isfinite(k.lower) else self.kernel.quantile(v, cut)
        hi = k.upper if math.isfinite(k.upper) else self.kernel.quantile(v, 1.0 - cut)
        return lo, hi

    def truncation_info(self, grid: GridSpec | None = None) -> dict:
        _, _, trunc = self.value_bounds(grid)
        return trunc


# ---------------------------------------------------------------------------
# primitive evaluations


@dataclass(frozen=True)
class KernelEval:
    """One kernel evaluation; ``fosd_violation`` marks dHdv >= 0 spots."""

    H: float
    h: float
    dHdv: float
    fosd_violation: bool


def eval_kernel(model: ScreeningModel, v: float, V: float,
                tolerances: ToleranceConfig | None = None) -> KernelEval:
    """Conditional cdf, density, and signal-derivative at (v, V).

    V must be interior to the value support. The signal-derivative comes
    from the kernel's analytic form when it has one, otherwise from a central
    difference (one Richardson pass) with the configured step policy, the
    stencil shrunk to stay inside the signal support.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    model.signal._require_in_support(v)
    model.kernel._require_interior(V)
    H = model.kernel.cdf(v, V)
    h = model.kernel.pdf(v, V)
    dHdv = model.kernel.cdf_dv(v, V)
    if dHdv is None:
        lo, hi = model.signal.support.as_tuple()
        step = min(tol.derivative_step(v), 0.25 * (hi - lo))
        # Shift the stencil centre inward when v sits within a step of the
        # boundary; the slope at the shifted point stands in for the edge.
        centre = min(max(v, lo + step), hi - step)
        dHdv = differentiate(lambda s: model.kernel.cdf(s, V), centre,
                             step=step).value
    return KernelEval(H=H, h=h, dHdv=dHdv, fosd_violation=dHdv >= 0.0)


def conditional_mean(model: ScreeningModel, v: float,
                     grid: GridSpec | None = None,
                     tolerances: ToleranceConfig | None = None) -> float:
    """E[V | v]: ``conditional_mean_many`` at one v."""
    return float(conditional_mean_many(model, [v], grid, tolerances)[0])


def conditional_mean_derivative(model: ScreeningModel, v: float,
                                grid: GridSpec | None = None,
                                tolerances: ToleranceConfig | None = None) -> float:
    """d/dv of E[V | v]: ``conditional_mean_derivative_many`` at one v."""
    return float(conditional_mean_derivative_many(model, [v], grid,
                                                  tolerances)[0])


def _first_failure(failures: dict[int, Exception], what: str, vs,
                   per_v: int) -> None:
    """Raise the failure of the lowest-numbered integral, as a loop over
    ``vs`` (``per_v`` integrals each, one after another) would raise it."""
    if not failures:
        return
    k = min(failures)
    exc = failures[k]
    if isinstance(exc, QuadratureError):
        raise IntegrabilityError(
            f"{what} did not converge at v={vs[k // per_v]!r}: {exc}") from exc
    raise exc


def _signals_in_support(model: ScreeningModel, vs) -> list[float]:
    vs = [float(v) for v in vs]
    for v in vs:
        if not model.signal.support.contains(v):
            raise DomainError(f"signal value {v!r} outside the signal support")
    return vs


def conditional_mean_many(model: ScreeningModel, vs,
                          grid: GridSpec | None = None,
                          tolerances: ToleranceConfig | None = None
                          ) -> np.ndarray:
    """E[V | v] at every v of ``vs`` by the layer-cake identity.

    After translating so the (possibly truncated) value range straddles
    zero, each mean is the integral of the upper-tail survival minus the
    integral of the lower-tail cdf. Only the kernel enters; v may sit
    anywhere in the closed signal support. All 2N integrals refine together
    through ``integrate_many``, on the kernel's ``cdf_many``.
    """
    grid, tol = resolve_config(grid, tolerances)
    kernel = model.kernel
    vs = _signals_in_support(model, vs)
    lowers, uppers, cs = [], [], []
    for v in vs:
        lo, hi = model.value_range(v, grid)
        c = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
        cs.append(c)
        # integral 2i is the upper tail of v_i, integral 2i + 1 the lower
        lowers += (0.0, lo - c)
        uppers += (hi - c, 0.0)
    v_col = np.repeat(vs, 2)[:, None]
    c_col = np.repeat(cs, 2)[:, None]

    def tails(idx, x):
        H = kernel.cdf_many(v_col[idx], x + c_col[idx])
        return np.where(idx[:, None] % 2 == 0, 1.0 - H, H)

    values, _, failures = integrate_many(tails, lowers, uppers,
                                         rel_tol=tol.quadrature_rel)
    _first_failure(failures, "conditional mean", vs, 2)
    return np.array(cs) + values[0::2] - values[1::2]


def conditional_mean_derivative_many(model: ScreeningModel, vs,
                                     grid: GridSpec | None = None,
                                     tolerances: ToleranceConfig | None = None
                                     ) -> np.ndarray:
    """d/dv of E[V | v] at every v of ``vs``: differentiating the layer-cake
    identity under the integral sign gives minus the integral of dH_v(V)/dv
    over the value range. The N integrals refine together on the kernel's
    ``pdf_cdf_dv_many``.
    """
    grid, tol = resolve_config(grid, tolerances)
    kernel = model.kernel
    vs = _signals_in_support(model, vs)
    ranges = [model.value_range(v, grid) for v in vs]
    v_col = np.array(vs)[:, None]

    def neg_rate(idx, V):
        return -kernel.pdf_cdf_dv_many(model, v_col[idx], V, tol)[1]

    values, _, failures = integrate_many(
        neg_rate, [lo for lo, _ in ranges], [hi for _, hi in ranges],
        rel_tol=tol.quadrature_rel)
    _first_failure(failures, "conditional mean derivative", vs, 1)
    return values


# ---------------------------------------------------------------------------
# model validation


@dataclass
class ModelValidation:
    """Outcome of the numeric sanity checks run before any verdict."""

    passed: bool
    checks: list[dict] = field(default_factory=list)

    def issues(self) -> list[str]:
        return [c["name"] for c in self.checks if not c["passed"]]


def validate_model(model: ScreeningModel, grid: GridSpec | None = None,
                   tolerances: ToleranceConfig | None = None) -> ModelValidation:
    """Numeric spot-checks of the distributional invariants: the signal
    mass and cdf consistency, and the kernel mass at three signals, each
    over the window the grid keeps with its slivers from the cdf. Any
    failed check marks the model invalid; stochastic ordering is left to
    the report's FOSD check over the full lattice.
    """
    grid, tol = resolve_config(grid, tolerances)
    checks: list[dict] = []

    def record(name, passed, **detail):
        checks.append({"name": name, "passed": bool(passed), **detail})

    # Signal mass and cdf consistency over the grid window, so that an
    # integrable singularity at a support endpoint is never integrated up
    # to; the slivers outside the window come from the cdf and survival. A
    # relabeled model is checked on its base axis, where quadrature does not
    # meet the slope's step discontinuities, and so is its kernel: the
    # relabeled kernel at phi(v) is the base kernel at v, and phi' > 0 keeps
    # the sign of dH/dv.
    rel = getattr(model, "relabeling", None)
    base = getattr(model, "base", None)
    relabeled = rel is not None and base is not None
    checked = base if relabeled else model
    sig = checked.signal
    s_lo, s_hi = sig.support.as_tuple()
    sig_window = checked.signal_grid(grid)
    sa, sb = float(sig_window[0]), float(sig_window[-1])
    axis = "base" if relabeled else "signal"
    # the window's mass, then the three cdf-consistency spans, refined together
    ends = [sb] + [sa + q * (sb - sa) for q in (0.25, 0.5, 0.75)]
    parts, _, failures = integrate_many(lambda idx, x: sig.pdf_many(x),
                                        [sa] * len(ends), ends,
                                        rel_tol=tol.quadrature_rel)

    def part(k):
        if k in failures:
            raise failures[k]
        return float(parts[k])

    try:
        mass = ((sig.cdf(sa) - sig.cdf(s_lo)) + part(0)
                + (sig.sf(sb) - sig.sf(s_hi)))
        record("signal_mass", abs(mass - 1.0) <= 1e-7, value=mass,
               window=[sa, sb], axis=axis)
    except (QuadratureError, DomainError) as exc:
        record("signal_mass", False, error=str(exc))
    for k, v in enumerate(ends[1:], 1):
        try:
            quadrature = part(k)
            span = sig.cdf(v) - sig.cdf(sa)
            record("signal_cdf_consistency", abs(quadrature - span) <= 1e-7,
                   at=v, quadrature=quadrature, declared=span, axis=axis)
        except (QuadratureError, DomainError) as exc:
            record("signal_cdf_consistency", False, at=v, error=str(exc))
    if relabeled:
        # The pushforward is wired to the base axis by the chain rule.
        for q in (0.25, 0.5, 0.75):
            v = float(sig_window[int(q * (len(sig_window) - 1))])
            w = rel.phi(v)
            cdf_ok = abs(model.signal.cdf(w) - sig.cdf(v)) <= 1e-12
            lhs = model.signal.pdf(w) * rel.phi_prime(v)
            rhs = sig.pdf(v)
            pdf_ok = abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
            record("signal_cdf_consistency", cdf_ok and pdf_ok, at=v,
                   relabeled_at=w)

    # Kernel mass at three signals over the window the value grid keeps (an
    # endpoint_margin pad inside each finite value endpoint), so that an
    # integrable density singularity there is never integrated up to; the
    # slivers outside it come from the cdf, as for the signal. Each window
    # is split where the density jumps (GK15 can converge falsely across a
    # jump), and the truncated tails are allowed for.
    mass_tol = 2.0 * grid.tail_mass_cut + 1e-7
    kernel = checked.kernel
    k_lo, k_hi = kernel.support.as_tuple()
    kernel_vs = [sa, 0.5 * (sa + sb), sb]
    ranges = [checked.value_range(v, grid) for v in kernel_vs]
    windows = []
    for lo, hi in ranges:
        pad = grid.endpoint_margin * (hi - lo)
        windows.append((lo + pad if math.isfinite(k_lo) else lo,
                        hi - pad if math.isfinite(k_hi) else hi))
    # every piece of every window refined together, each mass summed left
    # to right, or the error of its first failed piece
    cuts = [[a, *[x for x in kernel._density_jumps if a < x < b], b]
            for a, b in windows]
    owner = [i for i, c in enumerate(cuts) for _ in c[1:]]
    v_col = np.array(kernel_vs)[owner][:, None]
    values, _, failed = integrate_many(
        lambda idx, x: kernel.pdf_many(v_col[idx], x),
        [a for c in cuts for a in c[:-1]], [b for c in cuts for b in c[1:]],
        rel_tol=tol.quadrature_rel)
    inner = [0] * len(kernel_vs)
    for k, i in enumerate(owner):
        if not isinstance(inner[i], Exception):
            inner[i] = failed.get(k, inner[i] + float(values[k]))
    cdf = kernel.cdf
    for v, (lo, hi), (wa, wb), mass in zip(kernel_vs, ranges, windows, inner):
        if isinstance(mass, QuadratureError):
            record("kernel_mass", False, at=v, error=str(mass),
                   window=[wa, wb])
            continue
        if isinstance(mass, Exception):
            raise mass
        mass = (cdf(v, wa) - cdf(v, lo)) + mass + (cdf(v, hi) - cdf(v, wb))
        record("kernel_mass", abs(mass - 1.0) <= mass_tol, at=v, value=mass,
               window=[wa, wb])

    return ModelValidation(passed=all(c["passed"] for c in checks),
                           checks=checks)
