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

import bisect
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
    NUMERIC_CAUSES,
    QuadratureError,
)
from .numerics import (Interval, differentiate, integrate, integrate_many,
                       kahan_prefix)

__all__ = [
    "GridSpec",
    "ToleranceConfig",
    "DEFAULT_GRID",
    "DEFAULT_TOLERANCES",
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

    Array fields take their transcendentals through the same ``math``
    functions and ``pow`` as the scalar evaluators, so the two agree bit for
    bit; numpy's vectorised exp, log and pow can differ in the last place.
    """
    return np.frompyfunc(fn, len(arrays), 1)(*arrays).astype(float)


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_BETAINC_MAX_TERMS = 10_000
_BETAINC_EPS = 1e-15
_LENTZ_TINY = 1e-300


def _stirling_gap(z: float) -> float:
    """lgamma(z) less its Stirling form (z - 1/2) log z - z + log sqrt(2 pi);
    the asymptotic series from z = 20 on, where five terms reach 1e-17."""
    if z < 20.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _LOG_SQRT_2PI
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680
                                                      - r / 1188)))) / z


def _betainc(a: float, b: float, x: float) -> float:
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
        return {
            "v_points": self.v_points,
            "V_points": self.V_points,
            "endpoint_margin": self.endpoint_margin,
            "tail_mass_cut": self.tail_mass_cut,
        }


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
        for name in ("monotonicity_slack", "quadrature_rel",
                     "derivative_step_floor", "derivative_step_scale"):
            if getattr(self, name) <= 0:
                raise ConstructionError(f"{name} must be strictly positive")

    def derivative_step(self, x: float) -> float:
        return max(self.derivative_step_floor,
                   self.derivative_step_scale * abs(x))

    def describe(self) -> dict:
        return {
            "monotonicity_slack": self.monotonicity_slack,
            "quadrature_rel": self.quadrature_rel,
            "derivative_step_floor": self.derivative_step_floor,
            "derivative_step_scale": self.derivative_step_scale,
        }


DEFAULT_GRID = GridSpec()
DEFAULT_TOLERANCES = ToleranceConfig()


def resolve_config(grid: GridSpec | None,
                   tolerances: ToleranceConfig | None) -> tuple[GridSpec, ToleranceConfig]:
    return grid or DEFAULT_GRID, tolerances or DEFAULT_TOLERANCES


# ---------------------------------------------------------------------------
# noise families for the additive kernel


class _Noise:
    name = "abstract"

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def ppf(self, p: float) -> float:
        raise NotImplementedError

    def cdf_pdf(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """cdf and pdf on an array, equal to the scalar forms bit for bit."""
        raise NotImplementedError

    def cdf_array(self, x: np.ndarray) -> np.ndarray:
        """The cdf alone on an array, equal to the scalar form bit for bit;
        a family whose cdf is cheaper than both overrides it."""
        return self.cdf_pdf(x)[0]


class _NormalNoise(_Noise):
    name = "normal"

    def cdf(self, x):
        return 0.5 * math.erfc(-x / _SQRT2)

    def pdf(self, x):
        return _INV_SQRT_2PI * math.exp(-0.5 * x * x)

    def ppf(self, p):
        from scipy.special import ndtri  # SciPy loads for this quantile only
        return float(ndtri(p))

    def cdf_pdf(self, x):
        return (self.cdf_array(x),
                _INV_SQRT_2PI * _exact_map(math.exp, -0.5 * x * x))

    def cdf_array(self, x):
        return 0.5 * _exact_map(math.erfc, -x / _SQRT2)


class _LogisticNoise(_Noise):
    name = "logistic"

    def cdf(self, x):
        if x >= 0.0:
            return 1.0 / (1.0 + math.exp(-x))
        e = math.exp(x)
        return e / (1.0 + e)

    def pdf(self, x):
        e = math.exp(-abs(x))
        return e / (1.0 + e) ** 2

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
    name = "laplace"

    def cdf(self, x):
        if x < 0.0:
            return 0.5 * math.exp(x)
        return 1.0 - 0.5 * math.exp(-x)

    def pdf(self, x):
        return 0.5 * math.exp(-abs(x))

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


class SignalDistribution:
    """Scalar signal with cdf/pdf/survival on a finite closed support."""

    family = "abstract"

    def __init__(self, support: Interval):
        if not support.bounded:
            raise ConstructionError("signal support must be a finite interval")
        self.support = support

    # subclasses implement these three
    def cdf(self, v: float) -> float:
        raise NotImplementedError

    def sf(self, v: float) -> float:
        """Survival 1 - F, computed without cancellation near the top."""
        raise NotImplementedError

    def pdf(self, v: float) -> float:
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def describe(self) -> dict:
        d = {"family": self.family,
             "support": [_bound_repr(self.support.lower),
                         _bound_repr(self.support.upper)]}
        d.update(self.params())
        return d

    def _require_in_support(self, v: float) -> None:
        if not self.support.contains(v):
            raise DomainError(
                f"signal value {v!r} outside support "
                f"[{self.support.lower}, {self.support.upper}]")

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
            scalar = getattr(self, name)
            return np.array([scalar(x) for x in v.ravel().tolist()],
                            dtype=float).reshape(v.shape)
        inside = (self.support.lower <= v) & (v <= self.support.upper)
        if not inside.all():
            self._require_in_support(float(v[~inside][0]))
        return array_form(self, v)


class UniformSignal(SignalDistribution):
    """Uniform signal on [lower, upper]."""

    family = "uniform"

    def cdf(self, v):
        self._require_in_support(v)
        return (v - self.support.lower) / self.support.width

    def sf(self, v):
        self._require_in_support(v)
        return (self.support.upper - v) / self.support.width

    def pdf(self, v):
        self._require_in_support(v)
        return 1.0 / self.support.width

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
        if alpha <= 0 or beta <= 0:
            raise ConstructionError("beta shape parameters must be positive")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._log_norm = (math.lgamma(alpha + beta) - math.lgamma(alpha)
                          - math.lgamma(beta))

    def params(self):
        return {"alpha": self.alpha, "beta": self.beta}

    def _unit(self, v: float) -> float:
        self._require_in_support(v)
        return (v - self.support.lower) / self.support.width

    def cdf(self, v):
        return _betainc(self.alpha, self.beta, self._unit(v))

    def sf(self, v):
        # Regularized incomplete beta symmetry keeps the upper tail accurate.
        return _betainc(self.beta, self.alpha, 1.0 - self._unit(v))

    def pdf(self, v):
        x = self._unit(v)
        if x == 0.0 or x == 1.0:
            # only a shape below 1 at its own endpoint makes it unbounded
            if (self.alpha if x == 0.0 else self.beta) < 1:
                raise DomainError(
                    f"beta density unbounded at the support endpoint v={v!r}")
            return (math.exp(self._log_norm) * x ** (self.alpha - 1.0)
                    * (1.0 - x) ** (self.beta - 1.0) / self.support.width)
        log_pdf = (self._log_norm + (self.alpha - 1.0) * math.log(x)
                   + (self.beta - 1.0) * math.log1p(-x))
        return math.exp(log_pdf) / self.support.width

    def _sf_array(self, v):
        return _exact_map(_betainc, self.beta, self.alpha,
                          1.0 - (v - self.support.lower) / self.support.width)

    def _pdf_array(self, v):
        x = (v - self.support.lower) / self.support.width
        inner = (0.0 < x) & (x < 1.0)
        out = np.empty(x.shape)
        x = x[inner]
        log_pdf = (self._log_norm
                   + (self.alpha - 1.0) * _exact_map(math.log, x)
                   + (self.beta - 1.0) * _exact_map(math.log1p, -x))
        out[inner] = _exact_map(math.exp, log_pdf) / self.support.width
        # the support endpoints take the scalar branch
        out[~inner] = [self.pdf(e) for e in v[~inner].tolist()]
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
        self._nodes = nodes
        self._raw_dens = dens
        self._dens = [y / total for y in dens]
        cells = [c / total for c in cells]
        # Forward and backward accumulations, each compensated.
        self._cdf_at = kahan_prefix(cells)
        self._sf_at = kahan_prefix(reversed(cells))[::-1]

    def params(self):
        # Densities are echoed as given; normalization stays internal so that
        # writing and re-reading a model reproduces it exactly.
        return {"nodes": list(self._nodes), "densities": list(self._raw_dens)}

    def _cell(self, v: float) -> int:
        k = bisect.bisect_right(self._nodes, v) - 1
        return min(max(k, 0), len(self._nodes) - 2)

    def pdf(self, v):
        self._require_in_support(v)
        k = self._cell(v)
        x0, x1 = self._nodes[k], self._nodes[k + 1]
        w = (v - x0) / (x1 - x0)
        return (1.0 - w) * self._dens[k] + w * self._dens[k + 1]

    def _partial_below(self, v: float, k: int) -> float:
        x0, x1 = self._nodes[k], self._nodes[k + 1]
        f0, f1 = self._dens[k], self._dens[k + 1]
        dx = v - x0
        slope = (f1 - f0) / (x1 - x0)
        return f0 * dx + 0.5 * slope * dx * dx

    def _partial_above(self, v: float, k: int) -> float:
        x0, x1 = self._nodes[k], self._nodes[k + 1]
        f0, f1 = self._dens[k], self._dens[k + 1]
        dx = x1 - v
        slope = (f0 - f1) / (x1 - x0)
        return f1 * dx + 0.5 * slope * dx * dx

    def cdf(self, v):
        self._require_in_support(v)
        k = self._cell(v)
        return min(1.0, self._cdf_at[k] + self._partial_below(v, k))

    def sf(self, v):
        self._require_in_support(v)
        k = self._cell(v)
        return min(1.0, self._sf_at[k + 1] + self._partial_above(v, k))

    def _cells(self, v):
        """Cell index and its end nodes and densities, per point."""
        nodes, dens = np.asarray(self._nodes), np.asarray(self._dens)
        k = np.clip(np.searchsorted(nodes, v, side="right") - 1, 0,
                    len(nodes) - 2)
        return k, nodes[k], nodes[k + 1], dens[k], dens[k + 1]

    def _pdf_array(self, v):
        _, x0, x1, f0, f1 = self._cells(v)
        w = (v - x0) / (x1 - x0)
        return (1.0 - w) * f0 + w * f1

    def _sf_array(self, v):
        k, x0, x1, f0, f1 = self._cells(v)
        dx = x1 - v
        slope = (f0 - f1) / (x1 - x0)
        return np.minimum(1.0, np.asarray(self._sf_at)[k + 1]
                          + (f1 * dx + 0.5 * slope * dx * dx))


# ---------------------------------------------------------------------------
# valuation kernels


class ValuationKernel:
    """Family of conditional value distributions H_v on a common support."""

    family = "abstract"

    def __init__(self, support: Interval):
        self.support = support

    def cdf(self, v: float, V: float) -> float:
        raise NotImplementedError

    def pdf(self, v: float, V: float) -> float:
        raise NotImplementedError

    def cdf_dv(self, v: float, V: float) -> float | None:
        """Signal-derivative of H_v(V); None means no analytic form."""
        return None

    def quantile(self, v: float, p: float) -> float:
        """Conditional p-quantile. The package asks for one only at an
        infinite value endpoint, so a family with one overrides it."""
        raise NotImplementedError(
            f"{self.family} kernel must override quantile()")

    def check_signal_support(self, support: Interval) -> None:
        """Reject signal supports this family cannot condition on."""

    def params(self) -> dict:
        return {}

    def describe(self) -> dict:
        d = {"family": self.family,
             "support": [_bound_repr(self.support.lower),
                         _bound_repr(self.support.upper)]}
        d.update(self.params())
        return d

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
        ``_fields(v, V)``, array forms of cdf, pdf and cdf_dv equal to them
        bit for bit, once on the in-domain sub-lattice; every other kernel
        calls eval_kernel point by point.
        """
        shape = (v.shape[0], V.shape[1])
        H, h, dHdv = (np.full(shape, np.nan) for _ in range(3))
        if self._exact_arrays():
            s = model.signal.support
            rows = (s.lower <= v[:, 0]) & (v[:, 0] <= s.upper)
            cols = (self.support.lower < V[0]) & (V[0] < self.support.upper)
            block = np.ix_(rows, cols)
            H[block], h[block], dHdv[block] = self._fields(v[rows],
                                                           V[:, cols])
            return H, h, dHdv, ~(rows[:, None] & cols[None, :])
        failed = np.zeros(shape, dtype=bool)
        for i, vi in enumerate(v[:, 0].tolist()):
            for j, Vj in enumerate(V[0].tolist()):
                try:
                    ke = eval_kernel(model, vi, Vj, tol)
                except (DomainError, EvaluationError):
                    failed[i, j] = True
                    continue
                H[i, j], h[i, j], dHdv[i, j] = ke.H, ke.h, ke.dHdv
        return H, h, dHdv, failed

    def _exact_arrays(self) -> bool:
        """Whether this kernel's class defines ``_fields`` itself; a subclass
        of a builtin family may override the evaluators they mirror, so it
        takes the scalar loop."""
        return "_fields" in vars(type(self))

    def _cdf_field(self, v, V):
        """The H of ``_fields`` alone, equal to ``cdf`` bit for bit; a family
        whose cdf is cheaper than its three fields overrides it."""
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
        if not scale > 0:
            raise ConstructionError("noise scale must be positive")
        super().__init__(Interval(-math.inf, math.inf))
        self.noise = noise
        self.scale = float(scale)
        self._dist = _NOISE_FAMILIES[noise]

    def params(self):
        return {"noise": self.noise, "scale": self.scale}

    def cdf(self, v, V):
        return self._dist.cdf((V - v) / self.scale)

    def pdf(self, v, V):
        return self._dist.pdf((V - v) / self.scale) / self.scale

    def cdf_dv(self, v, V):
        # Translation family: the signal-derivative is exactly minus the
        # density, bit for bit.
        return -self.pdf(v, V)

    def _fields(self, v, V):
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
        return V ** v

    def pdf(self, v, V):
        return v * V ** (v - 1.0)

    def cdf_dv(self, v, V):
        return math.log(V) * V ** v

    def _fields(self, v, V):
        H = _exact_map(pow, V, v)
        return (H, v * _exact_map(pow, V, v - 1.0),
                _exact_map(math.log, V) * H)

    def _cdf_field(self, v, V):
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

    def cdf(self, v, V):
        if abs(v) < 1e-5:
            # H = V * exp(v(V-1)/2 + v^2 (V^2-1)/24 + O(v^3))
            return V * math.exp(0.5 * v * (V - 1.0)
                                + v * v * (V * V - 1.0) / 24.0)
        return math.expm1(v * V) / math.expm1(v)

    def pdf(self, v, V):
        if abs(v) < 1e-300:
            return 1.0
        return v * math.exp(v * V) / math.expm1(v)

    def cdf_dv(self, v, V):
        if abs(v) < 1e-5:
            h_small = self.cdf(v, V)
            return h_small * (0.5 * (V - 1.0) + v * (V * V - 1.0) / 12.0)
        em_v = math.expm1(v)
        return ((V * math.exp(v * V) * em_v
                 - math.expm1(v * V) * math.exp(v)) / (em_v * em_v))

    def _fields(self, v, V):
        vV = v * V
        e_vV = _exact_map(math.exp, vV)
        m_vV = _exact_map(math.expm1, vV)
        em_v = _exact_map(math.expm1, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            # rows the scalar forms send to a small-v branch are replaced
            # below; only there can expm1(v) vanish
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


class TableKernel(ValuationKernel):
    """Conditional cdf tabulated on a rectangular lattice, bilinear between.

    Rows (fixed signal node) are renormalized so the cdf runs exactly from 0
    to 1 across the value lattice. The conditional density is the value-slope
    of the interpolant and the signal-derivative its signal-slope, so the
    three evaluators are mutually consistent by construction.
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
        # list copies for the scalar evaluators' bisect
        self._v_list, self._V_list = v_nodes, V_nodes
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

    def _locate(self, nodes: list[float], x: float) -> tuple[int, float]:
        k = bisect.bisect_right(nodes, x) - 1
        k = min(max(k, 0), len(nodes) - 2)
        w = (x - nodes[k]) / (nodes[k + 1] - nodes[k])
        return k, w

    def _corners(self, v: float, V: float):
        i, a = self._locate(self._v_list, v)
        j, b = self._locate(self._V_list, V)
        H = self._H
        return (i, j, a, b,
                H[i, j], H[i, j + 1], H[i + 1, j], H[i + 1, j + 1])

    # The scalar evaluators return Python floats, not numpy scalars, so that
    # quantities derived from them (flags, ratios) stay JSON-serializable.

    def cdf(self, v, V):
        if V <= self.support.lower:
            return 0.0
        if V >= self.support.upper:
            return 1.0
        _, _, a, b, h00, h01, h10, h11 = self._corners(v, V)
        return float((1 - a) * ((1 - b) * h00 + b * h01)
                     + a * ((1 - b) * h10 + b * h11))

    def pdf(self, v, V):
        self._require_interior(V)
        i, j, a, _, h00, h01, h10, h11 = self._corners(v, V)
        dV = self._V_nodes[j + 1] - self._V_nodes[j]
        return float(((1 - a) * (h01 - h00) + a * (h11 - h10)) / dV)

    def cdf_dv(self, v, V):
        self._require_interior(V)
        i, j, _, b, h00, h01, h10, h11 = self._corners(v, V)
        dv = self._v_nodes[i + 1] - self._v_nodes[i]
        return float(((1 - b) * (h10 - h00) + b * (h11 - h01)) / dv)

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
        # the scalar cdf's clamps, which the interior lattice never meets
        _, _, a, b, h00, h01, h10, h11 = self._cells(v, V)
        H = ((1 - a) * ((1 - b) * h00 + b * h01)
             + a * ((1 - b) * h10 + b * h11))
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

        Returns (lo, hi, truncation_record). Finite endpoints are used as-is
        here; infinite ones are replaced by conditional quantiles at the tail
        mass cut, taken at the extreme signals (stochastic ordering makes
        those the envelope).
        """
        grid = grid or DEFAULT_GRID
        cut = grid.tail_mass_cut
        v_lo, v_hi = self.signal.support.as_tuple()
        k = self.kernel.support
        trunc: dict = {"tail_mass_cut": cut, "lower": None, "upper": None}
        if math.isfinite(k.lower):
            lo = k.lower
        else:
            lo = self.kernel.quantile(v_lo, cut)
            trunc["lower"] = lo
        if math.isfinite(k.upper):
            hi = k.upper
        else:
            hi = self.kernel.quantile(v_hi, 1.0 - cut)
            trunc["upper"] = hi
        return lo, hi, trunc

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
        """Integration range for conditional-on-v integrals."""
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
    if not model.signal.support.contains(v):
        raise DomainError(
            f"signal value {v!r} outside support "
            f"[{model.signal.support.lower}, {model.signal.support.upper}]")
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
    """E[V | v] by the layer-cake identity.

    After translating so the (possibly truncated) value range straddles zero,
    the mean is the integral of the upper-tail survival minus the integral of
    the lower-tail cdf. Only the kernel enters; v may sit anywhere in the
    closed signal support.
    """
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


def conditional_mean_derivative(model: ScreeningModel, v: float,
                                grid: GridSpec | None = None,
                                tolerances: ToleranceConfig | None = None) -> float:
    """d/dv of E[V | v], via the integrated signal-derivative of the kernel.

    Differentiating the layer-cake identity under the integral sign turns the
    slope of the conditional mean into minus the integral of dH_v(V)/dv over
    the value range.
    """
    grid, tol = resolve_config(grid, tolerances)
    if not model.signal.support.contains(v):
        raise DomainError(f"signal value {v!r} outside the signal support")
    lo, hi = model.value_range(v, grid)

    def neg_rate(V: float) -> float:
        return -eval_kernel(model, v, V, tol).dHdv

    try:
        value, _ = integrate(neg_rate, (lo, hi), rel_tol=tol.quadrature_rel)
    except QuadratureError as exc:
        raise IntegrabilityError(
            f"conditional mean derivative did not converge at v={v!r}: {exc}"
        ) from exc
    return value


def _first_failure(failures: dict[int, Exception], what: str, vs,
                   per_v: int) -> None:
    """Raise the failure of the lowest-numbered integral, as the scalar
    loop over ``vs`` (``per_v`` integrals each) would have raised it."""
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
    """``conditional_mean`` at every v of ``vs``, equal to it bit for bit.

    All 2N layer-cake integrals refine together through ``integrate_many``
    on the kernel's array cdf. A kernel without array fields loops the
    scalar form, and so does a single v: there, the batch's array work per
    refinement round costs more than the scalar rule's calls.
    """
    grid, tol = resolve_config(grid, tolerances)
    kernel = model.kernel
    if not kernel._exact_arrays() or len(vs) == 1:
        return np.array([conditional_mean(model, float(v), grid, tol)
                         for v in vs])
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
        H = kernel._cdf_field(v_col[idx], x + c_col[idx])
        return np.where(idx[:, None] % 2 == 0, 1.0 - H, H)

    values, _, failures = integrate_many(tails, lowers, uppers,
                                         rel_tol=tol.quadrature_rel)
    _first_failure(failures, "conditional mean", vs, 2)
    return np.array(cs) + values[0::2] - values[1::2]


def conditional_mean_derivative_many(model: ScreeningModel, vs,
                                     grid: GridSpec | None = None,
                                     tolerances: ToleranceConfig | None = None
                                     ) -> np.ndarray:
    """``conditional_mean_derivative`` at every v of ``vs``, equal to it bit
    for bit; the N integrals refine together on the kernel's array
    signal-derivative, and a kernel without array fields loops the scalar
    form."""
    grid, tol = resolve_config(grid, tolerances)
    kernel = model.kernel
    if not kernel._exact_arrays():
        return np.array([conditional_mean_derivative(model, float(v), grid,
                                                     tol) for v in vs])
    vs = _signals_in_support(model, vs)
    ranges = [model.value_range(v, grid) for v in vs]
    v_col = np.array(vs)[:, None]
    k_lo, k_hi = kernel.support.as_tuple()

    def neg_rate(idx, V):
        interior = (k_lo < V) & (V < k_hi)
        if not interior.all():
            # eval_kernel's check, raised for the first offending value
            kernel._require_interior(float(V[~interior][0]))
        return -kernel._fields(v_col[idx], V)[2]

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
    fosd_ok: bool
    checks: list[dict] = field(default_factory=list)

    def issues(self) -> list[str]:
        return [c["name"] for c in self.checks if not c["passed"]]


def validate_model(model: ScreeningModel, grid: GridSpec | None = None,
                   tolerances: ToleranceConfig | None = None) -> ModelValidation:
    """Numeric spot-checks of the distributional invariants.

    Hard failures (masses off, cdf/density inconsistent) mark the model
    invalid. Strict stochastic-ordering violations are recorded separately:
    the model still evaluates, downstream checkers report the breakage.
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

    # Kernel mass at a few signals; the truncated tails are allowed for.
    mass_tol = 2.0 * grid.tail_mass_cut + 1e-7
    for v in (sa, 0.5 * (sa + sb), sb):
        lo, hi = checked.value_range(v, grid)
        try:
            mass, _ = integrate(lambda V: checked.kernel.pdf(v, V), (lo, hi),
                                rel_tol=tol.quadrature_rel)
            record("kernel_mass", abs(mass - 1.0) <= mass_tol, at=v, value=mass)
        except QuadratureError as exc:
            record("kernel_mass", False, at=v, error=str(exc))

    # Strict stochastic ordering on a coarse interior sample.
    vs = np.linspace(sa, sb, 8)
    Vs = checked.value_grid(dataclasses.replace(grid, v_points=8, V_points=8))
    # eval_kernel raises the error of the first point that fails, in the
    # order of a point-by-point sample; the lattice marks or raises it
    try:
        _, _, dHdv, failed = checked.kernel.eval_lattice(
            checked, vs[:, None], Vs[None, :], tol)
    except NUMERIC_CAUSES:
        failed = np.ones((len(vs), len(Vs)), dtype=bool)
    for i, j in np.argwhere(failed).tolist():
        eval_kernel(checked, float(vs[i]), float(Vs[j]), tol)
    fosd_bad = int(np.count_nonzero(dHdv >= 0.0))
    record("fosd_sample", fosd_bad == 0, violations=fosd_bad,
           sampled=int(len(vs) * len(Vs)))
    fosd_ok = fosd_bad == 0

    hard = [c for c in checks if c["name"] != "fosd_sample"]
    passed = all(c["passed"] for c in hard)
    return ModelValidation(passed=passed, fosd_ok=fosd_ok, checks=checks)
