"""Monotone relabelings of the signal axis and the models they induce.

A relabeling is a strictly increasing map w = phi(v) of the signal. The
relabeled model keeps the value axis untouched: its signal distribution is
the pushforward of the original one and its kernel conditions on phi's
preimage. In consequence the hazard and the information ratio both pick up a
factor 1/phi'(v), while the virtual value does not move at all. Those three
facts are checked numerically on every construction (see apply_relabeling)
so a buggy slope cannot slip through into a verdict.

Available kinds:

    inverse_hazard_integral   phi'(v) = (1-F(v))/f(v); built by cumulative
                              quadrature, fails with IntegrabilityError when
                              the inverse hazard is not integrable
    integrated_hazard         phi(v) = w_lo - log(1-F(v)); the relabeled
                              hazard is identically 1 and the codomain is a
                              half line
    runningmax_hazard         phi'(v) = hazard(v)/g(v) with g the running
                              maximum of the hazard (phi' = 1 where g is
                              0); the relabeled hazard equals g at the
                              preimage, hence weakly increasing, and the
                              codomain stays bounded
    mean                      phi(v) = E[V | v]; the relabeled model is
                              mean-normalized by construction
    affine                    phi(v) = intercept + slope*v with slope > 0

A derived model is relabeled on its base axis: make_relabeling composes the
kind with the model's own map phi1 (the identity on a plain model) by the
chain rule, and apply_relabeling attaches the composite to the base model.
So a derived model holds one relabeling over a plain model, and building
one never inverts a map.

Each kind defines its map and its slope once, as functions of an array of
signal values; a value at one point is that function called on one point, so
batched and point-by-point evaluations agree bit for bit. Forward
evaluations are memoized both ways, so inverting phi at a point that was
produced by phi costs a dictionary lookup and is exact to the bit; fresh
inversions bisect together (``numerics.bisect_many``) on the construction
lattice to 1e-12.

A derived model file's [transform] section reaches this module as numbers:
``modelfile`` alone reads and writes its text, transform_section gives
the numbers that describe a derived model and rebuild_from_section takes
them back.
"""

from __future__ import annotations

import contextlib
import math
import random

import numpy as np

from .errors import (
    ConstructionError,
    DensityUnderflowError,
    DomainError,
    EvaluationError,
    IntegrabilityError,
    QuadratureError,
    SelfCheckError,
)
from .model_core import (
    ScreeningModel,
    SignalDistribution,
    ValuationKernel,
    _exact_map,
    conditional_mean_derivative_many,
    conditional_mean_many,
)
from .modelfile import RELABELING_KINDS
from .numerics import (Interval, bisect_many, integrate_many, kahan_prefix,
                       richardson, stencil)
from .regularity import _DENSITY_FLOOR, _inverse_hazard

__all__ = [
    "RELABELING_KINDS",
    "Relabeling",
    "make_relabeling",
    "TransformedModel",
    "apply_relabeling",
    "relabel",
    "transform_section",
    "rebuild_from_section",
]

_LATTICE_N = 513
_RUNNINGMAX_N = 1025
_TAIL_GAP = 1e-6
_INVERSE_TOL = 1e-12
_SELF_CHECK_POINTS = 32
_SELF_CHECK_TOL = 1e-6
_SELF_CHECK_SEED = 271828182
_TABLE_POINTS = 257


def _sf_over_pdf(signal: SignalDistribution, v: np.ndarray) -> np.ndarray:
    f = signal.pdf_many(v)
    low = f < _DENSITY_FLOOR
    if low.any():
        raise DensityUnderflowError(
            f"signal density vanished at v={float(v[low][0])!r}")
    return signal.sf_many(v) / f


class _SurvivalVanished(DensityUnderflowError):
    """The survival vanished, so the hazard and slopes built on it diverge."""


def _pdf_over_sf(signal: SignalDistribution, v: np.ndarray) -> np.ndarray:
    s = signal.sf_many(v)
    low = s < 1e-300
    if low.any():
        raise _SurvivalVanished(
            f"signal survival vanished at v={float(v[low][0])!r}")
    with np.errstate(over="ignore"):  # an overflowing hazard reads inf
        return signal.pdf_many(v) / s


class Relabeling:
    """A strictly increasing signal map with cached forward/inverse values.

    Construct through make_relabeling. The map and its slope are given once
    each, as array functions ``phi_many`` and ``phi_prime_many`` of an array
    of domain points. ``phis`` and ``phi_primes`` read both at every v of
    an array through the caches, the uncached ones from one call;
    ``phi`` and ``phi_prime`` are their one-point calls.
    ``inverses`` accepts an array of w in the codomain and returns the exact
    preimage of each w produced by ``phi``; the others bisect together on
    the array map. ``inverse`` is its one-point form.
    """

    def __init__(self, kind: str, domain: Interval, phi_many, phi_prime_many,
                 lattice_v: np.ndarray, lattice_w: np.ndarray,
                 w_hi: float, params: dict | None = None):
        self.kind = kind
        self.domain = domain
        self._phi_many = phi_many
        self._phi_prime_many = phi_prime_many
        self._lat_v = np.asarray(lattice_v, dtype=float)
        self._lat_w = np.asarray(lattice_w, dtype=float)
        self.w_lo = float(lattice_w[0])
        self._w_hi = float(w_hi)
        self.params = dict(params or {})
        lat_v, lat_w = self._lat_v.tolist(), self._lat_w.tolist()
        self._fwd = dict(zip(lat_v, lat_w))
        self._inv = dict(zip(lat_w, lat_v))
        self._slope: dict[float, float] = {}
        # on a half-line codomain, +inf is the domain's top
        self._inv[self._w_hi] = domain.upper
        if math.isfinite(self._w_hi):
            self._fwd[domain.upper] = self._w_hi

    @property
    def codomain(self) -> Interval:
        return Interval(self.w_lo, self._w_hi)

    def phi(self, v: float) -> float:
        return float(self.phis(v))

    def phi_prime(self, v: float) -> float:
        return float(self.phi_primes(v))

    def phis(self, vs) -> np.ndarray:
        """The map at every v of ``vs``, any shape (see ``_read``); each
        new value also enters the inverse cache."""
        ws, new = self._read(self._fwd, self._phi_many, vs)
        self._inv.update(zip(new.values(), new))
        return ws

    def phi_primes(self, vs) -> np.ndarray:
        # Cached per point: some slopes are quadratures (the conditional-
        # mean map), and lattice evaluations revisit the same v constantly.
        return self._read(self._slope, self._phi_prime_many, vs)[0]

    def _read(self, cache: dict, many, vs) -> tuple[np.ndarray, dict]:
        """The values of ``cache`` at every v of ``vs`` (any shape), and the
        new ones, which come from one call of the array form ``many`` and
        are entered in ``cache``. The domain is checked first, at the first
        new v outside it; then an error of that call stands."""
        vs = np.asarray(vs, dtype=float)
        flat = vs.ravel().tolist()
        todo = list(dict.fromkeys(v for v in flat if v not in cache))
        new = {}
        if todo:
            todo = np.array(todo)
            lo, hi = self.domain.as_tuple()
            outside = todo[~((lo <= todo) & (todo <= hi))]  # NaN too
            if outside.size:
                raise DomainError(f"signal value {float(outside[0])!r} "
                                  f"outside relabeling domain [{lo}, {hi}]")
            new = dict(zip(todo.tolist(), many(todo).tolist()))
            cache.update(new)
        return np.array([cache[v] for v in flat]).reshape(vs.shape), new

    def inverse(self, w: float) -> float:
        v = self._inv.get(float(w))
        return float(self.inverses([w])[0]) if v is None else v

    def inverses(self, ws) -> np.ndarray:
        """The preimage of every w of ``ws``, any shape; the uncached ones
        go to ``_bisect`` in one call."""
        ws = np.asarray(ws, dtype=float)
        flat = ws.ravel()
        out = np.array([self._inv.get(w, math.nan) for w in flat.tolist()])
        miss = np.isnan(out)
        if miss.any():
            out[miss] = self._bisect(flat[miss])
        return out.reshape(ws.shape)

    def _bisect(self, ws: np.ndarray) -> np.ndarray:
        """Preimages of ``ws`` by one ``bisect_many`` over all of them;
        each distinct target, clamped into the codomain, bisects on its
        lattice cell (the last one runs up to the domain's top) and enters
        the cache unless it is there already, so an exact preimage (a
        lattice point's) stays."""
        w_lo, w_hi = self.w_lo, self._w_hi
        bad = ((ws < w_lo - 1e-9 * max(1.0, abs(w_lo)))
               | (ws > w_hi + 1e-9 * max(1.0, abs(w_hi))))
        if bad.any():
            raise DomainError(
                f"value {float(ws[bad][0])!r} outside relabeling codomain "
                f"[{w_lo}, {w_hi}]")
        targets, where = np.unique(np.clip(ws, w_lo, w_hi),
                                   return_inverse=True)
        k = np.searchsorted(self._lat_w, targets, side="right") - 1
        vs = bisect_many(self._phi_many, targets, self._lat_v[k],
                         np.append(self._lat_v[1:], self.domain.upper)[k],
                         _INVERSE_TOL)
        inv = self._inv
        inv.update((t, v) for t, v in zip(targets.tolist(), vs.tolist())
                   if t not in inv)
        return vs[where]

    def table(self) -> list[tuple[float, float, float]]:
        """(v, phi(v), phi'(v)) triples at ``_TABLE_POINTS`` points
        subsampled from the lattice."""
        idx = np.linspace(0, len(self._lat_v) - 1,
                          _TABLE_POINTS).round().astype(int)
        vs = self._lat_v[idx]
        return list(zip(vs.tolist(), self._lat_w[idx].tolist(),
                        self.phi_primes(vs).tolist()))

    def describe(self) -> dict:
        d = {"kind": self.kind, "w_lo": self.w_lo,
             "w_hi": self._w_hi if math.isfinite(self._w_hi) else "inf"}
        d.update(self.params)
        return d


def _slope_integrals(phi_prime, lowers, uppers):
    """``integrate_many`` of the array slope ``phi_prime`` over each
    ``[lowers[k], uppers[k]]``, to the tolerances every map integral uses."""
    return integrate_many(
        lambda idx, x: phi_prime(x.ravel()).reshape(x.shape), lowers, uppers,
        rel_tol=1e-13, abs_tol=1e-16)


def _kahan_cumulative(phi_prime, nodes: np.ndarray, w_lo: float,
                      context: str) -> np.ndarray:
    """``w_lo`` and its compensated running sums of the slope integral over
    each cell. The cells refine together; the error raised is the one of
    the first cell that fails, as in a cell-by-cell loop. A cell whose
    quadrature gives up, or meets a vanished survival, diverges."""
    incs, _, failures = _slope_integrals(phi_prime, nodes[:-1], nodes[1:])
    incs = incs.tolist()
    for k, (a, b, inc) in enumerate(zip(nodes[:-1], nodes[1:], incs)):
        exc = failures.get(k)
        if isinstance(exc, (QuadratureError, _SurvivalVanished)):
            raise IntegrabilityError(
                f"{context}: slope integral diverged on "
                f"[{float(a)!r}, {float(b)!r}]") from exc
        if exc is not None:
            raise exc
        if not inc > 0.0:
            raise ConstructionError(
                f"{context}: slope integral is not positive on "
                f"[{float(a)!r}, {float(b)!r}]")
    return np.asarray(kahan_prefix(incs, w_lo))


def _piecewise_phi(phi_prime, lat_v: np.ndarray, lat_w: np.ndarray):
    """phi as the lattice value at the start of each point's cell plus the
    slope integral over the partial cell, all points in one
    ``integrate_many`` call. Past the last node, the integral runs from that
    node. A failing integral raises as it would alone, the first in point
    order."""
    last = len(lat_v) - 1

    def phi(v: np.ndarray) -> np.ndarray:
        k = np.clip(np.searchsorted(lat_v, v, side="right") - 1, 0, last - 1)
        k[v > lat_v[last]] = last
        a = lat_v[k]
        incs, _, failures = _slope_integrals(phi_prime, a, v)
        if failures:
            raise failures[min(failures)]
        return lat_w[k] + incs

    return phi


def make_relabeling(model: ScreeningModel, kind: str, *, w_lo: float = 0.0,
                    slope: float | None = None,
                    intercept: float | None = None) -> Relabeling:
    """Build a relabeling of the model's signal axis.

    ``w_lo`` anchors the codomain's lower end for the two hazard-integral
    kinds and the running-max kind; the mean and affine kinds define their
    own images and ignore it. On a derived model, the map takes base
    signals and names the model's own map as ``inner`` in its params.
    """
    if kind not in RELABELING_KINDS:
        raise ConstructionError(
            f"unknown relabeling kind {kind!r}; choose from "
            f"{RELABELING_KINDS}")
    if isinstance(model, TransformedModel):
        base, inner = model.base, model.relabeling
        params = {"inner": inner.describe()}
    else:  # the identity, on the lattice of an affine map
        base, params, dom = model, {}, model.signal.support
        lat = np.linspace(dom.lower, dom.upper, _LATTICE_N)
        inner = Relabeling("identity", dom, lambda v: v,
                           lambda v: np.ones(v.shape), lat, lat, dom.upper)
    # the inner map phi1 and its slope, as array functions of base signals
    phi1, dphi1 = inner._phi_many, inner._phi_prime_many
    signal = base.signal
    dom = signal.support
    lo, hi = dom.as_tuple()
    span = hi - lo

    if kind == "affine":
        a = 1.0 if slope is None else float(slope)
        b = 0.0 if intercept is None else float(intercept)
        if not a > 0:
            raise ConstructionError("affine relabeling needs slope > 0")
        with np.errstate(over="ignore"):
            lat_w = b + a * inner._lat_w
        if not np.isfinite(lat_w).all():
            raise ConstructionError(
                f"affine relabeling overflows: {b!r} + {a!r} * phi is not "
                f"finite on the signal support")
        return Relabeling(kind, dom, lambda v: b + a * phi1(v),
                          lambda v: a * dphi1(v), inner._lat_v, lat_w,
                          w_hi=b + a * inner.codomain.upper,
                          params={**params, "slope": a, "intercept": b})
    if slope is not None or intercept is not None:
        raise ConstructionError(
            f"slope/intercept only apply to the affine kind, not {kind!r}")

    if kind == "mean":
        # E[V | phi1(v)] = E[V | v]: the base model's map, whatever phi1 is
        def phi(vs):
            return conditional_mean_many(base, vs)

        def phi_prime(vs):
            return conditional_mean_derivative_many(base, vs)

        lat_v = np.linspace(lo, hi, _LATTICE_N)
        lat_w = phi(lat_v)
        if not np.all(np.diff(lat_w) > 0):
            raise ConstructionError(
                "conditional mean is not strictly increasing; the mean "
                "relabeling is undefined for this model")
        rel = Relabeling(kind, dom, phi, phi_prime, lat_v, lat_w,
                         w_hi=float(lat_w[-1]), params=params)
        # The slopes the file records, now in the cache. Where each value
        # range collapses to one float (a very wide support), they are 0.
        for v, _, dphi in rel.table():
            if not dphi > 0:
                raise ConstructionError(
                    f"mean relabeling: the conditional mean's slope "
                    f"{dphi!r} at v={v!r} is not positive")
        return rel

    if kind == "inverse_hazard_integral":
        # the inverse hazard on phi1's axis is S/f * phi1'
        def phi_prime(vs):
            return dphi1(vs) ** 2 * _sf_over_pdf(signal, vs)

        lat_v = np.linspace(lo, hi, _LATTICE_N)
        lat_w = _kahan_cumulative(phi_prime, lat_v, w_lo,
                                  "inverse_hazard_integral")
        return Relabeling(kind, dom, _piecewise_phi(phi_prime, lat_v, lat_w),
                          phi_prime, lat_v, lat_w, w_hi=float(lat_w[-1]),
                          params=params)

    if kind == "integrated_hazard":
        # -log of the survival, which phi1 leaves where it was
        def phi(vs):
            s = signal.sf_many(vs)
            w = np.full(vs.shape, math.inf)
            live = ~(s <= 0.0)
            w[live] = w_lo - _exact_map(math.log, s[live])
            return w

        def phi_prime(vs):
            return _pdf_over_sf(signal, vs)

        v_cap = hi - _TAIL_GAP * span
        lat_v = np.linspace(lo, v_cap, _LATTICE_N)
        return Relabeling(kind, dom, phi, phi_prime, lat_v, phi(lat_v),
                          w_hi=float(phi(np.array([hi]))[0]), params=params)

    # runningmax_hazard, of the hazard f / (S * phi1') on phi1's axis
    v_cap = hi - _TAIL_GAP * span
    g_nodes = np.linspace(lo, v_cap, _RUNNINGMAX_N)
    try:
        hazard = _pdf_over_sf(signal, g_nodes)
    except DomainError as exc:  # the density is unbounded at the first node
        raise ConstructionError(f"runningmax_hazard: {exc}") from exc
    d_nodes = dphi1(g_nodes)
    # where f/S and phi1' vanish together the hazard starts at 0, as below
    g_vals = np.maximum.accumulate(np.divide(
        hazard, d_nodes, out=np.zeros(g_nodes.shape),
        where=(hazard != 0.0) | (d_nodes != 0.0)))
    g_last = float(g_vals[-1])

    def phi_prime(v):
        d = dphi1(v)
        k = np.clip(np.searchsorted(g_nodes, v, side="right") - 1, 0,
                    len(g_nodes) - 1)
        g = g_vals[k]
        tail = v >= v_cap
        # A hazard that starts at 0 (a density vanishing at the lower
        # endpoint) takes the ratio's limit 1 as it rises from 0.
        ratio = (g != 0.0) & ~tail
        out = np.ones(v.shape)
        out[ratio] = _pdf_over_sf(signal, v[ratio]) / d[ratio] / g[ratio]
        # Past v_cap the hazard is measured against the last running
        # maximum, and the ratio is 1 where the survival has vanished.
        v_tail = v[tail]
        s = signal.sf_many(v_tail)
        live = ~(s <= 0.0)
        # a ratio that overflows is at the maximum anyway
        with np.errstate(over="ignore"):
            h = signal.pdf_many(v_tail[live]) / s[live] / d[tail][live]
        at_max = h >= g_last
        h[at_max] = 1.0
        h[~at_max] /= g_last
        slope_tail = np.ones(v_tail.shape)
        slope_tail[live] = h
        out[tail] = slope_tail
        return out * d

    lat_w = _kahan_cumulative(phi_prime, g_nodes, w_lo, "runningmax_hazard")
    phi = _piecewise_phi(phi_prime, g_nodes, lat_w)
    # over a half-line inner codomain the slope integral diverges at hi
    w_hi = (math.inf if math.isinf(inner.codomain.upper)
            else float(phi(np.array([hi]))[0]))
    return Relabeling("runningmax_hazard", dom, phi, phi_prime, g_nodes,
                      lat_w, w_hi=w_hi, params=params)


# ---------------------------------------------------------------------------
# the induced model


def _over_slope(x: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """x / slope, raising where the scalar forms' float division does and
    overflowing to inf without a warning, as it does."""
    if (slope == 0.0).any():
        raise ZeroDivisionError("float division by zero")
    with np.errstate(over="ignore"):
        return x / slope


class _Relabeled:
    """The ``family`` and ``params`` of a base family seen through a
    relabeling ``rel``."""

    family = "relabeled"

    def params(self):
        return {"relabeling": self.rel.describe(),
                "base": self.base.describe()}


class _RelabeledSignal(_Relabeled, SignalDistribution):
    """Pushforward of the base signal through the relabeling."""

    def __init__(self, base: SignalDistribution, rel: Relabeling):
        # The codomain may be a half line (integrated hazard), so skip the
        # bounded-support requirement the base class enforces.
        self.base = base
        self.rel = rel
        self.support = rel.codomain

    def _cdf_array(self, w):
        return self.base.cdf_many(self.rel.inverses(w))

    def _sf_array(self, w):
        return self.base.sf_many(self.rel.inverses(w))

    def _pdf_array(self, w):
        v = self.rel.inverses(w)
        return _over_slope(self.base.pdf_many(v), self.rel.phi_primes(v))


class _RelabeledKernel(_Relabeled, ValuationKernel):
    """The base kernel conditioned through the relabeling's preimage."""

    def __init__(self, base: ValuationKernel, rel: Relabeling):
        super().__init__(base.support)
        self.base = base
        self.rel = rel

    def check_signal_support(self, support):
        # Constraints on the base signal were enforced when the base model
        # was built; the relabeled axis carries none of its own.
        return None

    def cdf(self, w, V):
        return self.base.cdf(self.rel.inverse(w), V)

    def pdf(self, w, V):
        return self.base.pdf(self.rel.inverse(w), V)

    def cdf_dv(self, w, V):
        v = self.rel.inverse(w)
        d = self.base.cdf_dv(v, V)
        if d is None:
            return None
        return d / self.rel.phi_prime(v)

    def cdf_many(self, w, V):
        return self.base.cdf_many(self.rel.inverses(w), V)

    def _read(self, model, w, V, tol, record=()):
        # the readers pass w as a column: one inverse and one slope per row
        v = self.rel.inverses(w)
        H, h, dHdv = self.base._read(model.base, v, V, tol, record)
        return H, h, _over_slope(dHdv, self.rel.phi_primes(v))

    def quantile(self, w, p):
        return self.base.quantile(self.rel.inverse(w), p)


class TransformedModel(ScreeningModel):
    """A screening model whose signal axis has been relabeled.

    Presents the ordinary model interface; ``base`` and ``relabeling`` stay
    accessible for identity checks and serialization. The signal grid is the
    image of the base grid, which keeps grid evaluations exact (each grid
    point's preimage is a cache hit) and sidesteps unbounded codomains.
    """

    def __init__(self, base: ScreeningModel, relabeling: Relabeling):
        if isinstance(base, TransformedModel):
            raise ConstructionError(
                "a derived model is relabeled on its base axis")
        if relabeling.domain.as_tuple() != base.signal.support.as_tuple():
            raise ConstructionError(
                "relabeling domain does not match the model's signal support")
        super().__init__(signal=_RelabeledSignal(base.signal, relabeling),
                         kernel=_RelabeledKernel(base.kernel, relabeling))
        self.base = base
        self.relabeling = relabeling

    def signal_grid(self, grid=None):
        return self.relabeling.phis(self.base.signal_grid(grid))


def _self_check(base: ScreeningModel, tm: TransformedModel,
                rel: Relabeling) -> None:
    rng = random.Random(_SELF_CHECK_SEED)
    lo, hi = base.signal.support.as_tuple()
    # each probe draws its signal, then its value within the range there
    u = np.array([rng.random() for _ in range(2 * _SELF_CHECK_POINTS)])
    vs = lo + (hi - lo) * (0.02 + 0.96 * u[0::2])
    V_lo, V_hi = np.array([base.value_range(v) for v in vs.tolist()]).T
    Vs = V_lo + (V_hi - V_lo) * (0.02 + 0.96 * u[1::2])
    err = _identity_errors(base, tm, rel, vs, Vs)
    bad = np.flatnonzero(~(err <= _SELF_CHECK_TOL))  # NaN fails
    if bad.size:
        k = bad[np.argmax(err[bad])]
        raise SelfCheckError(
            f"relabeling self-check failed at {bad.size} of "
            f"{_SELF_CHECK_POINTS} probe points; worst relative error "
            f"{err[k]:.3e} at (v, V) = {(float(vs[k]), float(Vs[k]))}")


def _identity_errors(base: ScreeningModel, tm: TransformedModel,
                     rel: Relabeling, vs: np.ndarray,
                     Vs: np.ndarray) -> np.ndarray:
    """Each probe's largest relative error over the identities, every
    quantity from one array call, whose own error stands. Where an
    identity is undefined, ``_unevaluable`` raises: for the map first."""
    # a step relative to the domain's width, capped at 0.4x the room to its
    # nearer end as delta_diagnostic caps its own
    lo, hi = base.signal.support.as_tuple()
    h, points = stencil(vs, np.minimum(1e-5 * np.maximum(hi - lo, np.abs(vs)),
                                       0.4 * np.minimum(vs - lo, hi - vs)))
    f = rel.phis(np.stack(points, axis=1).ravel()).reshape(-1, 5)
    p = rel.phi_primes(vs)
    _unevaluable(vs, Vs, {"NaN in the map's difference stencil":
                          np.isnan(f).any(axis=1),
                          "zero slope phi'": p == 0.0})
    vanished = undefined = np.zeros(vs.shape, dtype=bool)
    # per model: the hazard, -dH/dv, h and the inverse hazard, the last
    # three for gamma and virtual_value at the probe pairs
    parts = []
    for m, x in ((base, vs), (tm, f[:, 0])):
        dens, rate = [c[:, 0] for c in m.kernel.pdf_cdf_dv_many(
            m, x[:, None], Vs[:, None])]
        inv = _inverse_hazard(m, x)
        vanished = vanished | (dens < _DENSITY_FLOOR)
        undefined = undefined | np.isnan(inv)
        parts.append((_pdf_over_sf(m.signal, x), -rate, dens, inv))
    _unevaluable(vs, Vs, {"conditional density vanished": vanished,
                          "signal hazard undefined": undefined})
    with np.errstate(invalid="ignore", over="ignore"):
        (haz_b, g_b, psi_b), (haz_t, g_t, psi_t) = [
            (hz, num / den, Vs - inv * (num / den))
            for hz, num, den, inv in parts]
        # The declared slope must be the actual derivative of phi; the
        # scaling identities below cannot see this because the relabeled
        # densities are defined through the same slope. Corner points
        # (running-max maps have them) are skipped via the kink flag.
        est, est_err, kink = richardson(h, *f.T)
        scale = np.fmax(1.0, np.abs(p))
        slope_err = np.abs(est - p) / scale
        slope_off = ~kink & (slope_err
                             > np.fmax(1e-3, 20.0 * est_err / scale))
        want = haz_b / p
        errs = [np.abs(haz_t - want) / np.fmax(1.0, np.abs(want)),
                np.abs(g_t * p - g_b) / np.fmax(1.0, np.abs(g_b)),
                np.abs(psi_t - psi_b) / np.fmax(1.0, np.abs(psi_b))]
    # each probe's max() over its errors (the slope's only where it is
    # off), which meets a NaN in list order
    err = np.where(slope_off, slope_err, errs[0])
    for e in errs:
        err = np.where(e > err, e, err)
    return err


def _unevaluable(vs: np.ndarray, Vs: np.ndarray, causes: dict) -> None:
    """Raise ``EvaluationError`` at the first probe (v, V) where a mask of
    ``causes`` ({text: mask}) holds, naming the first cause true there."""
    failed = np.stack(list(causes.values()))
    if failed.any():
        k = _first(failed.any(axis=0))
        raise EvaluationError(
            f"relabeling self-check cannot evaluate the probe (v, V) = "
            f"{(float(vs[k]), float(Vs[k]))}: "
            f"{list(causes)[_first(failed[:, k])]}")


def apply_relabeling(model: ScreeningModel,
                     relabeling: Relabeling) -> TransformedModel:
    """Relabel the model and verify the scaling identities at probe points.

    The probes confirm that the relabeled hazard equals the base hazard over
    phi', the relabeled ratio times phi' equals the base ratio, and the
    virtual value is unchanged. Failure raises SelfCheckError. A derived
    model is relabeled on its base axis, so the result is over its base.
    """
    if isinstance(model, TransformedModel):
        model = model.base
    tm = TransformedModel(model, relabeling)
    _self_check(model, tm, relabeling)
    return tm


def relabel(model: ScreeningModel, kind: str, **kwargs) -> TransformedModel:
    """make_relabeling plus apply_relabeling in one step."""
    return apply_relabeling(model, make_relabeling(model, kind, **kwargs))


# ---------------------------------------------------------------------------
# serialization of derived models


def transform_section(tm: TransformedModel) -> dict:
    """The numbers of the [transform] section that rebuilds tm, by file
    key: ``kind``, ``w_lo``, an affine map's ``slope`` and ``intercept``,
    the codomain as ``w_support`` and ``rel.table()`` as ``phi_table``."""
    rel = tm.relabeling
    if "inner" in rel.params:
        raise ConstructionError(
            "a relabeling of a derived model has no [transform] section")
    out = {"kind": rel.kind, "w_lo": rel.w_lo}
    if rel.kind == "affine":
        out["slope"] = rel.params["slope"]
        out["intercept"] = rel.params["intercept"]
    out["w_support"] = rel.codomain.as_tuple()
    try:
        out["phi_table"] = rel.table()
    except DomainError as exc:  # a slope at a density's singular endpoint
        raise ConstructionError(f"{rel.kind}: {exc}") from exc
    return out


def rebuild_from_section(base: ScreeningModel,
                         section: dict) -> TransformedModel:
    """Reconstruct a relabeled model from its [transform] section's
    numbers, keyed as ``transform_section`` gives them (``kind`` required).

    The relabeling is rebuilt from its kind and the base model, then the
    stored lattice is replayed against it: every recorded (v, w, phi')
    row must match the reconstruction, else SelfCheckError. The stored
    numbers are a consistency record, not an alternative definition.
    """
    kind = section["kind"]
    kwargs = {key: section[key] for key in ("w_lo", "slope", "intercept")
              if key in section}
    with _about("slope" if kind == "affine" else "kind"):
        rel = make_relabeling(base, kind, **kwargs)

    if "w_support" in section:
        with _about("w_support"):
            want_lo, want_hi = section["w_support"]
            got_lo, got_hi = rel.codomain.as_tuple()

            def off(got, want):  # NaN is off; an infinite end matches itself
                return not (got == want or abs(got - want)
                            <= 1e-8 * max(1.0, abs(want)) < math.inf)

            if off(got_lo, want_lo):
                raise SelfCheckError(
                    f"rebuilt codomain starts at {got_lo!r}, file says "
                    f"{want_lo!r}")
            if off(got_hi, want_hi):
                raise SelfCheckError(
                    f"rebuilt codomain ends at {got_hi!r}, file says "
                    f"{want_hi!r}")

    if "phi_table" in section:
        with _about("phi_table"):
            _replay_table(rel, section["phi_table"])
    return apply_relabeling(base, rel)


@contextlib.contextmanager
def _about(key: str):
    """Name the section key a rebuild error raised inside is about, as its
    ``key`` attribute, so that the model file can give that key's line."""
    try:
        yield
    except (ConstructionError, SelfCheckError, IntegrabilityError) as exc:
        exc.key = key
        raise


def _first(mask: np.ndarray) -> int:
    """The index of the first True of ``mask``, else its length."""
    return int(np.argmax(np.append(mask, True)))


def _replay_table(rel: Relabeling, table) -> None:
    """Match every recorded (v, w, phi') row of ``table``, as an (n, 3)
    array, against the rebuilt map, from one array of phis and one of
    slopes. The first row that leaves the domain or does not match raises,
    as a replay row by row meets it (a map or slope that fails to evaluate
    inside the domain raises first)."""
    v, w, p = np.array(table, dtype=float).reshape(-1, 3).T
    n = _first(~((rel.domain.lower <= v) & (v <= rel.domain.upper)))
    w_got, p_got = rel.phis(v[:n]), rel.phi_primes(v[:n])
    with np.errstate(invalid="ignore"):  # NaN is off
        w_off = ~(np.abs(w_got - w[:n]) <= 1e-8 * np.fmax(1.0, np.abs(w[:n])))
        k = _first(w_off | ~(np.abs(p_got - p[:n])
                             <= 1e-6 * np.fmax(1.0, np.abs(p[:n]))))
    if k < n:
        name, got, want = ("phi", w_got, w) if w_off[k] else ("phi'", p_got, p)
        raise SelfCheckError(
            f"rebuilt {name}({float(v[k])!r}) = {float(got[k])!r} does not "
            f"match the recorded {float(want[k])!r}")
    if n < len(v):
        rel.phi(v[n])  # outside the domain: raises
