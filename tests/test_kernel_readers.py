"""The kernel readers ``cdf_many`` and ``pdf_cdf_dv_many``: a kernel
without array fields of its own, read point by point through its scalar
evaluators, gives the bits its family's array fields give, and the first
failure in row order raises."""

import numpy as np
import pytest

from seqscreen.errors import DomainError
from seqscreen.model_core import (
    GridSpec,
    ScreeningModel,
    ValuationKernel,
    eval_kernel,
    make_kernel,
    make_signal,
)
from test_lattice import _logistic_table_kernel


FAMILIES = {
    "normal": (make_kernel("additive_noise", noise="normal", scale=0.5),
               (0.0, 1.0)),
    "logistic": (make_kernel("additive_noise", noise="logistic"), (0.0, 1.0)),
    "laplace": (make_kernel("additive_noise", noise="laplace", scale=0.05),
                (0.0, 1.0)),
    "power": (make_kernel("power"), (0.5, 2.0)),
    # from v = 0, in the small-signal expansion, up past the scaled form
    "exp_tilt": (make_kernel("exp_tilt"), (0.0, 800.0)),
    "table": (_logistic_table_kernel(), (0.0, 1.0)),
}


class _Forwarding(ValuationKernel):
    """A family's scalar evaluators and nothing else; its density refuses
    the points where ``band(v, V)`` holds."""

    family = "forwarding"

    def __init__(self, inner, band=None):
        super().__init__(inner.support)
        self.inner = inner
        self.band = band

    def cdf(self, v, V):
        return self.inner.cdf(v, V)

    def pdf(self, v, V):
        if self.band is not None and self.band(v, V):
            raise DomainError(f"no density at {(v, V)!r}")
        return self.inner.pdf(v, V)

    def cdf_dv(self, v, V):
        return self.inner.cdf_dv(v, V)


def _models(name, band=None):
    kernel, support = FAMILIES[name]
    signal = make_signal("uniform", support)
    return (ScreeningModel(signal, kernel),
            ScreeningModel(signal, _Forwarding(kernel, band)))


def _point_sets(model):
    """A 9x9 lattice (a column against a row), probe pairs (a column
    against a column) and the (m, 15) nodes of m batched integrals."""
    grid = GridSpec(v_points=9, V_points=9)
    rng = np.random.default_rng(7)
    lo, hi = model.signal.support.as_tuple()
    vs = lo + (hi - lo) * rng.uniform(0.01, 0.99, 12)
    ranges = np.array([model.value_range(v) for v in vs.tolist()])
    probes = ranges[:, :1] + np.diff(ranges)[:, :1] * rng.uniform(
        0.02, 0.98, (12, 1))
    nodes = ranges[:4, :1] + np.diff(ranges)[:4, :1] * rng.uniform(
        0.01, 0.99, (4, 15))
    return [(model.signal_grid(grid)[:, None], model.value_grid(grid)[None, :]),
            (vs[:, None], probes), (vs[:4, None], nodes)]


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_scalar_path_gives_the_family_bits(name):
    plain, forwarding = _models(name)
    assert plain.kernel._exact_arrays()
    assert not forwarding.kernel._exact_arrays()
    for v, V in _point_sets(plain):
        _same(forwarding.kernel.cdf_many(v, V), plain.kernel.cdf_many(v, V))
        got = forwarding.kernel.pdf_cdf_dv_many(forwarding, v, V)
        want = plain.kernel.pdf_cdf_dv_many(plain, v, V)
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            _same(g, w)


def test_scalar_path_raises_at_the_first_banded_point_in_row_order():
    # the band crosses the lattice diagonally, so the first banded point
    # in row order is not the first in column order
    plain, _ = _models("logistic")
    grid = GridSpec(v_points=9, V_points=9)
    v = plain.signal_grid(grid)[:, None]
    V = plain.value_grid(grid)[None, :]
    band = lambda a, b: 3.0 < b + 20.0 * a < 8.0
    _, forwarding = _models("logistic", band)
    rows, cols = np.nonzero((3.0 < V + 20.0 * v) & (V + 20.0 * v < 8.0))
    first = (float(v[rows[0], 0]), float(V[0, cols[0]]))
    assert first != (float(v[rows[np.argmin(cols)], 0]),
                     float(V[0, cols.min()]))
    with pytest.raises(DomainError) as info:
        forwarding.kernel.pdf_cdf_dv_many(forwarding, v, V)
    assert str(info.value) == f"no density at {first!r}"


@pytest.mark.parametrize("name", ["power", "exp_tilt", "table"])
def test_array_path_raises_eval_kernels_error_at_the_first_boundary_value(
        name):
    plain, forwarding = _models(name)
    lo, hi = plain.kernel.support.as_tuple()
    v = plain.signal_grid(GridSpec(v_points=3, V_points=3))[:, None]
    V = np.array([[0.5 * (lo + hi), hi, lo]])
    for model in (plain, forwarding):
        with pytest.raises(DomainError) as info:
            model.kernel.pdf_cdf_dv_many(model, v, V)
        with pytest.raises(DomainError) as scalar:
            eval_kernel(model, float(v[0, 0]), hi)
        assert str(info.value) == str(scalar.value)
