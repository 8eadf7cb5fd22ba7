"""The lattice bundle: one evaluation per command, array fields equal to the
closed-form references bit for bit, and the scalar fallback for other
kernels."""

import math

import numpy as np
import pytest

from seqscreen import model_core, propositions, regularity
from seqscreen.errors import DomainError
from seqscreen.model_core import (
    AdditiveNoiseKernel,
    DEFAULT_TOLERANCES,
    GridSpec,
    ScreeningModel,
    TableKernel,
    eval_kernel,
    make_kernel,
    make_signal,
)
from seqscreen.propositions import verify, verify_prop2
from seqscreen.regularity import _evaluate_bundle, regularity_report
from seqscreen.transforms import relabel

from reference_forms import kernel_forms

SMALL = GridSpec(v_points=17, V_points=19)


def _logistic_table_kernel():
    V_nodes = np.linspace(-4.0, 5.0, 17)
    rows = [1.0 / (1.0 + np.exp(-(V_nodes - v))) for v in (0.0, 0.5, 1.0)]
    return TableKernel([0.0, 0.5, 1.0], V_nodes, rows)


def _models():
    uniform = make_signal("uniform", (0.0, 1.0))
    return {
        "normal": ScreeningModel(uniform, make_kernel(
            "additive_noise", noise="normal", scale=0.5)),
        "logistic": ScreeningModel(uniform, make_kernel(
            "additive_noise", noise="logistic")),
        "laplace": ScreeningModel(uniform, make_kernel(
            "additive_noise", noise="laplace", scale=0.01)),
        "power": ScreeningModel(make_signal("uniform", (0.5, 2.0)),
                                make_kernel("power")),
        # the signal grid starts below 1e-5, where exp_tilt switches to its
        # small-signal expansion
        "exp_tilt": ScreeningModel(make_signal("uniform", (0.0, 0.05)),
                                   make_kernel("exp_tilt")),
        "table": ScreeningModel(uniform, _logistic_table_kernel()),
    }


MODELS = _models()


def _lattice(model, seed):
    """Grid points, the lowest signal, random interior points, and points
    outside the domain."""
    rng = np.random.default_rng(seed)
    vs = model.signal_grid(SMALL)
    Vs = model.value_grid(SMALL)
    s_lo, s_hi = model.signal.support.as_tuple()
    k_lo, k_hi = model.kernel.support.as_tuple()
    v_out = [s_hi + 0.25 * (s_hi - s_lo)]
    V_out = [x for x in (k_lo, k_hi) if math.isfinite(x)]
    vs = np.concatenate([vs, [s_lo], rng.uniform(vs[0], vs[-1], 23), v_out])
    Vs = np.concatenate([Vs, rng.uniform(Vs[0], Vs[-1], 29), V_out])
    return vs, Vs


def _reference_loop(model, forms, vs, Vs):
    """H, h and dHdv from the closed-form ``forms``, point by point; a
    signal outside the support or a value not interior to the kernel's
    fails."""
    s, k = model.signal.support, model.kernel.support
    out = np.full((3, len(vs), len(Vs)), np.nan)
    failed = np.zeros((len(vs), len(Vs)), dtype=bool)
    for i, v in enumerate(vs.tolist()):
        for j, V in enumerate(Vs.tolist()):
            if not (s.contains(v) and k.contains(V, closed=False)):
                failed[i, j] = True
                continue
            out[:, i, j] = [f(v, V) for f in forms]
    return out, failed


def _assert_lattice_matches_reference(model, seed):
    vs, Vs = _lattice(model, seed)
    H, h, dHdv, failed = model.kernel.eval_lattice(
        model, vs[:, None], Vs[None, :], DEFAULT_TOLERANCES)
    forms = kernel_forms(model.kernel)
    want, want_failed = _reference_loop(model, forms, vs, Vs)
    assert want_failed.any()
    np.testing.assert_array_equal(failed, want_failed)
    for got, ref in zip((H, h, dHdv), want):
        assert np.array_equal(got, ref, equal_nan=True)
    # the scalar evaluators are the same fields at one point
    for v, V in zip(vs[:-1:7].tolist(), Vs[:-3:5].tolist()):
        ke = eval_kernel(model, v, V)
        assert [ke.H, ke.h, ke.dHdv] == [f(v, V) for f in forms]


@pytest.fixture
def bundle_calls(monkeypatch):
    calls = []
    original = regularity._evaluate_bundle

    def counted(model, grid, tol):
        calls.append(model)
        return original(model, grid, tol)

    for module in (regularity, propositions):
        monkeypatch.setattr(module, "_evaluate_bundle", counted)
    return calls


class TestOneBundlePerCommand:
    def test_regularity_report(self, bundle_calls):
        regularity_report(MODELS["power"], SMALL)
        assert len(bundle_calls) == 1

    def test_verify_prop2(self, bundle_calls):
        verify_prop2(MODELS["power"], SMALL)
        assert len(bundle_calls) == 1

    def test_verify_prop3_both_directions(self, bundle_calls):
        out = verify(MODELS["logistic"], 3, SMALL)
        assert set(out) == {"forward", "converse"}
        assert len(bundle_calls) == 1


class TestArrayFields:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_equals_scalar_loop(self, name):
        assert MODELS[name].kernel._exact_arrays()
        for seed in range(3):
            _assert_lattice_matches_reference(MODELS[name], seed)

    def test_relabeled_equals_scalar_loop(self):
        tm = relabel(MODELS["logistic"], "inverse_hazard_integral")
        assert tm.kernel._exact_arrays()
        _assert_lattice_matches_reference(tm, 0)

    def test_exp_tilt_small_signal_branch(self):
        # below |v| = 1e-5 the fields take the expansion, at v = 0 too
        kernel = make_kernel("exp_tilt")
        vs = np.array([0.0, 1e-300, 3e-6, -9.9e-6, 1e-5, 0.3])
        Vs = np.array([1e-4, 0.25, 0.5, 0.9999])
        fields = kernel._fields(vs[:, None], Vs[None, :])
        forms = kernel_forms(kernel)
        for got, ref in zip(fields, forms):
            assert np.array_equal(got, [[ref(v, V) for V in Vs.tolist()]
                                        for v in vs.tolist()])
        for v in vs.tolist():
            assert kernel.cdf(v, 0.5) == forms[0](v, 0.5)
            assert kernel.pdf(v, 0.5) == forms[1](v, 0.5)
            assert kernel.cdf_dv(v, 0.5) == forms[2](v, 0.5)

    def test_table_kernel_at_nodes_edges_and_outside(self):
        kernel = _logistic_table_kernel()
        cdf, pdf, cdf_dv = kernel_forms(kernel)
        V_nodes = kernel.params()["V_nodes"]
        # the nodes, a cell's edges from inside, and midpoints
        Vs = sorted({*V_nodes[1:-1], *np.nextafter(V_nodes[1:], -np.inf),
                     *np.nextafter(V_nodes[:-1], np.inf),
                     *np.add(V_nodes[1:], V_nodes[:-1]) / 2})
        vs = [0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.75, 1.0]
        for v in vs:
            for V in Vs:
                assert kernel.cdf(v, V) == cdf(v, V)
                assert kernel.pdf(v, V) == pdf(v, V)
                assert kernel.cdf_dv(v, V) == cdf_dv(v, V)
            # outside the value support, and at its ends, the cdf clamps
            for V in (-math.inf, -7.0, -4.0, 5.0, 6.5, math.inf):
                assert kernel.cdf(v, V) == cdf(v, V) == (V > 0.0)
            row = np.array([[-7.0, *Vs, 6.5]])
            assert np.array_equal(
                kernel._cdf_field(np.array([[v]]), row)[0],
                [cdf(v, V) for V in row[0].tolist()])

    @pytest.mark.parametrize("kernel", [
        make_kernel("power"), make_kernel("exp_tilt"),
        make_kernel("additive_noise"), _logistic_table_kernel()],
        ids=lambda k: k.family)
    def test_pdf_and_slope_need_an_interior_value(self, kernel):
        lo, hi = kernel.support.as_tuple()
        for V in (lo, hi, lo - 0.3, hi + 0.3, math.nan):
            # the power density's formula would give a complex number
            # at V = -0.3
            for evaluator in (kernel.pdf, kernel.cdf_dv):
                with pytest.raises(DomainError, match="not interior"):
                    evaluator(0.5, V)

    def test_additive_slope_is_exactly_minus_density(self):
        model = MODELS["logistic"]
        b = _evaluate_bundle(model, SMALL, DEFAULT_TOLERANCES)
        assert np.array_equal(b.dHdv, -b.h)
        assert np.all(b.gamma == 1.0)


class _BandedKernel(AdditiveNoiseKernel):
    """Logistic noise whose density refuses one band of values; it has no
    array form of its own, so the lattice falls back to eval_kernel."""

    def __init__(self, band):
        super().__init__("logistic")
        self.band = band

    def pdf(self, v, V):
        if self.band[0] < V < self.band[1]:
            raise DomainError(f"no density at V={V!r}")
        return super().pdf(v, V)


class TestScalarFallback:
    def test_banded_kernel_reports_band_as_failures(self, monkeypatch):
        plain = MODELS["logistic"]
        grid = GridSpec(v_points=9, V_points=129)
        Vs = plain.value_grid(grid)
        band = (Vs[40] - 1e-9, Vs[40] + 1e-9)
        model = ScreeningModel(plain.signal, _BandedKernel(band))
        assert not model.kernel._exact_arrays()

        calls = []
        original = model_core.eval_kernel

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(model_core, "eval_kernel", counted)
        b = _evaluate_bundle(model, grid, DEFAULT_TOLERANCES)
        assert len(calls) == 9 * 129
        vs = plain.signal_grid(grid).tolist()
        assert b.kernel_failures == [(v, Vs[40]) for v in vs]

        ref = _evaluate_bundle(plain, grid, DEFAULT_TOLERANCES)
        keep = np.ones(b.h.shape, dtype=bool)
        keep[:, 40] = False
        for name in ("H", "h", "dHdv", "gamma", "psi"):
            got, want = getattr(b, name), getattr(ref, name)
            assert np.all(np.isnan(got[:, 40]))
            assert np.array_equal(got[keep], want[keep])

        rep = regularity_report(model, grid).to_dict()
        want = regularity_report(plain, grid).to_dict()
        for code in ("A1", "A2", "FOSD", "PSI"):
            assert rep["checks"][code]["n_failed"] == 9
            rep["checks"][code]["n_failed"] = 0
        assert rep == want
