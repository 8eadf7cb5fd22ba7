"""Signal families, kernel families, and the primitive evaluations.

Closed-form reference values were worked out by hand (or against scipy's
distributions where noted) and frozen here; tolerances reflect how each
number was derived, not wishful thinking.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscreen.errors import ConstructionError, DomainError
from seqscreen.model_core import (
    AdditiveNoiseKernel,
    BetaSignal,
    ExpTiltKernel,
    GridSpec,
    PowerKernel,
    ScreeningModel,
    TableKernel,
    TableSignal,
    ToleranceConfig,
    UniformSignal,
    conditional_mean,
    conditional_mean_derivative,
    eval_kernel,
    make_kernel,
    make_signal,
    validate_model,
)
from seqscreen.numerics import Interval, integrate
from seqscreen.transforms import relabel


def uniform_logistic():
    return ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                          AdditiveNoiseKernel(noise="logistic", scale=1.0))


def power_model():
    return ScreeningModel(UniformSignal(Interval(1.0, 2.0)), PowerKernel())


class TestSignals:
    def test_uniform_basics(self):
        sig = UniformSignal(Interval(0.0, 2.0))
        assert sig.cdf(0.5) == 0.25
        assert sig.sf(0.5) == 0.75
        assert sig.pdf(1.7) == 0.5
        with pytest.raises(DomainError):
            sig.cdf(2.5)

    def test_beta_2_2_midpoint(self):
        sig = BetaSignal(2.0, 2.0)
        # F(x) = 3x^2 - 2x^3, f(x) = 6x(1-x); at x = 0.5 these are 0.5, 1.5.
        assert sig.cdf(0.5) == pytest.approx(0.5, abs=1e-14)
        assert sig.pdf(0.5) == pytest.approx(1.5, abs=1e-13)
        assert sig.cdf(0.25) == pytest.approx(3 * 0.0625 - 2 * 0.015625,
                                              abs=1e-14)

    def test_beta_survival_keeps_relative_accuracy(self):
        sig = BetaSignal(2.0, 2.0)
        v = 1.0 - 1e-7
        # 1 - F(1-e) = 3e^2 - 2e^3 for small e.
        expected = 3e-14 - 2e-21
        assert sig.sf(v) == pytest.approx(expected, rel=1e-9)

    def test_beta_rescaled_support(self):
        sig = BetaSignal(2.0, 3.0, Interval(1.0, 3.0))
        ref = BetaSignal(2.0, 3.0)
        assert sig.cdf(2.0) == pytest.approx(ref.cdf(0.5), abs=1e-15)
        assert sig.pdf(2.0) == pytest.approx(ref.pdf(0.5) / 2.0, abs=1e-15)

    def test_beta_rejects_bad_shapes(self):
        with pytest.raises(ConstructionError):
            BetaSignal(0.0, 1.0)

    def test_table_uniform_density(self):
        sig = TableSignal([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
        assert sig.cdf(0.25) == pytest.approx(0.25, abs=1e-15)
        assert sig.sf(0.25) == pytest.approx(0.75, abs=1e-15)
        assert sig.pdf(0.75) == pytest.approx(1.0, abs=1e-15)

    def test_table_normalizes_mass(self):
        sig = TableSignal([0.0, 1.0], [3.0, 1.0])
        assert sig.cdf(1.0) == pytest.approx(1.0, abs=1e-15)
        # density after normalization: (3 - 2x) / 2
        assert sig.pdf(0.0) == pytest.approx(1.5, abs=1e-15)
        assert sig.pdf(1.0) == pytest.approx(0.5, abs=1e-15)
        assert sig.cdf(0.5) == pytest.approx((1.5 * 0.5 - 0.25 * 0.5), abs=1e-15)

    def test_table_survival_near_top(self):
        vs = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        fs = [3.0, 1.2, 0.7, 0.55, 0.8, 1.6]
        sig = TableSignal(vs, fs)
        v = 1.0 - 1e-9
        s = sig.sf(v)
        assert 0.0 < s < 1e-8
        # Local linearity: survival over the last sliver is about pdf * gap.
        assert s == pytest.approx(sig.pdf(1.0) * 1e-9, rel=1e-6)

    def test_table_rejects_malformed_input(self):
        with pytest.raises(ConstructionError):
            TableSignal([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ConstructionError):
            TableSignal([0.0, 1.0], [1.0])
        with pytest.raises(ConstructionError):
            TableSignal([0.0, 0.5, 1.0], [1.0, -0.5, 1.0])

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_beta_cdf_plus_sf_is_one(self, v):
        sig = BetaSignal(2.0, 2.0)
        assert sig.cdf(v) + sig.sf(v) == pytest.approx(1.0, abs=1e-12)


class TestAdditiveNoiseKernel:
    def test_logistic_frozen_point(self):
        k = AdditiveNoiseKernel(noise="logistic", scale=1.0)
        # At v = 0.5, V = 0.5 the noise argument is 0: cdf 1/2, density 1/4.
        assert k.cdf(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert k.pdf(0.5, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert k.cdf_dv(0.5, 0.5) == pytest.approx(-0.25, abs=1e-15)

    def test_dv_is_exactly_minus_density(self):
        for noise in ("logistic", "normal", "laplace"):
            k = AdditiveNoiseKernel(noise=noise, scale=0.7)
            for v, V in [(0.1, 0.4), (0.9, -2.3), (0.5, 0.5)]:
                assert k.cdf_dv(v, V) == -k.pdf(v, V)

    def test_normal_matches_erfc_form(self):
        k = AdditiveNoiseKernel(noise="normal", scale=1.0)
        assert k.cdf(0.0, 0.0) == pytest.approx(0.5, abs=1e-16)
        assert k.cdf(0.0, 1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
        assert k.pdf(0.0, 0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_laplace_quantile_round_trip(self):
        k = AdditiveNoiseKernel(noise="laplace", scale=2.0)
        for p in (0.01, 0.25, 0.5, 0.9, 0.999):
            V = k.quantile(0.3, p)
            assert k.cdf(0.3, V) == pytest.approx(p, abs=1e-12)

    def test_scale_validation(self):
        with pytest.raises(ConstructionError):
            AdditiveNoiseKernel(noise="logistic", scale=0.0)
        with pytest.raises(ConstructionError):
            AdditiveNoiseKernel(noise="cauchy")

    @given(st.floats(-3.0, 3.0), st.floats(1e-3, 1.0 - 1e-3))
    @settings(max_examples=50, deadline=None)
    def test_quantile_inverts_cdf(self, v, p):
        k = AdditiveNoiseKernel(noise="logistic", scale=1.3)
        assert k.cdf(v, k.quantile(v, p)) == pytest.approx(p, abs=1e-12)


class TestPowerKernel:
    def test_frozen_points(self):
        k = PowerKernel()
        assert k.cdf(1.0, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert k.pdf(1.0, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert k.cdf_dv(1.0, 0.5) == pytest.approx(-0.34657359027997264,
                                                   abs=1e-15)
        assert k.cdf(2.0, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert k.pdf(2.0, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert k.cdf_dv(2.0, 0.5) == pytest.approx(-0.17328679513998632,
                                                   abs=1e-15)

    def test_quantile(self):
        k = PowerKernel()
        assert k.quantile(2.0, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_nonpositive_signals(self):
        with pytest.raises(ConstructionError):
            ScreeningModel(UniformSignal(Interval(0.0, 1.0)), PowerKernel())
        with pytest.raises(ConstructionError):
            ScreeningModel(UniformSignal(Interval(-1.0, 2.0)), PowerKernel())


class TestExpTiltKernel:
    def test_unit_mass(self):
        k = ExpTiltKernel()
        for v in (0.5, 1.0, 2.0):
            mass, _ = integrate(lambda V: k.pdf(v, V), (0.0, 1.0))
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_cdf_endpoints(self):
        k = ExpTiltKernel()
        assert k.cdf(1.3, 0.0) == 0.0
        assert k.cdf(1.3, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_small_v_branch_matches_direct_form(self):
        k = ExpTiltKernel()
        # Just above the series switch the two branches must agree closely.
        for V in (0.2, 0.5, 0.8):
            direct = math.expm1(2e-5 * V) / math.expm1(2e-5)
            assert k.cdf(2e-5, V) == pytest.approx(direct, rel=1e-11)
            series = k.cdf(9e-6, V)
            beyond = math.expm1(9e-6 * V) / math.expm1(9e-6)
            assert series == pytest.approx(beyond, rel=1e-9)

    def test_dv_matches_finite_difference(self):
        k = ExpTiltKernel()
        h = 1e-6
        for v, V in [(1.0, 0.3), (0.5, 0.7), (2.0, 0.5)]:
            fd = (k.cdf(v + h, V) - k.cdf(v - h, V)) / (2 * h)
            assert k.cdf_dv(v, V) == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_dv_small_v_branch_continuity(self):
        k = ExpTiltKernel()
        for V in (0.25, 0.75):
            below = k.cdf_dv(9.9e-6, V)
            above = k.cdf_dv(1.01e-5, V)
            assert below == pytest.approx(above, rel=1e-4)

    def test_quantile_round_trip(self):
        k = ExpTiltKernel()
        for p in (0.1, 0.5, 0.9):
            assert k.cdf(1.5, k.quantile(1.5, p)) == pytest.approx(p, abs=1e-13)


class TestTableKernel:
    @staticmethod
    def logistic_table(nv=9, nV=257):
        ref = AdditiveNoiseKernel(noise="logistic", scale=1.0)
        v_nodes = np.linspace(0.0, 1.0, nv)
        V_nodes = np.linspace(-12.0, 13.0, nV)
        H = [[ref.cdf(v, V) for V in V_nodes] for v in v_nodes]
        return TableKernel(v_nodes, V_nodes, H), ref

    def test_interpolates_the_sampled_cdf(self):
        tab, ref = self.logistic_table()
        for v, V in [(0.5, 0.5), (0.25, -1.0), (0.8, 2.5)]:
            # Row renormalization shifts things by at most the cut tail mass.
            assert tab.cdf(v, V) == pytest.approx(ref.cdf(v, V), abs=5e-3)

    def test_row_endpoints_are_exact(self):
        tab, _ = self.logistic_table()
        assert tab.cdf(0.3, -12.0) == 0.0
        assert tab.cdf(0.3, 13.0) == 1.0

    def test_pdf_and_dv_are_interpolant_slopes(self):
        tab, _ = self.logistic_table()
        v, V = 0.37, 0.81
        eps_V = 1e-9
        slope_V = (tab.cdf(v, V + eps_V) - tab.cdf(v, V - eps_V)) / (2 * eps_V)
        assert tab.pdf(v, V) == pytest.approx(slope_V, rel=1e-5)
        eps_v = 1e-9
        slope_v = (tab.cdf(v + eps_v, V) - tab.cdf(v - eps_v, V)) / (2 * eps_v)
        assert tab.cdf_dv(v, V) == pytest.approx(slope_v, rel=1e-5)

    def test_rejects_decreasing_rows(self):
        with pytest.raises(ConstructionError):
            TableKernel([0.0, 1.0], [0.0, 0.5, 1.0],
                        [[0.0, 0.6, 1.0], [0.0, 0.7, 0.4]])

    def test_rejects_signal_support_outside_lattice(self):
        tab, _ = self.logistic_table()
        with pytest.raises(ConstructionError):
            ScreeningModel(UniformSignal(Interval(-0.5, 0.5)), tab)


class TestGridAndTolerances:
    def test_gridspec_validation(self):
        with pytest.raises(ConstructionError):
            GridSpec(v_points=1)
        with pytest.raises(ConstructionError):
            GridSpec(endpoint_margin=0.0)
        with pytest.raises(ConstructionError):
            GridSpec(tail_mass_cut=1e-2)

    def test_tolerance_validation(self):
        with pytest.raises(ConstructionError):
            ToleranceConfig(monotonicity_slack=0.0)

    def test_derivative_step_policy(self):
        tol = ToleranceConfig()
        assert tol.derivative_step(0.0) == 1e-5
        assert tol.derivative_step(10.0) == pytest.approx(1e-4)


class TestScreeningModelGrids:
    def test_signal_grid_margins(self):
        m = uniform_logistic()
        g = m.signal_grid(GridSpec(v_points=11, V_points=11))
        assert len(g) == 11
        assert g[0] == pytest.approx(1e-4)
        assert g[-1] == pytest.approx(1.0 - 1e-4)

    def test_value_grid_truncates_infinite_tails(self):
        m = uniform_logistic()
        spec = GridSpec(v_points=5, V_points=33)
        g = m.value_grid(spec)
        trunc = m.truncation_info(spec)
        assert trunc["lower"] is not None and trunc["upper"] is not None
        # logistic tail cut at 1e-9: quantile magnitude is about log(1e9) ~ 20.7
        assert g[0] == pytest.approx(0.0 - math.log(1e9 - 1.0), abs=1e-6)
        assert g[-1] == pytest.approx(1.0 + math.log(1e9 - 1.0), abs=1e-6)

    def test_value_grid_finite_support_uses_margins(self):
        m = power_model()
        g = m.value_grid(GridSpec(v_points=5, V_points=17))
        assert g[0] == pytest.approx(1e-4)
        assert g[-1] == pytest.approx(1.0 - 1e-4)
        assert m.truncation_info()["lower"] is None

    def test_value_range_depends_on_signal(self):
        m = uniform_logistic()
        lo1, hi1 = m.value_range(0.2)
        lo2, hi2 = m.value_range(0.8)
        assert lo2 == pytest.approx(lo1 + 0.6, abs=1e-9)
        assert hi2 == pytest.approx(hi1 + 0.6, abs=1e-9)


class _OpaqueKernel(AdditiveNoiseKernel):
    """Same law, but hides the analytic signal-derivative."""

    def cdf_dv(self, v, V):
        return None


class TestEvalPrimitives:
    def test_eval_kernel_frozen_logistic(self):
        ke = eval_kernel(uniform_logistic(), 0.5, 0.5)
        assert ke.H == pytest.approx(0.5, abs=1e-15)
        assert ke.h == pytest.approx(0.25, abs=1e-15)
        assert ke.dHdv == pytest.approx(-0.25, abs=1e-15)
        assert not ke.fosd_violation

    def test_eval_kernel_rejects_out_of_domain(self):
        m = power_model()
        with pytest.raises(DomainError):
            eval_kernel(m, 1.5, 0.0)
        with pytest.raises(DomainError):
            eval_kernel(m, 1.5, 1.0)
        with pytest.raises(DomainError):
            eval_kernel(m, 0.5, 0.5)

    def test_finite_difference_fallback_matches_analytic(self):
        m = ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                           _OpaqueKernel(noise="logistic", scale=1.0))
        ref = uniform_logistic()
        for v, V in [(0.5, 0.3), (0.1, -1.0), (0.97, 2.0)]:
            got = eval_kernel(m, v, V).dHdv
            want = eval_kernel(ref, v, V).dHdv
            assert got == pytest.approx(want, rel=1e-7, abs=1e-10)

    def test_fallback_handles_boundary_signal(self):
        m = ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                           _OpaqueKernel(noise="logistic", scale=1.0))
        ke = eval_kernel(m, 0.0, 0.5)
        # The stencil centre shifts inward by one step, so expect an O(step)
        # bias on top of the difference error.
        assert ke.dHdv == pytest.approx(-m.kernel.pdf(0.0, 0.5), rel=1e-4)


class TestConditionalMean:
    def test_power_closed_form(self):
        m = power_model()
        # H_v(V) = V^v on (0,1) has mean v / (v + 1).
        assert conditional_mean(m, 1.0) == pytest.approx(0.5, abs=1e-10)
        assert conditional_mean(m, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert conditional_mean(m, 1.5) == pytest.approx(0.6, abs=1e-10)

    def test_power_mean_slope(self):
        m = power_model()
        # d/dv of v/(v+1) is 1/(v+1)^2.
        assert conditional_mean_derivative(m, 1.0) == pytest.approx(0.25,
                                                                    abs=1e-8)
        assert conditional_mean_derivative(m, 2.0) == pytest.approx(1.0 / 9.0,
                                                                    abs=1e-8)

    def test_additive_means_are_the_signal(self):
        for noise in ("logistic", "normal", "laplace"):
            m = ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                               AdditiveNoiseKernel(noise=noise, scale=1.0))
            for v in (0.0, 0.31, 1.0):
                assert conditional_mean(m, v) == pytest.approx(v, abs=1e-7)
            assert conditional_mean_derivative(m, 0.5) == pytest.approx(
                1.0, abs=1e-7)

    def test_exp_tilt_mean_closed_form(self):
        m = ScreeningModel(UniformSignal(Interval(0.5, 2.0)), ExpTiltKernel())
        # E[V | v] = (v e^v - e^v + 1) / (v (e^v - 1))
        v = 1.0
        expected = (v * math.exp(v) - math.exp(v) + 1.0) / (v * math.expm1(v))
        assert conditional_mean(m, v) == pytest.approx(expected, abs=1e-10)

    def test_rejects_out_of_support_signal(self):
        with pytest.raises(DomainError):
            conditional_mean(uniform_logistic(), 1.5)

    @given(st.floats(1.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_mean_stays_inside_value_range(self, v):
        m = power_model()
        lo, hi = m.value_range(v)
        assert lo < conditional_mean(m, v) < hi


class TestValidateModel:
    def test_canonical_models_pass(self):
        # beta(0.5, 2) and beta(3, 0.5) have densities unbounded but
        # integrable at one endpoint, which the signal-mass check over the
        # grid window never integrates up to.
        for m in (uniform_logistic(), power_model(),
                  ScreeningModel(BetaSignal(2.0, 2.0),
                                 AdditiveNoiseKernel(noise="normal")),
                  ScreeningModel(BetaSignal(0.5, 2.0),
                                 AdditiveNoiseKernel(noise="logistic")),
                  ScreeningModel(BetaSignal(3.0, 0.5),
                                 AdditiveNoiseKernel(noise="logistic"))):
            result = validate_model(m)
            assert result.passed, result.issues()
            assert result.fosd_ok

    def test_ordering_violation_is_flagged_not_fatal(self):
        V_nodes = np.linspace(0.0, 1.0, 33)
        low = V_nodes ** 2   # row at v=0
        high = V_nodes       # row at v=1 sits above: wrong direction
        kernel = TableKernel([0.0, 1.0], V_nodes, [low, high])
        m = ScreeningModel(UniformSignal(Interval(0.0, 1.0)), kernel)
        result = validate_model(m)
        assert not result.fosd_ok
        assert result.passed, result.issues()

    def test_unnormalised_density_fails_signal_mass(self):
        class DoubledUniform(UniformSignal):
            def pdf(self, v):
                return 2.0 * super().pdf(v)

        m = ScreeningModel(DoubledUniform(Interval(0.0, 1.0)),
                           AdditiveNoiseKernel(noise="logistic"))
        result = validate_model(m)
        assert not result.passed
        assert "signal_mass" in result.issues()

    def test_relabeled_model_passes_chain_rule_spot_checks(self):
        tm = relabel(uniform_logistic(), "inverse_hazard_integral")
        result = validate_model(tm)
        assert result.passed, result.issues()
        chain = [c for c in result.checks if "relabeled_at" in c]
        assert len(chain) == 3
        assert all(c["passed"] for c in chain)
        mass = next(c for c in result.checks if c["name"] == "signal_mass")
        assert mass["axis"] == "base"

    def test_factories_cover_families(self):
        assert make_signal("uniform", support=(0.0, 1.0)).family == "uniform"
        assert make_signal("beta", alpha=2, beta=2).family == "beta"
        assert make_kernel("power").family == "power"
        assert make_kernel("additive_noise", noise="laplace").noise == "laplace"
        with pytest.raises(ConstructionError):
            make_signal("gamma", support=(0.0, 1.0))
        with pytest.raises(ConstructionError):
            make_kernel("mystery")
