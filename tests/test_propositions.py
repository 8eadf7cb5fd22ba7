"""Verification-suite tests on the canonical model set.

Expected verdicts worked out by hand:

* uniform signal, inverse-hazard-integral relabeling: the relabeled hazard
  is the squared base hazard at the preimage, 1/(1-2w) for the unit uniform,
  so the constant-profile reading must be flagged while A0 itself passes.
* near-exponential table signal: base hazard sits within about 5e-5 of 1
  where the cdf is clear of its top, so the squared profile stays within the
  flag tolerance and the suite reports consistent.
* power kernel on [1, 2]: lower value endpoint 0 is finite, A1 fails
  (ratio -V ln V / v increases below 1/e), A2 holds, so exactly one of the
  pair fails and the suite is consistent.
* additive kernels: value axis is the whole line, so suite 2 does not apply,
  and suite 3 sees the ratio pinned at 1 bit-exactly because the signal
  derivative of the cdf is literally minus the density.
"""

import json
import math

import numpy as np
import pytest

from seqscreen.errors import EvaluationError
from seqscreen.model_core import (
    AdditiveNoiseKernel,
    GridSpec,
    PowerKernel,
    ScreeningModel,
    TableKernel,
    TableSignal,
    ToleranceConfig,
    UniformSignal,
    make_kernel,
    make_signal,
)
from seqscreen.numerics import Interval
from seqscreen.propositions import (
    DeltaField,
    delta_diagnostic,
    verify,
    verify_prop1,
    verify_prop2,
    verify_prop3,
)
from seqscreen import transforms
from seqscreen.transforms import RELABELING_KINDS, relabel


@pytest.fixture(scope="module")
def logistic_model():
    return ScreeningModel(make_signal("uniform", (0.0, 1.0)),
                          make_kernel("additive_noise", noise="logistic"))


@pytest.fixture(scope="module")
def power_model():
    return ScreeningModel(make_signal("uniform", (1.0, 2.0)),
                          make_kernel("power"))


@pytest.fixture(scope="module")
def tilt_model():
    return ScreeningModel(make_signal("uniform", (0.5, 2.0)),
                          make_kernel("exp_tilt"))


@pytest.fixture(scope="module")
def exp_table_model():
    nodes = np.linspace(0.0, 24.0, 4097)
    sig = TableSignal(nodes, np.exp(-nodes))
    return ScreeningModel(sig, AdditiveNoiseKernel("logistic"))


@pytest.fixture(scope="module")
def prop1_uniform(logistic_model):
    return verify_prop1(logistic_model)


@pytest.fixture(scope="module")
def prop2_power(power_model):
    return verify_prop2(power_model)


# ---------------------------------------------------------------------------
# the shifted-cdf diagnostic


class TestDeltaDiagnostic:
    def test_routes_agree_on_power(self, power_model):
        f = delta_diagnostic(power_model, n_v=17, n_offsets=17)
        assert f.n_residual_bad == 0
        assert f.max_residual < 1e-4
        assert f.n_evaluable > 50

    def test_outside_points_recorded(self, power_model):
        f = delta_diagnostic(power_model, n_v=9, n_offsets=21)
        # offsets reach below the value support (delta 0) and up to its top
        assert f.delta[0, 0] == 0.0
        assert f.n_interior < f.delta.size
        lows = f.delta[f.delta1 == 0.0]
        assert set(np.unique(lows)) <= {0.0, 1.0}

    def test_factored_positive_where_ratio_below_one(self, power_model):
        # for the power kernel gamma < 1 everywhere on this grid, so the
        # shifted-cdf derivative h (1 - gamma) stays positive inside
        f = delta_diagnostic(power_model, n_v=9, n_offsets=9)
        inside = f.delta1[~np.isnan(f.delta1)]
        inside = inside[inside != 0.0]
        assert np.all(inside > 0.0)

    def test_works_on_unbounded_kernel(self, logistic_model):
        f = delta_diagnostic(logistic_model, n_v=9, n_offsets=9)
        assert f.n_interior == f.delta.size
        assert f.n_residual_bad == 0

    def test_disagreeing_routes_raise(self):
        class _Lying(PowerKernel):
            def cdf_dv(self, v, V):
                return 1.1 * super().cdf_dv(v, V)

        model = ScreeningModel(UniformSignal(Interval(1.0, 2.0)), _Lying())
        with pytest.raises(EvaluationError, match="routes disagree"):
            delta_diagnostic(model, n_v=9, n_offsets=9)

    def test_fd_check_off_skips_differencing(self, power_model):
        f = delta_diagnostic(power_model, n_v=5, n_offsets=5, fd_check=False)
        assert f.n_evaluable == 0
        assert np.all(np.isnan(f.delta1_fd))

    def test_summary_counts(self, power_model):
        f = delta_diagnostic(power_model, n_v=9, n_offsets=9)
        s = f.summary()
        assert s["n_points"] == 81
        assert s["n_interior"] == f.n_interior
        assert s["n_delta1_negative"] == 0


# ---------------------------------------------------------------------------
# suite 1


class TestProp1:
    def test_uniform_flags_constant_profile(self, prop1_uniform):
        rep = prop1_uniform
        assert rep.verdict == "discrepancy"
        by_kind = rep.conclusion_checks["a0_achievable"]["by_kind"]
        assert rep.conclusion_checks["a0_achievable"]["passed"]
        assert by_kind["integrated_hazard"]
        assert by_kind["runningmax_hazard"]
        assert by_kind["inverse_hazard_integral"]
        flag = rep.conclusion_checks["inverse_hazard_integral_constant_profile"]
        assert not flag["passed"]
        assert flag["max_abs_deviation_from_one"] > 1.0

    def test_uniform_measured_profile_matches_closed_form(self, prop1_uniform):
        rep = prop1_uniform
        prof = rep.evidence["relabeled_hazard_profiles"][
            "inverse_hazard_integral"]
        # measured relabeled hazard is 1/(1 - 2w) for the unit uniform
        for w, hz in prof["samples"]:
            assert hz == pytest.approx(1.0 / (1.0 - 2.0 * w), rel=1e-8)

    def test_integrated_hazard_profile_is_flat(self, prop1_uniform):
        rep = prop1_uniform
        prof = rep.evidence["relabeled_hazard_profiles"]["integrated_hazard"]
        assert prof["max_abs_deviation_from_one"] < 1e-9

    def test_near_exponential_table_is_consistent(self, exp_table_model):
        tol = ToleranceConfig(monotonicity_slack=1e-5)
        rep = verify_prop1(exp_table_model, tolerances=tol)
        assert rep.verdict == "consistent"
        flag = rep.conclusion_checks["inverse_hazard_integral_constant_profile"]
        assert flag["passed"]
        assert flag["tolerance"] == pytest.approx(1e-3)
        assert flag["max_abs_deviation_from_one"] < 1e-3
        by_kind = rep.conclusion_checks["a0_achievable"]["by_kind"]
        assert by_kind["integrated_hazard"]
        assert by_kind["runningmax_hazard"]

    def test_decreasing_hazard_table_fixed_by_runningmax(self):
        sig = TableSignal([0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                          [3.0, 1.2, 0.7, 0.55, 0.8, 1.6])
        model = ScreeningModel(sig, AdditiveNoiseKernel("logistic"))
        rep = verify_prop1(model)
        by_kind = rep.conclusion_checks["a0_achievable"]["by_kind"]
        assert by_kind["runningmax_hazard"]
        assert by_kind["integrated_hazard"]
        assert rep.conclusion_checks["a0_achievable"]["passed"]
        # the base hazard moves, so the constant reading fails here too
        assert rep.verdict == "discrepancy"

    def test_nonintegrable_inverse_hazard(self):
        model = ScreeningModel(make_signal("beta", alpha=2.0, beta=2.0),
                               AdditiveNoiseKernel("normal"))
        rep = verify_prop1(model)
        assert rep.verdict == "hypothesis-failed"
        probe = rep.hypothesis_checks["inverse_hazard_integrable"]
        assert not probe["passed"]
        assert rep.conclusion_checks == {}


# ---------------------------------------------------------------------------
# suite 2


class TestDerivedModels:
    """The suites relabel a derived model on its base axis, so no map is
    inverted while they build their relabelings."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        calls = []
        original = transforms.invert_monotone

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(transforms, "invert_monotone", counted)
        return calls

    # the mean-derived case costs seconds, so it runs on one base model
    @pytest.mark.parametrize("base, kind", [
        (b, k) for b in ("power", "logistic") for k in RELABELING_KINDS
        if k != "mean" or b == "logistic"])
    def test_prop1_gives_a_verdict_without_inversions(
            self, base, kind, power_model, logistic_model, inversions):
        model = {"power": power_model, "logistic": logistic_model}[base]
        rep = verify_prop1(relabel(model, kind), GridSpec(17, 17))
        assert rep.verdict in ("consistent", "discrepancy",
                               "hypothesis-failed")
        assert inversions == []

    def test_prop1_on_integrated_hazard_fails_integrability(
            self, power_model):
        rep = verify_prop1(relabel(power_model, "integrated_hazard"),
                           GridSpec(17, 17))
        assert rep.verdict == "hypothesis-failed"
        assert not rep.hypothesis_checks["inverse_hazard_integrable"][
            "passed"]

    def test_prop2_on_integrated_hazard_evaluates_routes(self, power_model):
        rep = verify_prop2(relabel(power_model, "integrated_hazard"),
                           GridSpec(33, 33))
        assert rep.evidence["delta1_route_agreement"]["n_evaluable"] > 0


class TestProp2:
    def test_power_consistent(self, prop2_power):
        rep = prop2_power
        assert rep.verdict == "consistent"
        c = rep.conclusion_checks["a1_a2_not_both"]
        assert c["passed"] and not c["a1_passed"] and c["a2_passed"]
        assert c["a1_violations"] > 0

    def test_power_gamma_vanishes_at_lower_edge(self, prop2_power):
        rep = prop2_power
        trend = rep.evidence["gamma_lower_edge_trend"]
        assert len(trend) == 3
        for row in trend:
            assert row["vanishing"]
            g = row["gamma_at_offsets"]
            assert g[0] > g[1] > g[2] > 0.0

    def test_power_rescaled_sign_change(self, prop2_power):
        rep = prop2_power
        signs = rep.evidence["rescaled_delta1_signs"]
        assert signs["sign_change_present"]
        assert signs["n_positive"] > 0 and signs["n_negative"] > 0

    def test_power_route_agreement_recorded(self, prop2_power):
        rep = prop2_power
        agree = rep.evidence["delta1_route_agreement"]
        assert agree["n_residual_bad"] == 0
        assert agree["max_residual"] < 1e-4

    def test_exp_tilt_consistent(self, tilt_model):
        rep = verify_prop2(tilt_model)
        assert rep.verdict == "consistent"
        c = rep.conclusion_checks["a1_a2_not_both"]
        assert not c["a1_passed"]

    def test_unbounded_value_axis_not_applicable(self, logistic_model):
        rep = verify_prop2(logistic_model)
        assert rep.verdict == "not-applicable"
        assert rep.conclusion_checks == {}
        h = rep.hypothesis_checks["value_support_bounded_below"]
        assert not h["passed"]
        assert h["lower"] == "-inf"

    def test_broken_ordering_fails_hypothesis(self):
        Vs = np.linspace(0.0, 1.0, 9)
        H = np.vstack([Vs ** 2, Vs])
        kernel = TableKernel([0.0, 1.0], Vs, H)
        model = ScreeningModel(UniformSignal(Interval(0.0, 1.0)), kernel)
        rep = verify_prop2(model)
        assert rep.verdict == "hypothesis-failed"
        assert not rep.hypothesis_checks["strict_stochastic_order"]["passed"]


# ---------------------------------------------------------------------------
# suite 3


class TestProp3:
    @pytest.mark.parametrize("noise", ["normal", "logistic", "laplace"])
    def test_additive_forward_consistent(self, noise):
        model = ScreeningModel(make_signal("uniform", (0.0, 1.0)),
                               make_kernel("additive_noise", noise=noise))
        rep = verify_prop3(model, "forward")
        assert rep.verdict == "consistent"
        assert rep.direction == "forward"
        g = rep.conclusion_checks["gamma_identically_one"]
        assert g["max_abs_deviation"] == 0.0
        t = rep.conclusion_checks["translation_invariance"]
        assert t["max_abs_error"] <= 1e-8
        assert t["n_compared"] > 1000

    @pytest.mark.parametrize("noise", ["normal", "logistic", "laplace"])
    def test_additive_converse_consistent(self, noise):
        model = ScreeningModel(make_signal("uniform", (0.0, 1.0)),
                               make_kernel("additive_noise", noise=noise))
        rep = verify_prop3(model, "converse")
        assert rep.verdict == "consistent"
        assert rep.conclusion_checks["a1"]["passed"]
        assert rep.conclusion_checks["a2"]["passed"]

    def test_mean_relabeled_power_fails_hypothesis(self, power_model):
        tm = relabel(power_model, "mean")
        rep = verify_prop3(tm, "forward")
        assert rep.verdict == "hypothesis-failed"
        # mean normalization itself holds after the relabeling
        assert rep.hypothesis_checks["mean_normalized"]["passed"]
        assert not rep.hypothesis_checks["a1"]["passed"]

    def test_power_converse_fails_hypothesis(self, power_model):
        rep = verify_prop3(power_model, "converse")
        assert rep.verdict == "hypothesis-failed"
        assert not rep.hypothesis_checks["gamma_identically_one"]["passed"]

    def test_scale_shift_breaks_mean_normalization(self):
        model = ScreeningModel(
            make_signal("uniform", (0.0, 1.0)),
            make_kernel("additive_noise", noise="logistic", scale=0.25))
        shifted = relabel(model, "affine", slope=1.0, intercept=3.0)
        rep = verify_prop3(shifted, "forward")
        assert rep.verdict == "hypothesis-failed"
        assert not rep.hypothesis_checks["mean_normalized"]["passed"]

    def test_bounded_kernel_fails_support_hypothesis(self, power_model):
        rep = verify_prop3(power_model, "forward")
        assert not rep.hypothesis_checks["value_support_unbounded"]["passed"]

    def test_bad_direction_rejected(self, logistic_model):
        with pytest.raises(ValueError, match="direction"):
            verify_prop3(logistic_model, "both")


# ---------------------------------------------------------------------------
# dispatch and report shape


class TestReports:
    def test_dispatch(self, logistic_model):
        assert verify(logistic_model, 1).proposition == 1
        assert verify(logistic_model, 2).proposition == 2
        both = verify(logistic_model, 3)
        assert set(both) == {"forward", "converse"}
        with pytest.raises(ValueError, match="unknown proposition"):
            verify(logistic_model, 4)

    def test_to_dict_shape(self, prop2_power, power_model):
        d = prop2_power.to_dict()
        assert d["proposition"] == 2
        assert d["verdict"] == "consistent"
        assert "direction" not in d
        assert set(d) >= {"hypothesis_checks", "conclusion_checks",
                          "evidence", "provenance"}
        d3 = verify_prop3(power_model, "converse").to_dict()
        assert d3["direction"] == "converse"

    def test_json_deterministic_and_finite(self, prop2_power, power_model):
        text = prop2_power.to_json()
        assert text == verify_prop2(power_model).to_json()
        assert "Infinity" not in text and "NaN" not in text

    def test_table_kernel_report_is_json(self):
        # table-kernel evaluators once returned numpy scalars, which made
        # the lower-edge trend's "vanishing" flags numpy booleans
        V_nodes = np.linspace(-4.0, 5.0, 17)
        rows = [1.0 / (1.0 + np.exp(-(V_nodes - v))) for v in (0.0, 0.5, 1.0)]
        model = ScreeningModel(make_signal("uniform", (0.0, 1.0)),
                               TableKernel([0.0, 0.5, 1.0], V_nodes, rows))
        rep = verify_prop2(model, GridSpec(v_points=33, V_points=33))
        assert rep.verdict == "consistent"
        trend = json.loads(json.dumps(rep.to_dict()))
        assert trend["evidence"]["gamma_lower_edge_trend"][0]["vanishing"] in (
            True, False)

    def test_provenance_carries_grid(self, logistic_model):
        grid = GridSpec(v_points=17, V_points=17)
        rep = verify_prop1(logistic_model, grid=grid)
        assert rep.provenance["grid"]["v_points"] == 17
