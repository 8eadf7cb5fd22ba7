"""Hazard/ratio/virtual-value oracles and the five assumption checks."""

import math

import numpy as np
import pytest

from seqscreen.errors import EvaluationError, NearEndpointError
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
)
from seqscreen.numerics import Interval
from seqscreen.regularity import (
    CHECK_CODES,
    check_assumption,
    compute_field,
    gamma,
    hazard,
    regularity_report,
    virtual_value,
)


def uniform_logistic():
    return ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                          AdditiveNoiseKernel(noise="logistic", scale=1.0))


def power_model():
    return ScreeningModel(UniformSignal(Interval(1.0, 2.0)), PowerKernel())


def decreasing_hazard_signal():
    return TableSignal([0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                       [3.0, 1.2, 0.7, 0.55, 0.8, 1.6])


class TestPointwise:
    def test_uniform_hazard(self):
        h, inv = hazard(uniform_logistic(), 0.5)
        assert h == pytest.approx(2.0, abs=1e-15)
        assert inv == pytest.approx(0.5, abs=1e-15)

    def test_beta_hazard(self):
        m = ScreeningModel(BetaSignal(2.0, 2.0),
                           AdditiveNoiseKernel(noise="normal"))
        h, inv = hazard(m, 0.5)
        assert h == pytest.approx(3.0, rel=1e-12)
        assert inv == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_hazard_refuses_exhausted_survival(self):
        m = uniform_logistic()
        with pytest.raises(NearEndpointError):
            hazard(m, 1.0)

    def test_additive_gamma_is_exactly_one(self):
        m = uniform_logistic()
        for v, V in [(0.1, -3.0), (0.5, 0.5), (0.9, 7.0)]:
            assert gamma(m, v, V) == 1.0

    def test_power_gamma_frozen(self):
        m = power_model()
        # gamma(v, V) = -V log(V) / v for the power family.
        assert gamma(m, 1.0, 0.1) == pytest.approx(0.23025850929940458,
                                                   rel=1e-13)
        assert gamma(m, 1.0, 0.3) == pytest.approx(0.36119184129778083,
                                                   rel=1e-13)
        assert gamma(m, 2.0, 0.3) == pytest.approx(0.36119184129778083 / 2.0,
                                                   rel=1e-13)

    def test_virtual_value_uniform_additive(self):
        # gamma = 1, inverse hazard = 1 - v, so psi = V - (1 - v).
        assert virtual_value(uniform_logistic(), 0.5, 2.0) == pytest.approx(
            1.5, abs=1e-13)

    def test_virtual_value_power_frozen(self):
        m = power_model()
        assert virtual_value(m, 1.5, 0.5) == pytest.approx(
            0.3844754699066758, rel=1e-12)


class TestFields:
    def test_gamma_field_constant_for_additive(self):
        f = compute_field(uniform_logistic(), "gamma",
                          GridSpec(v_points=9, V_points=9))
        assert f.values.shape == (9, 9)
        assert np.all(f.values == 1.0)

    def test_psi_field_matches_closed_form(self):
        f = compute_field(uniform_logistic(), "psi",
                          GridSpec(v_points=7, V_points=5))
        expected = f.V[None, :] - (1.0 - f.v[:, None])
        assert np.allclose(f.values, expected, atol=1e-12)

    def test_rows_are_row_major(self):
        f = compute_field(power_model(), "H", GridSpec(v_points=2, V_points=2))
        rows = list(f.rows())
        assert len(rows) == 4
        assert rows[0][0] == rows[1][0]
        assert rows[0][1] == rows[2][1]

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            compute_field(uniform_logistic(), "Hh")


class TestA0:
    def test_uniform_passes(self):
        rep = check_assumption(uniform_logistic(), "A0")
        assert rep.passed
        assert rep.n_violations == 0
        assert rep.witnesses == []

    def test_beta_2_2_passes(self):
        m = ScreeningModel(BetaSignal(2.0, 2.0),
                           AdditiveNoiseKernel(noise="normal"))
        assert check_assumption(m, "A0").passed

    def test_decreasing_hazard_fails_with_witnesses(self):
        m = ScreeningModel(decreasing_hazard_signal(),
                           AdditiveNoiseKernel(noise="logistic"))
        rep = check_assumption(m, "A0")
        assert not rep.passed
        assert rep.n_violations > 0
        w = rep.witnesses[0]
        # Hazard declines early on, so the inverse hazard rises there.
        assert w["v_lo"] < 0.5
        assert w["inverse_hazard_hi"] > w["inverse_hazard_lo"]
        assert w["violation"] > 0

    def test_witness_cap_keeps_total_count(self):
        m = ScreeningModel(decreasing_hazard_signal(),
                           AdditiveNoiseKernel(noise="logistic"))
        rep = check_assumption(m, "A0", GridSpec(v_points=257, V_points=9))
        assert rep.n_violations > 64
        assert len(rep.witnesses) == 64
        mags = [w["violation"] for w in rep.witnesses]
        assert mags == sorted(mags, reverse=True)

    def test_hazard_holes_match_a_scan_of_the_compacted_points(self):
        # The density underflows at 4 of 401 signal points (at most 1%),
        # two of them adjacent; each remaining point is compared with the
        # previous point where the hazard could be evaluated.
        grid = GridSpec(v_points=401, V_points=9)
        slack = ToleranceConfig().monotonicity_slack
        base = decreasing_hazard_signal()
        vs = ScreeningModel(base, AdditiveNoiseKernel()).signal_grid(grid)
        holes = {float(vs[k]) for k in (20, 21, 60, 120)}

        class HoleySignal(TableSignal):
            def pdf(self, v):
                return 0.0 if v in holes else super().pdf(v)

        m = ScreeningModel(HoleySignal(**base.params()),
                           AdditiveNoiseKernel(noise="logistic"))
        points = [(v, hazard(m, v)[1]) for v in vs.tolist() if v not in holes]
        hits = []
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if y1 - y0 > slack:
                hits.append({"v_lo": x0, "v_hi": x1, "inverse_hazard_lo": y0,
                             "inverse_hazard_hi": y1, "violation": y1 - y0})
        hits.sort(key=lambda w: (-w["violation"], w["v_lo"]))
        assert any(w["v_lo"] == float(vs[19]) for w in hits)

        for rep in (check_assumption(m, "A0", grid),
                    regularity_report(m, grid).checks["A0"]):
            assert rep.n_failed == 4
            assert rep.n_violations == len(hits) > 64
            assert rep.witnesses == hits[:64]
            assert list(rep.witnesses[0]) == list(hits[0])

    def test_aborts_when_survival_is_exhausted_broadly(self):
        m = ScreeningModel(BetaSignal(2.0, 60.0),
                           AdditiveNoiseKernel(noise="logistic"))
        with pytest.raises(EvaluationError, match="aborted"):
            check_assumption(m, "A0")


class TestA1A2:
    def test_additive_passes_both(self):
        m = uniform_logistic()
        assert check_assumption(m, "A1").passed
        assert check_assumption(m, "A2").passed

    def test_power_fails_a1_below_one_over_e(self):
        rep = check_assumption(power_model(), "A1")
        assert not rep.passed
        for w in rep.witnesses:
            assert w["V_lo"] < 1.0 / math.e + 0.05
        assert rep.n_violations > 0

    def test_power_passes_a2(self):
        assert check_assumption(power_model(), "A2").passed

    def test_exp_tilt_fails_a1(self):
        m = ScreeningModel(UniformSignal(Interval(0.5, 2.0)), ExpTiltKernel())
        rep = check_assumption(m, "A1")
        assert not rep.passed
        # The failing region sits at small V for every signal level.
        assert min(w["V_lo"] for w in rep.witnesses) < 0.2

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            check_assumption(uniform_logistic(), "A3")


class TestFOSD:
    def test_canonical_models_pass(self):
        for m in (uniform_logistic(), power_model()):
            rep = check_assumption(m, "FOSD")
            assert rep.passed
            assert rep.n_evaluated > 0

    def test_inverted_table_kernel_fails(self):
        V_nodes = np.linspace(0.0, 1.0, 33)
        kernel = TableKernel([0.0, 1.0], V_nodes,
                             [V_nodes ** 2, V_nodes])
        m = ScreeningModel(UniformSignal(Interval(0.0, 1.0)), kernel)
        rep = check_assumption(m, "FOSD")
        assert not rep.passed
        w = rep.witnesses[0]
        assert w["dHdv"] > 0

    def test_relative_slack_spares_thin_tails(self):
        # At V ~ 20 the logistic density is ~1e-9; an absolute slack of 1e-8
        # would flag dHdv = -1e-9 as "not negative enough". The relative rule
        # must not.
        m = uniform_logistic()
        rep = check_assumption(m, "FOSD", GridSpec(),
                               ToleranceConfig(monotonicity_slack=1e-8))
        assert rep.passed


class TestPSI:
    def test_uniform_additive_passes(self):
        assert check_assumption(uniform_logistic(), "PSI").passed

    def test_power_fails_near_zero_values(self):
        rep = check_assumption(power_model(), "PSI")
        assert not rep.passed
        # dpsi/dV = 1 + (2 - v)(log V + 1)/v turns negative near V = 0.
        assert min(w.get("V_lo", 1.0) for w in rep.witnesses) < 0.15


class TestRegularityReport:
    def test_uniform_additive_fully_regular(self):
        rep = regularity_report(uniform_logistic())
        assert rep.classic_regular
        assert rep.psi_regular
        assert rep.fosd_ok
        assert list(rep.checks) == list(CHECK_CODES)

    def test_power_verdicts(self):
        rep = regularity_report(power_model())
        assert not rep.classic_regular
        assert not rep.checks["A1"].passed
        assert rep.checks["A0"].passed
        assert rep.checks["A2"].passed
        assert rep.fosd_ok
        assert not rep.psi_regular

    def test_json_is_deterministic(self):
        a = regularity_report(power_model(),
                              GridSpec(v_points=17, V_points=17)).to_json()
        b = regularity_report(power_model(),
                              GridSpec(v_points=17, V_points=17)).to_json()
        assert a == b

    def test_report_carries_provenance(self):
        rep = regularity_report(uniform_logistic(),
                                GridSpec(v_points=9, V_points=9))
        d = rep.to_dict()
        assert d["provenance"]["grid"]["v_points"] == 9
        assert d["provenance"]["truncation"]["lower"] is not None
        assert d["checks"]["A0"]["n_evaluated"] == 9
