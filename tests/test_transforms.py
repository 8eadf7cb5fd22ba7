"""Relabelings: frozen maps, scaling identities, and derived-file rebuilds.

The uniform signal admits closed forms for every relabeling kind, so those
are frozen here digit by digit. Identity tests then cover models without
closed forms, since the scaling laws hold for any strictly increasing map.
"""

import bisect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscreen import modelfile
from seqscreen.cli import main
from seqscreen.errors import (
    ConstructionError,
    DomainError,
    IntegrabilityError,
    LoadError,
    SelfCheckError,
)
from seqscreen.model_core import (
    AdditiveNoiseKernel,
    BetaSignal,
    PowerKernel,
    ScreeningModel,
    TableSignal,
    UniformSignal,
    conditional_mean,
)
from seqscreen.numerics import Interval
from seqscreen.regularity import check_assumption, gamma, hazard, virtual_value
from seqscreen.transforms import (
    RELABELING_KINDS,
    Relabeling,
    TransformedModel,
    apply_relabeling,
    make_relabeling,
    rebuild_from_section,
    relabel,
    transform_section,
)
from reference_forms import invert_monotone


def uniform_logistic():
    return ScreeningModel(UniformSignal(Interval(0.0, 1.0)),
                          AdditiveNoiseKernel(noise="logistic", scale=1.0))


def power_model():
    return ScreeningModel(UniformSignal(Interval(1.0, 2.0)), PowerKernel())


def decreasing_hazard_model():
    sig = TableSignal([0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                      [3.0, 1.2, 0.7, 0.55, 0.8, 1.6])
    return ScreeningModel(sig, AdditiveNoiseKernel(noise="logistic"))


class TestInverseHazardIntegral:
    def test_uniform_closed_form(self):
        # phi'(v) = 1 - v, so phi(v) = v - v^2/2.
        rel = make_relabeling(uniform_logistic(), "inverse_hazard_integral")
        assert rel.phi(0.0) == 0.0
        assert rel.phi(0.5) == pytest.approx(0.375, abs=1e-14)
        assert rel.phi(1.0) == pytest.approx(0.5, abs=1e-14)
        assert rel.phi_prime(0.25) == pytest.approx(0.75, abs=1e-15)

    def test_fresh_inverse(self):
        rel = make_relabeling(uniform_logistic(), "inverse_hazard_integral")
        # v - v^2/2 = 0.3  =>  v = 1 - sqrt(0.4)
        assert rel.inverse(0.3) == pytest.approx(1.0 - math.sqrt(0.4),
                                                 abs=1e-9)

    def test_forward_inverse_is_bit_exact(self):
        rel = make_relabeling(uniform_logistic(), "inverse_hazard_integral")
        for v in (0.1237, 0.5, 0.9311):
            assert rel.inverse(rel.phi(v)) == v

    def test_nonintegrable_inverse_hazard_refused(self):
        m = ScreeningModel(BetaSignal(2.0, 2.0),
                           AdditiveNoiseKernel(noise="normal"))
        with pytest.raises(IntegrabilityError):
            make_relabeling(m, "inverse_hazard_integral")

    def test_transformed_hazard_profile(self):
        # Relabeled hazard is the squared base hazard at the preimage:
        # for the uniform signal that is 1/(1 - 2w).
        tm = relabel(uniform_logistic(), "inverse_hazard_integral")
        for v in (0.1, 0.5, 0.85):
            w = tm.relabeling.phi(v)
            got, _ = hazard(tm, w)
            assert got == pytest.approx(1.0 / (1.0 - 2.0 * w), rel=1e-10)

    def test_transformed_cdf_closed_form(self):
        tm = relabel(uniform_logistic(), "inverse_hazard_integral")
        for w in (0.05, 0.2, 0.4):
            assert tm.signal.cdf(w) == pytest.approx(
                1.0 - math.sqrt(1.0 - 2.0 * w), abs=1e-9)


class TestIntegratedHazard:
    def test_uniform_closed_form(self):
        rel = make_relabeling(uniform_logistic(), "integrated_hazard")
        assert rel.phi(0.5) == pytest.approx(0.6931471805599453, abs=1e-15)
        assert rel.phi(0.0) == 0.0
        assert math.isinf(rel.codomain.upper)

    def test_relabeled_hazard_is_one(self):
        tm = relabel(uniform_logistic(), "integrated_hazard")
        for v in (0.01, 0.3, 0.77, 0.995):
            w = tm.relabeling.phi(v)
            got, _ = hazard(tm, w)
            assert got == pytest.approx(1.0, abs=5e-15)

    def test_signal_grid_stays_finite(self):
        tm = relabel(uniform_logistic(), "integrated_hazard")
        g = tm.signal_grid()
        assert np.all(np.isfinite(g))
        assert np.all(np.diff(g) > 0)

    def test_w_lo_offset(self):
        rel = make_relabeling(uniform_logistic(), "integrated_hazard",
                              w_lo=2.0)
        assert rel.phi(0.0) == 2.0
        assert rel.phi(0.5) == pytest.approx(2.0 + math.log(2.0), abs=1e-14)


class TestRunningMax:
    def test_fixes_a0_on_decreasing_hazard(self):
        m = decreasing_hazard_model()
        assert not check_assumption(m, "A0").passed
        tm = relabel(m, "runningmax_hazard")
        assert check_assumption(tm, "A0").passed

    def test_codomain_is_bounded(self):
        tm = relabel(decreasing_hazard_model(), "runningmax_hazard")
        assert math.isfinite(tm.relabeling.codomain.upper)

    def test_identity_when_hazard_already_increases(self):
        # The uniform hazard increases, so g tracks it and phi' stays near
        # hazard/g = 1 at lattice nodes.
        rel = make_relabeling(uniform_logistic(), "runningmax_hazard")
        assert rel.phi_prime(0.25) == pytest.approx(1.0, rel=1e-3)


class TestMeanRelabeling:
    def test_power_mean_map(self):
        rel = make_relabeling(power_model(), "mean")
        # E[V | v] = v/(v+1) for the power kernel.
        assert rel.phi(1.0) == pytest.approx(0.5, abs=1e-10)
        assert rel.phi(2.0) == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert rel.phi_prime(1.0) == pytest.approx(0.25, abs=1e-8)

    def test_relabeled_model_is_mean_normalized(self):
        tm = relabel(power_model(), "mean")
        for w in tm.signal_grid()[::32]:
            assert conditional_mean(tm, float(w)) == pytest.approx(
                float(w), abs=1e-9)

    def test_collapsed_mean_slope_is_refused(self):
        # On [0, 1e160] each value range collapses to one float, so the
        # conditional mean's slope is 0 at every table point but the first.
        model = ScreeningModel(UniformSignal(Interval(0.0, 1e160)),
                               AdditiveNoiseKernel(noise="logistic"))
        with pytest.raises(ConstructionError,
                           match=r"slope 0\.0 at v=3\.90625e\+157 is not"):
            make_relabeling(model, "mean")


class TestAffine:
    def test_map_and_inverse(self):
        rel = make_relabeling(uniform_logistic(), "affine", slope=2.0,
                              intercept=3.0)
        assert rel.phi(0.5) == 4.0
        assert rel.inverse(4.0) == 0.5
        assert rel.phi_prime(0.9) == 2.0
        assert rel.codomain.as_tuple() == (3.0, 5.0)

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ConstructionError):
            make_relabeling(uniform_logistic(), "affine", slope=0.0)

    def test_slope_rejected_elsewhere(self):
        with pytest.raises(ConstructionError, match="affine"):
            make_relabeling(uniform_logistic(), "mean", slope=2.0)

    def test_unknown_kind(self):
        with pytest.raises(ConstructionError, match="unknown relabeling"):
            make_relabeling(uniform_logistic(), "squared")


class TestNarrowSupports:
    """The self-check's slope stencil scales with the signal support and
    stays inside it, however narrow the support or far from 0."""

    @pytest.mark.parametrize("kind", RELABELING_KINDS)
    def test_every_kind_builds_on_a_narrow_support(self, kind):
        model = ScreeningModel(UniformSignal(Interval(0.0, 1e-4)),
                               AdditiveNoiseKernel(noise="logistic"))
        relabel(model, kind)

    # runningmax_hazard is refused here: the quadrature of its slope
    # integral gives up on one cell, before the self-check runs
    @pytest.mark.parametrize("kind", ["inverse_hazard_integral",
                                      "integrated_hazard", "mean", "affine"])
    def test_a_support_far_from_zero(self, kind):
        model = ScreeningModel(UniformSignal(Interval(1000.0, 1000.001)),
                               AdditiveNoiseKernel(noise="logistic"))
        relabel(model, kind)

    def test_a_diverged_cell_far_from_zero_is_named_exactly(self):
        # each bound is written as a float; six digits read [1000, 1000]
        model = ScreeningModel(UniformSignal(Interval(1000.0, 1000.001)),
                               AdditiveNoiseKernel(noise="logistic"))
        with pytest.raises(IntegrabilityError) as got:
            relabel(model, "runningmax_hazard")
        assert str(got.value) == (
            "runningmax_hazard: slope integral diverged on "
            "[1000.0009990224385, 1000.000999999]")

    def test_suite_1_reaches_a_verdict(self, tmp_path, capsys):
        model = ScreeningModel(UniformSignal(Interval(0.0, 1e-4)),
                               AdditiveNoiseKernel(noise="logistic"))
        path = tmp_path / "narrow.model"
        path.write_text(modelfile.dumps(model), encoding="utf-8")
        assert main(["verify", str(path), "--prop", "1"]) == 1


class TestScalingIdentities:
    @pytest.mark.parametrize("kind", ["affine", "integrated_hazard", "mean",
                                      "inverse_hazard_integral"])
    def test_gamma_and_psi_identities(self, kind):
        base = power_model()
        kwargs = {"slope": 1.7, "intercept": -0.3} if kind == "affine" else {}
        tm = relabel(base, kind, **kwargs)
        rel = tm.relabeling
        for v, V in [(1.2, 0.2), (1.5, 0.5), (1.9, 0.87)]:
            w = rel.phi(v)
            p = rel.phi_prime(v)
            assert gamma(tm, w, V) * p == pytest.approx(
                gamma(base, v, V), rel=1e-9)
            assert virtual_value(tm, w, V) == pytest.approx(
                virtual_value(base, v, V), rel=1e-9)

    def test_a1_verdict_survives_relabeling(self):
        base = power_model()
        before = check_assumption(base, "A1").passed
        for kind in ("affine", "mean", "integrated_hazard"):
            tm = relabel(base, kind)
            assert check_assumption(tm, "A1").passed == before

    @given(st.floats(0.2, 5.0), st.floats(-2.0, 2.0))
    @settings(max_examples=10, deadline=None)
    def test_affine_identity_property(self, slope, intercept):
        base = uniform_logistic()
        tm = relabel(base, "affine", slope=slope, intercept=intercept)
        v, V = 0.4, 1.1
        w = tm.relabeling.phi(v)
        assert gamma(tm, w, V) * slope == pytest.approx(gamma(base, v, V),
                                                        rel=1e-9)

    def test_self_check_catches_wrong_slope(self):
        base = uniform_logistic()
        lat_v = np.linspace(0.0, 1.0, 513)
        bad = Relabeling("affine", base.signal.support,
                         lambda v: 2.0 * v, lambda v: np.full(v.shape, 1.0),
                         lat_v, 2.0 * lat_v, w_hi=2.0,
                         params={"slope": 2.0, "intercept": 0.0})
        with pytest.raises(SelfCheckError, match="self-check failed"):
            apply_relabeling(base, bad)

    def test_domain_mismatch_rejected(self):
        rel = make_relabeling(uniform_logistic(), "affine", slope=1.0)
        with pytest.raises(ConstructionError, match="domain"):
            TransformedModel(power_model(), rel)


class TestRelabelingSurface:
    def test_table_has_257_monotone_rows(self):
        rel = make_relabeling(uniform_logistic(), "inverse_hazard_integral")
        rows = rel.table()
        assert len(rows) == 257
        ws = [w for _, w, _ in rows]
        assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_inverse_outside_codomain(self):
        rel = make_relabeling(uniform_logistic(), "affine", slope=1.0)
        with pytest.raises(DomainError):
            rel.inverse(2.5)

    def test_phi_outside_domain(self):
        rel = make_relabeling(uniform_logistic(), "affine", slope=1.0)
        with pytest.raises(DomainError):
            rel.phi(1.5)

    def test_all_kinds_build_on_uniform(self):
        m = uniform_logistic()
        for kind in RELABELING_KINDS:
            tm = relabel(m, kind)
            assert tm.base is m


def _reference_inverse(rel: Relabeling, w: float) -> float:
    """w inverted alone: clamped into the codomain, then bisected by the
    reference float loop on its lattice cell with one-point map calls."""
    w_lo, w_hi = rel.codomain.as_tuple()
    top = rel.domain.upper
    if w == math.inf and math.isinf(w_hi):
        return top
    w = min(max(w, w_lo), w_hi)
    lat_v = rel._lat_v.tolist() + [top]
    lat_w = rel._lat_w.tolist() + [w_hi]
    k = bisect.bisect_right(lat_w[:-1], w) - 1
    if lat_v[k] == lat_v[k + 1]:
        return lat_v[k]
    return invert_monotone(lambda v: float(rel._phi_many(np.array([v]))[0]),
                           w, lat_v[k], lat_v[k + 1], tol=1e-12,
                           f_lower=lat_w[k], f_upper=lat_w[k + 1])


# every kind over a plain model, over an affine-derived one, and over a
# half-line codomain (integrated_hazard-derived)
INVERSE_CASES = ([(None, k) for k in RELABELING_KINDS]
                 + [("affine", k) for k in RELABELING_KINDS]
                 + [("integrated_hazard", k)
                    for k in ("integrated_hazard", "runningmax_hazard",
                              "mean", "affine")])


class TestInverses:
    """``inverses`` bisects every uncached target at once, and each result
    equals the one-point bisection of that target bit for bit."""

    @pytest.mark.parametrize("inner, kind", INVERSE_CASES)
    def test_equal_per_point_reference(self, inner, kind):
        model = power_model()
        if inner is not None:
            model = relabel(model, inner, **(
                {"slope": 2.0, "intercept": -1.0} if inner == "affine"
                else {}))
        rel = make_relabeling(model, kind)
        lat_w = rel._lat_w
        w_lo, w_hi = rel.codomain.as_tuple()
        n = len(lat_w)
        ws = [0.5 * (lat_w[k] + lat_w[k + 1]) for k in (0, n // 3, n - 2)]
        ws.append(ws[1])  # a duplicate
        ws.append(w_lo - 0.5e-9 * max(1.0, abs(w_lo)))  # clamped up
        if math.isinf(w_hi):
            ws += [float(lat_w[-1]) + 0.5, math.inf]
        else:
            ws += [0.5 * (float(lat_w[-1]) + w_hi),
                   w_hi + 0.5e-9 * max(1.0, abs(w_hi))]  # clamped down
        ws.append(ws[0])
        want = [_reference_inverse(rel, w) for w in ws]
        got = rel.inverses(np.array(ws).reshape(2, -1))
        assert got.shape == (2, len(ws) // 2)
        assert got.ravel().tolist() == want
        # the targets entered the cache, and inverse reads it
        assert [rel.inverse(w) for w in ws[:3]] == want[:3]

    def test_cached_targets_are_exact(self):
        rel = make_relabeling(power_model(), "mean")
        vs = [1.1, 1.25, 1.7]
        ws = [rel.phi(v) for v in vs]
        assert rel.inverses(ws).tolist() == vs

    def test_first_target_outside_the_codomain_is_named(self):
        rel = make_relabeling(power_model(), "affine", slope=1.0)
        ws = np.array([1.5, 0.5, 2.5, 3.5])
        with pytest.raises(DomainError, match=re.escape("value 0.5 ")):
            rel.inverses(ws)
        with pytest.raises(DomainError, match=re.escape("value 2.5 ")):
            rel.inverses(ws[2:])


class TestRelabelDerivedModel:
    """A derived model is relabeled on its base axis, one level deep."""

    @pytest.mark.parametrize("kind", ["mean", "integrated_hazard"])
    def test_kinds_that_ignore_the_inner_map_equal_the_base_map(self, kind):
        base = power_model()
        tm = relabel(base, "inverse_hazard_integral")
        got = make_relabeling(tm, kind)
        want = make_relabeling(base, kind)
        assert got.table() == want.table()
        for v in (1.0, 1.013, 1.37, 1.5001, 1.999):
            assert got.phi(v) == want.phi(v)
            assert got.phi_prime(v) == want.phi_prime(v)

    def test_affine_on_affine(self):
        tm = relabel(uniform_logistic(), "affine", slope=1.7, intercept=-0.3)
        rel = make_relabeling(tm, "affine", slope=0.4, intercept=2.0)
        assert rel.params["inner"] == tm.relabeling.describe()
        for v in (0.0, 0.013, 0.37, 0.5, 1.0):
            assert rel.phi(v) == 2.0 + 0.4 * (-0.3 + 1.7 * v)

    @pytest.mark.parametrize("inner", ["affine", "inverse_hazard_integral"])
    def test_relabel_attaches_to_the_base_model(self, inner):
        tm = relabel(power_model(), inner)
        for kind in RELABELING_KINDS:
            derived = relabel(tm, kind)
            assert derived.base is tm.base
            assert not isinstance(derived.base, TransformedModel)

    def test_affine_on_half_line_codomain(self):
        tm = relabel(power_model(), "integrated_hazard")
        rel = make_relabeling(tm, "affine", slope=0.5, intercept=1.0)
        assert rel.codomain.as_tuple() == (1.0, math.inf)
        assert rel.phi(1.5) == 1.0 + 0.5 * tm.relabeling.phi(1.5)

    def test_derived_base_refused(self):
        tm = relabel(power_model(), "affine", slope=2.0)
        rel = make_relabeling(tm, "affine", slope=3.0)
        with pytest.raises(ConstructionError, match="base axis"):
            TransformedModel(tm, rel)
        with pytest.raises(ConstructionError, match="derived model"):
            transform_section(apply_relabeling(tm, rel))

    def test_divergent_composite_slope_is_not_integrable(self):
        tm = relabel(power_model(), "integrated_hazard")
        with pytest.raises(IntegrabilityError, match="diverged"):
            make_relabeling(tm, "inverse_hazard_integral")

    @pytest.mark.parametrize("base", [power_model, uniform_logistic,
                                      decreasing_hazard_model])
    def test_runningmax_over_half_line_codomain(self, base):
        # the inner slope f/S diverges at the top, so the composite's
        # codomain is a half line, as for the affine kind
        tm = relabel(base(), "integrated_hazard")
        derived = relabel(tm, "runningmax_hazard")
        assert derived.relabeling.codomain.upper == math.inf
        assert check_assumption(derived, "A0").passed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_runningmax_where_density_and_inner_slope_vanish(self):
        # beta(2, 2) has f(0) = 0, so the hazard f/S and the inner slope
        # f/S are both 0 at the first node. On the integrated-hazard axis
        # the hazard is 1 throughout, so the running max keeps that map.
        base = ScreeningModel(BetaSignal(2.0, 2.0),
                              AdditiveNoiseKernel(noise="logistic"))
        tm = relabel(base, "integrated_hazard")
        derived = relabel(tm, "runningmax_hazard")
        assert derived.relabeling.codomain.upper == math.inf
        for v in (0.0, 0.001, 0.1, 0.5, 0.9, 0.999):
            assert derived.relabeling.phi(v) == pytest.approx(
                tm.relabeling.phi(v), rel=1e-10)
        assert check_assumption(derived, "A0").passed


class TestDerivedFiles:
    def round_trip(self, base, kind, **kwargs):
        tm = relabel(base, kind, **kwargs)
        text = modelfile.dumps(tm)
        loaded, _, _ = modelfile.loads(text)
        assert isinstance(loaded, TransformedModel)
        assert loaded.relabeling.kind == kind
        for v in np.linspace(*base.signal.support.as_tuple(), 7)[1:-1]:
            assert loaded.relabeling.phi(float(v)) == pytest.approx(
                tm.relabeling.phi(float(v)), rel=1e-10, abs=1e-12)
        return text

    def test_affine_round_trip(self):
        self.round_trip(uniform_logistic(), "affine", slope=2.0,
                        intercept=1.0)

    def test_integrated_hazard_round_trip(self):
        text = self.round_trip(uniform_logistic(), "integrated_hazard")
        assert "inf" in text

    def test_inverse_hazard_round_trip(self):
        self.round_trip(uniform_logistic(), "inverse_hazard_integral")

    def test_mean_round_trip(self):
        self.round_trip(power_model(), "mean")

    def test_tampered_table_is_rejected(self):
        tm = relabel(uniform_logistic(), "affine", slope=2.0)
        section = transform_section(tm)
        v, w, p = section["phi_table"][5]
        section["phi_table"][5] = (v, w + 0.01, p)
        with pytest.raises(SelfCheckError, match="does not match"):
            rebuild_from_section(uniform_logistic(), section)

    def test_wrong_w_support_is_rejected(self):
        tm = relabel(uniform_logistic(), "affine", slope=2.0)
        section = transform_section(tm)
        section["w_support"] = (0.0, 7.0)
        with pytest.raises(SelfCheckError, match="codomain"):
            rebuild_from_section(uniform_logistic(), section)

    @pytest.mark.parametrize("kind, key, edit, match", [
        ("integrated_hazard", "w_support", lambda s: (math.nan, math.inf),
         "starts at 0.0, file says nan"),
        ("affine", "w_support", lambda s: (s[0], math.nan),
         "ends at 1.0, file says nan"),
        ("integrated_hazard", "phi_table",
         lambda t: _with_row(t, 4, lambda v, w, p: (v, math.nan, math.nan)),
         r"phi\(0.015624984375\) = .* the recorded nan"),
        ("integrated_hazard", "phi_table",
         lambda t: _with_row(t, 4, lambda v, w, p: (v, w, math.nan)),
         r"phi'\(0.015624984375\) = .* the recorded nan"),
    ], ids=["w_lo", "w_hi", "phi", "slope"])
    def test_nan_in_the_section_is_rejected(self, kind, key, edit, match):
        # a comparison with NaN is false, so each check is written to fail
        # on it
        section = transform_section(relabel(uniform_logistic(), kind))
        section[key] = edit(section[key])
        with pytest.raises(SelfCheckError, match=match):
            rebuild_from_section(uniform_logistic(), section)

    def test_missing_kind(self):
        text = modelfile.dumps(relabel(uniform_logistic(), "mean"))
        with pytest.raises(LoadError, match="missing required key 'kind'"):
            modelfile.loads(text.replace("kind = mean\n", ""))


def _with_row(table: list, k: int, edit) -> list:
    """``table`` with its k-th (v, w, slope) row replaced by
    ``edit(v, w, p)``."""
    return table[:k] + [edit(*table[k])] + table[k + 1:]
