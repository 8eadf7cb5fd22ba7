"""Signal families, kernel families, and the primitive evaluations.

Closed-form reference values were worked out by hand (or against scipy's
distributions where noted) and frozen here; tolerances reflect how each
number was derived, not wishful thinking.
"""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqscreen import model_core
from seqscreen.cli import main
from seqscreen.errors import ConstructionError, DomainError, EvaluationError
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
    _betainc,
    _betainc_many,
    validate_model,
)
from seqscreen.modelfile import load
from seqscreen.numerics import Interval, integrate
from seqscreen.regularity import check_assumption
from seqscreen.transforms import relabel

from reference_forms import betainc


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

    def test_beta_large_shapes_keep_a_finite_density(self, tmp_path, capsys):
        # beta(600, 600)'s normalizing constant e^833.7 overflows a float,
        # but at each endpoint a shape above 1 makes the density 0. The
        # midpoint literal is a 50-digit evaluation.
        got = BetaSignal(600.0, 600.0).pdf_many(np.array([0.0, 0.5, 1.0]))
        assert got[[0, 2]].tolist() == [0.0, 0.0]
        assert got[1] == pytest.approx(27.633774322323219, rel=1e-12)
        path = tmp_path / "beta600.model"
        path.write_text("[signal]\nfamily = beta\n"
                        "params = alpha=600 beta=600\n\n[kernel]\n"
                        "family = additive_noise\nnoise.family = logistic\n",
                        encoding="utf-8")
        assert main(["verify", str(path), "--prop", "3",
                     "--grid", "17x17"]) == 0

    def test_beta_rejects_bad_shapes(self):
        with pytest.raises(ConstructionError):
            BetaSignal(0.0, 1.0)

    @pytest.mark.parametrize("shape", [math.inf, math.nan, 1e308])
    def test_beta_rejects_non_finite_or_overflowing_shapes(self, shape):
        # inf used to divide by zero in _betainc and 1e308 overflowed lgamma
        for alpha, beta in ((shape, 2.0), (2.0, shape)):
            with pytest.raises(ConstructionError, match="beta shape"):
                BetaSignal(alpha, beta)

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


# I_x(a, b) from scipy.special.betainc (SciPy 1.17), stored as literals so
# the tests import no SciPy; each agrees with a 40-digit mpmath series to
# 1e-14 (small shapes) or 1e-12 (large shapes) relative.
_BETAINC_XS = (1e-12, 1e-6, 0.03, 0.25, 0.5, 0.8, 1 - 1e-6, 1 - 1e-12)
_BETAINC_SMALL = {
    (2.371, 2.887): (
        2.411399764991928e-28, 4.057594450080787e-14, 0.0016071734704101938,
        0.17778355635161852, 0.5964031969777249, 0.9568168150485153, 1.0, 1.0),
    (4.636, 2.435): (
        2.313118042992016e-55, 1.5142489584308052e-27, 8.328422540593332e-07,
        0.011530899881857163, 0.18729792057019198, 0.7823518709739367,
        0.9999999999999537, 1.0),
    (2.638, 3.019): (
        1.8882145321824063e-31, 1.2707224418463603e-15, 0.0007860138461355185,
        0.14798696712464393, 0.5685352524020031, 0.9555441731787693, 1.0, 1.0),
    (1.086, 2.657): (
        2.6252731519682873e-13, 8.613390212573763e-07, 0.06109671038875052,
        0.499539567658716, 0.8240093685459353, 0.9841676291261164,
        0.9999999999999999, 1.0),
    (2.0, 2.0): (
        2.9999999999979998e-24, 2.9999979999999998e-12, 0.002646, 0.15625,
        0.5, 0.896, 0.999999999997, 1.0),
    (0.5, 2.0): (
        1.4999999999994997e-06, 0.0014999994999999996, 0.25720954492397824,
        0.6875000000000002, 0.8838834764831843, 0.9838699100999074,
        0.999999999999625, 1.0),
    (0.3, 0.5): (
        0.0001838414622817461, 0.011599613423080616, 0.25650743868850767,
        0.4985281286927201, 0.6392894541544524, 0.7933742529966188,
        0.9995608682712532, 0.9999995608732309),
    (2.887, 2.371): (
        1.2727818815033232e-34, 2.671489933900738e-17, 0.0002181674671292602,
        0.07739404408270074, 0.4035968030222748, 0.8868359767568478,
        0.9999999999999595, 1.0),
    (2.435, 4.636): (
        1.1372141582248333e-28, 4.632774256092545e-14, 0.003418061569214101,
        0.32425024776288075, 0.812702079429808, 0.9955952095305322, 1.0, 1.0),
    (3.019, 2.638): (
        4.420414694501535e-36, 5.747281636420584e-18, 0.00018183835602096738,
        0.0810347217912217, 0.43146474759799686, 0.9104981020305849,
        0.9999999999999988, 1.0),
    (2.657, 1.086): (
        1.5087343144994648e-32, 1.3201179638304346e-16,
        0.00010363350081809755, 0.028535567324035303, 0.17599063145406468,
        0.5889256053957919, 0.9999991386609788, 0.9999999999997374),
    (2.0, 0.5): (
        3.75000000000125e-25, 3.7500012500007017e-13, 0.00034093311769537056,
        0.025721420742506513, 0.11611652351681556, 0.37390096630005887,
        0.9985000004999784, 0.9999985000165914),
    (0.5, 0.3): (
        4.3913162627647215e-07, 0.00043913172874046803, 0.07660055417383173,
        0.23432787482953918, 0.3607105458455472, 0.5369776584768396,
        0.9884003865768193, 0.9998161597577946),
}
_BETAINC_LARGE = [
    (10000.0, 10000.0, 0.489394, 0.001349322744006636),
    (10000.0, 10000.0, 0.496465, 0.1586917978667267),
    (10000.0, 10000.0, 0.5, 0.4999999999999989),
    (10000.0, 10000.0, 0.503535, 0.8413082021332672),
    (10000.0, 10000.0, 0.510606, 0.9986506772559933),
    (3000.0, 20.0, 0.98895, 0.004870017008596945),
    (3000.0, 20.0, 0.991902, 0.1570121262701488),
    (3000.0, 20.0, 0.993377, 0.47042212884777956),
    (3000.0, 20.0, 0.994853, 0.8436198682369307),
    (3000.0, 20.0, 0.997805, 0.9999795642214071),
    (0.7, 5000.0, 0.00013998, 0.6565584005070875),
    (0.7, 5000.0, 0.000307261, 0.8717178531843853),
    (0.7, 5000.0, 0.000641821, 0.9796220153174671),
    (250.0, 9000.0, 0.0219691, 0.000725769910059627),
    (250.0, 9000.0, 0.025341, 0.15850804801000856),
    (250.0, 9000.0, 0.027027, 0.5080594651775426),
    (250.0, 9000.0, 0.028713, 0.841471671926888),
    (250.0, 9000.0, 0.032085, 0.9978515785691182),
    (10000.0, 1.5, 0.999483, 0.015865122506343945),
    (10000.0, 1.5, 0.999728, 0.14221796607048534),
    (10000.0, 1.5, 0.99985, 0.39157892053394605),
    (10000.0, 1.5, 0.999972, 0.9055202825163318),
]


_ROOT = Path(__file__).resolve().parents[1]


def _file_beta_shapes():
    """The beta shapes of the model files the benchmark and the sweep run."""
    shapes = set()
    for folder in ("perfbench", "tools"):
        for path in sorted((_ROOT / folder / "models").glob("*.model")):
            signal = load(str(path))[0].signal
            if signal.family == "beta":
                shapes.add((signal.alpha, signal.beta))
    return sorted(shapes)


# log-uniform shapes from 0.05 to 5000, and the extremes of the tables above
_ARRAY_SHAPES = _file_beta_shapes() + [
    tuple(pair) for pair in np.exp(np.random.default_rng(25).uniform(
        math.log(0.05), math.log(5e3), (8, 2))).tolist()] + [
    (0.3, 0.5), (1e4, 1e4), (1e4, 1.5), (0.7, 5e3)]


class TestBetaincArrayForm:
    """The array form (and so ``_betainc``, its one-point call) equals the
    pointwise Lentz loop of ``reference_forms.betainc`` bit for bit."""

    def test_the_model_files_have_beta_shapes(self):
        assert {(0.5, 2.0), (3.0, 0.5), (2.0, 2.0)} <= set(_file_beta_shapes())

    @pytest.mark.parametrize("a, b", _ARRAY_SHAPES)
    def test_equals_the_reference(self, a, b):
        swap = (a + 1.0) / (a + b + 2.0)
        xs = np.array([0.0, 1.0, 1e-300, 1 - 1e-16, swap,
                       math.nextafter(swap, 0.0), math.nextafter(swap, 1.0),
                       -0.5, 1.5]
                      + np.random.default_rng(0).uniform(0, 1, 300).tolist())
        want = np.array([betainc(a, b, x) for x in xs.tolist()])
        one_point = np.array([_betainc(a, b, x) for x in xs.tolist()])
        for got in (_betainc_many(a, b, xs), one_point):
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_keeps_the_shape(self):
        xs = np.linspace(0.0, 1.0, 12)
        got = _betainc_many(0.5, 2.0, xs.reshape(3, 4))
        assert got.shape == (3, 4)
        assert got.ravel().tolist() == _betainc_many(0.5, 2.0, xs).tolist()

    @pytest.mark.parametrize("x", [1e-12, 0.5])
    def test_a_vanishing_shape_ratio_divides_by_zero(self, x):
        # a / (a + b) is 0 below the swap point, b / (a + b) above it
        with pytest.raises(ZeroDivisionError):
            betainc(1e-320, 1e10, x)
        with pytest.raises(ZeroDivisionError):
            _betainc_many(1e-320, 1e10, np.array([x]))


class TestBetainc:
    """The in-repo regularized incomplete beta against frozen references."""

    @pytest.mark.parametrize("shapes", sorted(_BETAINC_SMALL))
    def test_small_shapes_match_reference(self, shapes):
        a, b = shapes
        for x, want in zip(_BETAINC_XS, _BETAINC_SMALL[shapes]):
            assert _betainc(a, b, x) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("a, b, x, want", _BETAINC_LARGE)
    def test_large_shapes_match_reference(self, a, b, x, want):
        assert _betainc(a, b, x) == pytest.approx(want, rel=1e-11)

    @given(st.floats(0.2, 5.0), st.floats(0.2, 5.0),
           st.integers(1, 2 ** 40 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    def test_symmetry(self, a, b, k):
        # x = k / 2^40 keeps 1 - x exact, so both sides see the same point
        x = k / 2.0 ** 40
        assert _betainc(a, b, x) + _betainc(b, a, 1.0 - x) == pytest.approx(
            1.0, abs=5e-16)

    @pytest.mark.xfail(strict=True, reason="at x = a / (a + b) the continued "
                       "fraction falls short: 2 I(1/2; 3, 3) - 1 is -2.9e-15, "
                       "and 11 of the shapes a = b = 0.25, 0.5, ..., 5 miss "
                       "the bound there")
    def test_symmetry_at_the_midpoint_of_equal_shapes(self):
        assert 2.0 * _betainc(3.0, 3.0, 0.5) - 1.0 == pytest.approx(
            0.0, abs=5e-16)

    def test_exact_at_the_ends(self):
        for a, b in ((0.3, 0.5), (2.0, 2.0), (1e4, 1.5)):
            assert _betainc(a, b, 0.0) == 0.0
            assert _betainc(a, b, 1.0) == 1.0
        sig = BetaSignal(0.5, 2.0, Interval(1.0, 3.0))
        assert (sig.cdf(1.0), sig.sf(1.0)) == (0.0, 1.0)
        assert (sig.cdf(3.0), sig.sf(3.0)) == (1.0, 0.0)
        assert sig.sf_many(np.array([1.0, 3.0])).tolist() == [1.0, 0.0]

    def test_non_convergence_names_the_point(self, monkeypatch):
        monkeypatch.setattr(model_core, "_BETAINC_MAX_TERMS", 2)
        where = r"2 terms at \(a, b, x\) = \(2.5, 3.5, 0.4\)"
        with pytest.raises(EvaluationError, match=where):
            _betainc(2.5, 3.5, 0.4)

    @pytest.mark.parametrize("first", [0.4, 0.6])
    def test_non_convergence_names_the_first_point_in_flat_order(
            self, monkeypatch, first):
        # With two terms 1e-6 and 0.99999 converge; 0.3, 0.4 and 0.6 do
        # not. 0.6 lies above the swap point 0.4375, 0.3 and 0.4 below it.
        monkeypatch.setattr(model_core, "_BETAINC_MAX_TERMS", 2)
        where = rf"2 terms at \(a, b, x\) = \(2.5, 3.5, {first}\)"
        with pytest.raises(EvaluationError, match=where):
            _betainc_many(2.5, 3.5,
                          np.array([[1e-6, first], [0.3, 0.99999]]))

    def test_non_convergence_exits_2(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "beta.model"
        path.write_text("[signal]\nfamily = beta\nparams = alpha=2.5 beta=1.5"
                        "\n\n[kernel]\nfamily = additive_noise\n"
                        "noise.family = logistic\n")
        monkeypatch.setattr(model_core, "_BETAINC_MAX_TERMS", 2)
        assert main(["check", str(path), "--grid", "5x5"]) == 2
        err = capsys.readouterr().err
        assert "did not converge" in err and "(a, b, x)" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("value",
                             [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ToleranceConfig)])
    def test_every_tolerance_must_be_positive_and_finite(self, name, value):
        # a NaN slack would pass every monotone scan vacuously
        with pytest.raises(ConstructionError, match=name):
            ToleranceConfig(**{name: value})

    def test_config_describe_key_order(self):
        assert list(GridSpec().describe()) == [
            "v_points", "V_points", "endpoint_margin", "tail_mass_cut"]
        assert list(ToleranceConfig().describe()) == [
            "monotonicity_slack", "quadrature_rel", "derivative_step_floor",
            "derivative_step_scale"]

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
        assert ke.dHdv < 0

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
            assert check_assumption(m, "FOSD").passed

    def test_ordering_violation_is_flagged_not_fatal(self):
        V_nodes = np.linspace(0.0, 1.0, 33)
        low = V_nodes ** 2   # row at v=0
        high = V_nodes       # row at v=1 sits above: wrong direction
        kernel = TableKernel([0.0, 1.0], V_nodes, [low, high])
        m = ScreeningModel(UniformSignal(Interval(0.0, 1.0)), kernel)
        result = validate_model(m)
        assert result.passed, result.issues()
        assert not check_assumption(m, "FOSD").passed

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


# H, h and dH/dv of exp_tilt at (v, V), from 60-digit mpmath evaluations of
# H = expm1(vV)/expm1(v) and its derivatives at the binary values of v, V
EXP_TILT_REFERENCES = [
    (400.0, 1e-09, 7.660679918991905e-181, 7.66068145112799e-172,
     -7.641528215364084e-181),
    (400.0, 0.5, 1.3838965267367376e-87, 5.53558610694695e-85,
     -6.919482633683688e-88),
    (400.0, 0.999, 0.6703200460356391, 268.1280184142556,
     -0.0006703200460356397),
    (800.0, 1e-09, 0.0, 0.0, -0.0),
    (800.0, 0.5, 1.9151695967140057e-174, 1.5321356773712045e-171,
     -9.575847983570028e-175),
    (800.0, 0.999, 0.4493289641172213, 359.463171293777,
     -0.0004493289641172217),
    (5000.0, 1e-09, 0.0, 0.0, -0.0),
    (5000.0, 0.5, 0.0, 0.0, -0.0),
    (5000.0, 0.999, 0.0067379469990854375, 33.68973499542719,
     -6.737946999085443e-06),
]


class TestExpTiltLargeSignal:
    """Above v = log(max float)/2, where expm1(v)^2 overflows, exp_tilt
    takes its fields scaled by e^-v."""

    @pytest.mark.parametrize("row", EXP_TILT_REFERENCES)
    def test_fields_match_references(self, row):
        v, V, *want = row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ExpTiltKernel()._fields(np.array([[v]]), np.array([[V]]))
        for g, w in zip(got, want):
            assert abs(float(g[0, 0]) - w) <= 1e-10 * abs(w), (v, V)

    def test_rows_below_the_switch_keep_their_bits(self):
        k = ExpTiltKernel()
        v = np.array([[0.0], [3e-6], [0.7], [120.0], [354.8], [355.0],
                      [900.0]])
        V = np.linspace(0.0, 1.0, 9)[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed, plain = k._fields(v, V), k._fields(v[:5], V)
        for f, g in zip(mixed, plain):
            assert np.array_equal(f[:5], g)

    def test_the_two_forms_meet_at_the_switch(self):
        k = ExpTiltKernel()
        below = np.nextafter(model_core._TILT_SCALED, 0.0)
        V = np.array([[0.3, 0.9, 0.999]])
        plain = k._fields(np.array([[below]]), V)
        scaled = model_core._tilt_scaled(np.array([[below]]), V)
        for f, g in zip(plain, scaled):
            np.testing.assert_allclose(f, g, rtol=1e-12, atol=0.0)
