"""Tests for the shared numeric substrate.

Expected values are frozen from closed forms computed independently of the
implementation: antiderivatives evaluated by hand, plus scipy as a second
opinion where a closed form is awkward.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqscreen.errors import (
    NUMERIC_CAUSES,
    ConstructionError,
    DomainError,
    EvaluationError,
    QuadratureError,
)
from seqscreen.numerics import (
    DerivativeEstimate,
    _pointwise,
    Interval,
    differentiate,
    integrate,
    integrate_many,
    invert_monotone,
    richardson,
    scan_violations,
    stencil,
)
import reference_forms


class TestInterval:
    def test_bounded_properties(self):
        iv = Interval(0.0, 2.0)
        assert iv.bounded
        assert iv.width == 2.0
        assert iv.contains(0.0) and not iv.contains(0.0, closed=False)

    def test_infinite_endpoints_allowed(self):
        iv = Interval(-math.inf, math.inf)
        assert not iv.bounded
        assert iv.contains(1e308)

    def test_degenerate_rejected(self):
        with pytest.raises(ConstructionError):
            Interval(1.0, 1.0)
        with pytest.raises(ConstructionError):
            Interval(2.0, 1.0)
        with pytest.raises(ConstructionError):
            Interval(math.nan, 1.0)


class TestIntegrate:
    def test_constant_on_unit_interval(self):
        value, err = integrate(lambda x: 1.0, Interval(0.0, 1.0))
        assert value == pytest.approx(1.0, abs=1e-14)
        assert err <= 1e-10

    def test_log_kernel_moment(self):
        # integral_0^1 -log(V) * V dV = 1/4 (antiderivative
        # V^2/2 log V - V^2/4 evaluated at the endpoints).
        value, _ = integrate(lambda u: -math.log(u) * u, Interval(0.0, 1.0),
                             rel_tol=1e-12)
        assert value == pytest.approx(0.25, rel=1e-10)

    def test_infinite_bound_rejected(self):
        for lower, upper in ((-math.inf, math.inf), (0.0, math.inf),
                             (-math.inf, 0.0)):
            with pytest.raises(ConstructionError, match="finite bounds"):
                integrate(lambda x: 1.0, Interval(lower, upper))
            with pytest.raises(ConstructionError, match="finite bounds"):
                integrate_many(lambda idx, x: np.ones(x.shape), [lower],
                               [upper])

    def test_error_contract(self):
        value, err = integrate(lambda x: math.sin(x) ** 2, (0.0, 10.0),
                               rel_tol=1e-9)
        exact = 5.0 - math.sin(20.0) / 4.0
        assert value == pytest.approx(exact, rel=1e-10)
        assert err <= max(1e-14, 1e-9 * abs(value))

    def test_divergent_integrand_raises_with_partial(self):
        with pytest.raises(QuadratureError) as exc_info:
            integrate(lambda x: 1.0 / x, (0.0, 1.0), rel_tol=1e-10)
        assert exc_info.value.partial is not None
        assert exc_info.value.partial > 1.0  # it grew before giving up

    def test_degenerate_interval_integrates_to_zero(self):
        assert integrate(lambda x: 5.0, (2.0, 2.0)) == (0.0, 0.0)

    def test_reversed_endpoints_flip_sign(self):
        value, _ = integrate(lambda x: x, (1.0, 0.0))
        assert value == pytest.approx(-0.5, abs=1e-13)

    def test_determinism(self):
        runs = {integrate(lambda x: math.cos(3.0 * x), (0.0, 2.5))
                for _ in range(3)}
        assert len(runs) == 1

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(-3, 3, allow_nan=False),
           beta=st.floats(-3, 3, allow_nan=False))
    def test_linearity(self, alpha, beta):
        f = lambda x: math.exp(-x * x)
        g = lambda x: x * x
        combo, _ = integrate(lambda x: alpha * f(x) + beta * g(x), (0.0, 2.0),
                             rel_tol=1e-11)
        f_val, _ = integrate(f, (0.0, 2.0), rel_tol=1e-11)
        g_val, _ = integrate(g, (0.0, 2.0), rel_tol=1e-11)
        assert combo == pytest.approx(alpha * f_val + beta * g_val,
                                      rel=2e-11, abs=2e-11)


class TestDifferentiate:
    def test_quadratic_is_machine_exact(self):
        est = differentiate(lambda x: x * x, 3.0)
        assert est.value == pytest.approx(6.0, abs=1e-9)
        assert not est.nonsmooth

    def test_linear_is_exact(self):
        est = differentiate(lambda x: 2.5 * x - 1.0, 0.7)
        assert est.value == pytest.approx(2.5, abs=1e-10)

    def test_power_kernel_signal_slope(self):
        # d/dv of 0.5**v at v=1 is log(0.5) * 0.5 = -0.34657359027997264
        est = differentiate(lambda v: 0.5 ** v, 1.0)
        assert est.value == pytest.approx(math.log(0.5) * 0.5, abs=1e-10)
        assert est.error < 1e-8

    def test_kink_is_flagged_with_large_error(self):
        est = differentiate(abs, 0.0)
        assert est.nonsmooth
        assert est.error >= 0.5  # one-sided slopes are -1 and +1

    def test_failure_inside_stencil_carries_location(self):
        def partial(x):
            if x > 1.0:
                raise ValueError("outside")
            return x

        with pytest.raises(EvaluationError, match="x="):
            differentiate(partial, 1.0)

    def test_domain_error_in_stencil_becomes_evaluation_error(self):
        def partial(x):
            if x > 1.0:
                raise DomainError(f"outside at {x!r}")
            return x

        with pytest.raises(EvaluationError, match="x=") as exc:
            differentiate(partial, 1.0)
        assert isinstance(exc.value.__cause__, DomainError)

    def test_non_numeric_exception_propagates_as_itself(self):
        class Interrupted(RuntimeError):
            pass

        def interrupted(x):
            raise Interrupted("not a numeric cause")

        with pytest.raises(Interrupted):
            differentiate(interrupted, 1.0)

    def test_explicit_step_honoured(self):
        est = differentiate(math.sin, 0.3, step=1e-4)
        assert est.value == pytest.approx(math.cos(0.3), abs=1e-11)

    def test_richardson_on_arrays_equals_differentiate_per_point(self):
        # a kink at 0.3, and at x = 10 (step 1) stencil values whose
        # Richardson error exceeds the gap between one-sided slopes
        spiky = {10.0: 0.0, 11.0: 0.5, 9.0: 0.5, 10.5: 3.0, 9.5: -2.0}

        def f(x):
            return spiky.get(x, abs(x - 0.3) + x * x * x - 2.0 * x)

        xs = np.array([-1.7, 0.0, 0.3, 0.3 + 4e-6, 0.3 - 2e-3, 0.9, 12.5,
                       10.0])
        steps = np.array([1e-5, 1e-3, 1e-4, 1e-5, 1e-2, 1e-9, 2e-4, 1.0])
        h, points = stencil(xs, steps)
        value, error, nonsmooth = richardson(
            h, *(np.array([f(t) for t in p.tolist()]) for p in points))
        for k, (x, step) in enumerate(zip(xs.tolist(), steps.tolist())):
            est = differentiate(f, x, step)
            assert value[k] == est.value
            assert error[k] == est.error
            assert nonsmooth[k] == est.nonsmooth
        assert nonsmooth[2] and nonsmooth[4] and not nonsmooth[0]
        assert nonsmooth[7] and error[7] > 1.0  # the one-sided gap is 1


class TestMonotoneScan:
    def test_weakly_increasing_with_ties_passes(self):
        line, k0, k1, move = scan_violations([0.0, 1.0, 2.0], [1.0, 1.0, 2.0],
                                             "increasing", 0.0)
        assert len(line) == len(k0) == len(k1) == len(move) == 0

    def test_decreasing_scan_fails_with_witness(self):
        # Shift-to-density ratios of the power family at v=1:
        # -(V log V) evaluated at V=0.1 and V=0.3.
        lo = -(0.1 * math.log(0.1))   # 0.23025850929940458
        hi = -(0.3 * math.log(0.3))   # 0.36119184129778566
        line, k0, k1, move = scan_violations([0.1, 0.3], [lo, hi],
                                             "decreasing", 1e-8)
        assert line.tolist() == [0]
        assert (k0.tolist(), k1.tolist()) == ([0], [1])
        assert move[0] == pytest.approx(hi - lo, rel=1e-12)

    def test_slack_absorbs_tiny_wiggle(self):
        *_, move = scan_violations([0.0, 1.0, 2.0], [1.0, 1.0 + 1e-12, 1.0],
                                   "decreasing", 1e-8)
        assert len(move) == 0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            scan_violations([0.0], [1.0], "increasing", 0.0)

    def test_non_ascending_abscissae_rejected(self):
        with pytest.raises(ValueError):
            scan_violations([0.0, 0.0], [1.0, 2.0], "increasing", 0.0)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            scan_violations([0.0, 1.0], [1.0, 2.0], "sideways", 0.0)

    def test_negative_slack_and_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            scan_violations([0.0, 1.0], [1.0, 2.0], "increasing", -1e-9)
        with pytest.raises(ValueError):
            scan_violations([0.0, 1.0, 2.0], [1.0, 2.0], "increasing", 0.0)

    def test_scan_violations_lists_every_offending_pair(self):
        line, k0, k1, move = scan_violations(
            [0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 2.0, 1.5], "increasing", 0.1)
        assert len(move) == 2
        assert (k0.tolist(), k1.tolist()) == ([0, 2], [1, 3])
        assert move[0] == pytest.approx(1.0)
        assert move[1] == pytest.approx(0.5)

    def test_lines_with_nan_holes(self):
        # Each point is compared with the previous non-NaN point of its
        # own line; a line's leading hole starts it late.
        nan = math.nan
        ys = [[1.0, nan, 0.5, 2.0, nan, 1.0],
              [nan, 3.0, 2.0, nan, nan, 4.0],
              [nan, nan, nan, nan, nan, 0.0]]
        line, k0, k1, move = scan_violations(range(6), ys, "increasing", 0.0)
        assert line.tolist() == [0, 0, 1]
        assert k0.tolist() == [0, 3, 1]
        assert k1.tolist() == [2, 5, 2]
        assert move.tolist() == [0.5, 1.0, 1.0]

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_failing_verdict_survives_subsampling(self, data):
        ys = data.draw(st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=3, max_size=12))
        xs = list(range(len(ys)))
        slack = 1e-6
        _, k0, k1, move = scan_violations(xs, ys, "increasing", slack)
        if not len(move):
            return
        worst = int(move.argmax())
        keep = sorted({0, len(ys) - 1, int(k0[worst]), int(k1[worst])})
        *_, sub = scan_violations([xs[i] for i in keep],
                                  [ys[i] for i in keep], "increasing", slack)
        assert len(sub)
        assert sub.max() >= move[worst] - 1e-12


class TestInvertMonotone:
    def test_square_root_via_bisection(self):
        x = invert_monotone(lambda t: t * t, 2.0, 0.0, 2.0)
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_respects_precomputed_bracket_values(self):
        x = invert_monotone(math.atan, 0.5, -2.0, 2.0,
                            f_lower=math.atan(-2.0), f_upper=math.atan(2.0))
        assert x == pytest.approx(math.tan(0.5), abs=1e-11)

    def test_bad_bracket_rejected(self):
        with pytest.raises(ConstructionError):
            invert_monotone(lambda t: t, 10.0, 0.0, 1.0)

    @pytest.mark.parametrize("f, target, lower, upper, tol", [
        (lambda t: t * t, 2.0, 0.0, 2.0, 1e-12),
        (math.atan, 0.5, -2.0, 2.0, 1e-12),
        (math.exp, 3.0, -1.0, 5.0, 1e-6),
        # flat over [0.3, 0.6]: the target is met on the whole stretch
        (lambda t: min(t, 0.3) + max(t - 0.6, 0.0), 0.3, 0.0, 1.0, 1e-12),
        # NaN above 0.5 counts as at or above the target
        (lambda t: math.nan if t > 0.5 else t, 0.7, 0.0, 1.0, 1e-12),
        (lambda t: math.floor(4.0 * t), 2.0, 0.0, 1.0, 1e-12),
        # a bracket of one float, and one far narrower than tol
        (lambda t: t, 1.0, 1.0, 1.0, 1e-12),
        (lambda t: t, 0.5, 0.5, 0.5 + 1e-15, 1e-12),
    ], ids=["square", "atan", "exp-coarse", "flat", "nan", "step",
            "point", "narrow"])
    def test_equals_the_float_loop_bit_for_bit(self, f, target, lower,
                                               upper, tol):
        """The same root from the same map calls, one per halving, as the
        bisection on floats kept in ``tests/reference_forms.py``."""
        want_calls, got_calls = [], []

        def logged(calls):
            def g(t):
                calls.append(t)
                return f(t)
            return g

        want = reference_forms.invert_monotone(logged(want_calls), target,
                                               lower, upper, tol=tol)
        got = invert_monotone(logged(got_calls), target, lower, upper,
                              tol=tol)
        assert type(got) is float
        assert got == want
        assert got_calls == want_calls


class _Bug(RuntimeError):
    """Not a numeric cause."""


# the points (v, V) of a 3x2 broadcast in row order; two rows fail
_POINTS = [(v, V) for v in (0.0, 1.0, 2.0) for V in (10.0, 20.0)]
_FAILING = {(0.0, 20.0), (2.0, 10.0)}  # flat indices 1 and 4
_NAN = math.nan


@pytest.mark.parametrize("result, raised, record, fill, want", [
    (lambda v, V: v + V, DomainError, (DomainError,), _NAN,
     [[10.0, _NAN], [11.0, 21.0], [_NAN, 22.0]]),
    (lambda v, V: (v + V, v * V), EvaluationError,
     (DomainError, EvaluationError), (_NAN, -1.0),
     [[[10.0, 0.0], [_NAN, -1.0]], [[11.0, 10.0], [21.0, 20.0]],
      [[_NAN, -1.0], [22.0, 40.0]]]),
    (lambda v, V: v + V, DomainError, (EvaluationError,), _NAN,
     DomainError),
    (lambda v, V: v + V, _Bug, NUMERIC_CAUSES, _NAN, _Bug),
], ids=["row-order", "tuple-results", "unrecorded-type-raises",
        "non-numeric-propagates"])
def test_pointwise_replays_points_in_row_order(result, raised, record, fill,
                                               want):
    """Each point is called once, in row order; a recorded failure reads
    the fill and is returned by flat index, and any other exception
    propagates as itself from the first point that meets it."""
    calls = []

    def fn(v, V):
        calls.append((v, V))
        if (v, V) in _FAILING:
            raise raised(f"fails at {(v, V)}")
        return result(v, V)

    v, V = np.array([[0.0], [1.0], [2.0]]), np.array([10.0, 20.0])
    if isinstance(want, type):
        with pytest.raises(want, match=r"fails at \(0\.0, 20\.0\)") as exc:
            _pointwise(fn, v, V, record=record, fill=fill)
        assert type(exc.value) is want
        assert calls == _POINTS[:2]
        return
    out, errors = _pointwise(fn, v, V, record=record, fill=fill)
    assert calls == _POINTS
    assert list(errors) == [1, 4]
    assert [str(e) for e in errors.values()] == [
        "fails at (0.0, 20.0)", "fails at (2.0, 10.0)"]
    assert all(type(e) is raised for e in errors.values())
    assert out.dtype == float
    assert np.array_equal(out, np.array(want), equal_nan=True)
