"""Piecewise-linear intensity functions: evaluation, integration, validation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gridres import RateFunction, failure_time_pdf
from gridres.weibull import interval_of

from conftest import (
    interval_of_oracle,
    rate_cumulative_oracle,
    rate_inverse_cumulative_oracle,
    rate_value_oracle,
)


def test_constant_factory():
    rf = RateFunction.constant(5.0, 20.0)
    assert rf.horizon == 20.0
    assert rf.value(0.0) == 5.0
    assert rf.value(13.7) == 5.0
    assert rf.total == pytest.approx(100.0)


def test_knot_validation():
    with pytest.raises(ValueError):
        RateFunction(knots=(), horizon=10.0)
    with pytest.raises(ValueError):
        RateFunction(knots=((0.0, 1.0), (0.0, 2.0)), horizon=10.0)
    with pytest.raises(ValueError):
        RateFunction(knots=((2.0, 1.0), (1.0, 2.0)), horizon=10.0)
    with pytest.raises(ValueError):
        RateFunction(knots=((0.0, -0.5),), horizon=10.0)
    with pytest.raises(ValueError):
        RateFunction(knots=((0.0, 1.0), (5.0, 2.0)), horizon=4.0)
    with pytest.raises(ValueError):
        RateFunction(knots=((-1.0, 1.0), (5.0, 2.0)), horizon=10.0)
    with pytest.raises(ValueError):
        RateFunction(knots=((0.0, 1.0),), horizon=0.0)


def test_non_finite_slope_rejected():
    # a step of 1/h over 2.2e-313 h has slope 4.5e312, past the largest double:
    # np.interp would give inf between the knots and the inverse would divide by it
    with pytest.raises(ValueError, match="slopes must be finite"):
        RateFunction(knots=((0.0, 0.0), (2.2250738585e-313, 1.0)), horizon=0.05)
    # the same gap with no step is a flat stretch, and a steep finite ramp is fine
    RateFunction(knots=((0.0, 1.0), (2.2250738585e-313, 1.0)), horizon=0.05)
    steep = RateFunction(knots=((0.0, 0.0), (1e-300, 1.0)), horizon=0.05)
    assert steep.value(1e-300) == 1.0 and np.isfinite(steep.total)


def test_non_finite_integral_rejected():
    # every knot is a finite double, yet 205 h at 1.7e308/h overflows the
    # integral: a replica's expected count would be inf
    with pytest.raises(ValueError, match="integral over \\[0, 240\\] h is not finite"):
        RateFunction(knots=((0.0, 2.0), (45.0, 1.7e308), (240.0, 1.7e308)), horizon=240.0)
    with pytest.raises(ValueError, match="not finite"):
        RateFunction.constant(1e308, 2.0)
    with pytest.raises(ValueError, match="not finite"):
        RateFunction.constant(1.7e308, 2.0)
    # a huge rate whose integral is still a double is fine, even where the
    # sum of two knot values would overflow (above about 8.99e307)
    assert RateFunction.constant(8e307, 1.0).total == 8e307
    for horizon in (1.0, 1.5):
        rf = RateFunction.constant(1e308, horizon)
        assert rf.total == 1e308 * horizon
        assert rf.cumulative(horizon) == rf.total
        assert rf.cumulative(0.5) == 5e307


def test_inverse_cumulative_hand_computed():
    # 2/h rising to 6/h over [0, 4], then flat at 6/h: Lambda(4) = 16
    rf = RateFunction(knots=((0.0, 2.0), (4.0, 6.0)), horizon=10.0)
    # Lambda(t) = 2t + t^2/2 on [0, 4]: Lambda(2) = 6; 16 + 6 * 1.5 = 25
    np.testing.assert_allclose(rf.inverse_cumulative([0.0, 6.0, 16.0, 25.0, rf.total]),
                               [0.0, 2.0, 4.0, 5.5, 10.0], rtol=1e-14)


def test_inverse_cumulative_zero_stretches():
    # zero until 2 h, 4/h falling to 0 at 4 h, zero to the horizon
    rf = RateFunction(knots=((2.0, 0.0), (3.0, 4.0), (4.0, 0.0)), horizon=8.0)
    assert rf.total == pytest.approx(4.0)
    t = rf.inverse_cumulative([0.0, 1e-300, 2.0, rf.total])
    assert np.all(np.isfinite(t))
    # level 0 leaves the leading zero stretch at its right end, and the
    # total lands in the trailing one
    assert t[0] == 2.0
    assert t[2] == pytest.approx(3.0)
    assert 4.0 <= t[3] <= 8.0
    np.testing.assert_allclose(rf.cumulative(t), [0.0, 1e-300, 2.0, 4.0], atol=1e-12)
    assert np.all(np.diff(t) >= 0.0)


def test_inverse_cumulative_falling_to_zero_at_the_total():
    # at the total, b**2 + 2 slope du is exactly 0 in real arithmetic; rounded,
    # it is a hair below 0 for about one such segment in five
    for b in np.linspace(0.5, 50.0, 40):
        for w in (0.3, 7.0, 100.0):
            rf = RateFunction(knots=((0.0, b), (w, 0.0)), horizon=w)
            assert float(rf.inverse_cumulative(rf.total)) == pytest.approx(w, rel=1e-6)


def test_interpolation_and_extrapolation():
    rf = RateFunction(knots=((2.0, 4.0), (6.0, 8.0)), horizon=10.0)
    # linear between knots
    assert rf.value(4.0) == pytest.approx(6.0)
    assert rf.value(2.0) == 4.0
    assert rf.value(6.0) == 8.0
    # constant extrapolation on both sides of the knot span
    assert rf.value(0.0) == 4.0
    assert rf.value(1.0) == 4.0
    assert rf.value(9.5) == 8.0
    with pytest.raises(ValueError):
        rf.value(-0.1)
    with pytest.raises(ValueError):
        rf.value(10.5)


def test_value_vectorized():
    rf = RateFunction(knots=((0.0, 1.0), (10.0, 3.0)), horizon=10.0)
    t = np.array([0.0, 5.0, 10.0])
    np.testing.assert_allclose(rf.value(t), [1.0, 2.0, 3.0])


def test_cumulative_hand_computed():
    # ramp 0 -> 4 over [0, 2], then constant 4 to horizon 5
    rf = RateFunction(knots=((0.0, 0.0), (2.0, 4.0)), horizon=5.0)
    assert rf.cumulative(0.0) == 0.0
    assert rf.cumulative(1.0) == pytest.approx(1.0)  # triangle 0.5*1*2
    assert rf.cumulative(2.0) == pytest.approx(4.0)
    assert rf.cumulative(5.0) == pytest.approx(4.0 + 3.0 * 4.0)
    assert rf.total == pytest.approx(16.0)


def test_cumulative_with_leading_flat_segment():
    # first knot at t=2: constant extrapolation backwards must be integrated
    rf = RateFunction(knots=((2.0, 3.0), (4.0, 5.0)), horizon=6.0)
    assert rf.cumulative(2.0) == pytest.approx(6.0)
    assert rf.cumulative(4.0) == pytest.approx(6.0 + 8.0)
    assert rf.cumulative(6.0) == pytest.approx(14.0 + 10.0)


def test_cumulative_matches_fine_trapezoid():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = rng.integers(2, 6)
        times = np.sort(rng.uniform(0.0, 18.0, n))
        times += np.arange(n) * 1e-3  # enforce strict increase
        vals = rng.uniform(0.0, 9.0, n)
        rf = RateFunction(knots=tuple(zip(times, vals)), horizon=20.0)
        grid = np.linspace(0.0, 20.0, 200_001)
        ref = np.trapezoid(rf.value(grid), grid)
        assert rf.total == pytest.approx(ref, abs=1e-6)


def test_integral_additivity():
    rng = np.random.default_rng(7)
    rf = RateFunction(knots=((0.0, 2.0), (5.0, 0.5), (9.0, 4.0)), horizon=12.0)
    for _ in range(50):
        a, b, c = np.sort(rng.uniform(0.0, 12.0, 3))
        whole = rf.integral(a, c)
        split = rf.integral(a, b) + rf.integral(b, c)
        assert whole == pytest.approx(split, abs=1e-12)


def test_peak_and_scaled():
    rf = RateFunction(knots=((0.0, 2.0), (3.0, 7.0), (8.0, 1.0)), horizon=9.0)
    assert rf.peak == 7.0
    doubled = rf.scaled(2.0)
    assert doubled.peak == 14.0
    assert doubled.total == pytest.approx(2.0 * rf.total)
    with pytest.raises(ValueError):
        rf.scaled(-1.0)


def test_failure_time_pdf_normalizes():
    rf = RateFunction(knots=((0.0, 1.0), (6.0, 5.0), (15.0, 2.0)), horizon=15.0)
    pdf = failure_time_pdf(rf)
    grid = np.linspace(0.0, 15.0, 30_001)
    mass = np.trapezoid(pdf.value(grid), grid)
    assert mass == pytest.approx(1.0, abs=1e-6)
    # proportional to the intensity
    assert pdf.value(6.0) / pdf.value(0.0) == pytest.approx(5.0)


def test_failure_time_pdf_degenerate():
    flat = RateFunction(knots=((0.0, 0.0),), horizon=4.0)
    with pytest.raises(ValueError, match="degenerate intensity"):
        failure_time_pdf(flat)


def bits(x) -> bytes:
    """The float64 bytes of x, so that -0.0, 0.0 and nan payloads all count."""
    return np.asarray(x, dtype=float).tobytes()


def same_or_both_raise(new, old, x):
    try:
        want = old(x)
    except ValueError:
        with pytest.raises(ValueError):
            new(x)
        return
    got = new(x)
    assert type(got) is type(want) and bits(got) == bits(want), (x, got, want)


@st.composite
def piecewise_rates(draw):
    """Rates of 1-6 knots, some at 0 or at the horizon, some at zero intensity."""
    horizon = draw(st.sampled_from([1.0, 12.0, 240.0]) | st.floats(1e-3, 1e4))
    when = st.sampled_from([0.0, horizon]) | st.floats(0.0, horizon)
    times = sorted(draw(st.lists(when, min_size=1, max_size=6, unique=True)))
    level = st.just(0.0) | st.floats(0.0, 50.0)
    values = draw(st.lists(level, min_size=len(times), max_size=len(times)))
    try:
        return RateFunction(knots=tuple(zip(times, values)), horizon=horizon)
    except ValueError:  # two knots too close for their step
        assume(False)


@given(st.data(), piecewise_rates())
def test_one_table_matches_the_knot_lookups(data, rate):
    """value, cumulative and inverse_cumulative read the breakpoint table with
    one search of its inner edges; the knot interpolation and the clamped
    full-table searches give the same bits, on the edges, in flat ends and
    zero stretches, and outside the domain."""
    h = rate.horizon
    edges = [0.0, h, *(t for t, _ in rate.knots)]
    when = (st.sampled_from([math.inf, -math.inf, math.nan, -1e-12, h + 1e-9])
            | st.sampled_from(edges) | st.floats(-1.0, h + 1.0))
    times = data.draw(st.lists(when, min_size=1, max_size=8))
    for t in times:
        if math.isnan(t):  # outside the domain, as on every rate
            with pytest.raises(ValueError):
                rate.value(t)
        same_or_both_raise(rate.value, lambda x: rate_value_oracle(rate, x), t)
        same_or_both_raise(rate.cumulative, lambda x: rate_cumulative_oracle(rate, x), t)
    same_or_both_raise(rate.value, lambda x: rate_value_oracle(rate, x), np.array(times))
    same_or_both_raise(rate.cumulative, lambda x: rate_cumulative_oracle(rate, x), np.array(times))

    total = rate.total
    level = st.sampled_from([0.0, total, *rate._cum]) | st.floats(0.0, total)
    levels = np.array(data.draw(st.lists(level, min_size=1, max_size=8)))
    assert bits(rate.inverse_cumulative(levels)) == bits(rate_inverse_cumulative_oracle(rate, levels))

    assert rate.peak == max(v for _, v in rate.knots)
    factor = data.draw(st.floats(0.0, 4.0))
    assert rate.scaled(factor).knots == tuple((t, float(np.float64(v) * factor))
                                              for t, v in rate.knots)


@given(st.data(), st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=6, unique=True))
def test_interval_of_matches_the_clamped_search(data, boundaries):
    b = sorted(boundaries)
    when = (st.sampled_from([math.inf, -math.inf, math.nan, *b])
            | st.floats(-200.0, 200.0))
    t = data.draw(st.lists(when, min_size=1, max_size=8))
    got, want = interval_of(b, t), interval_of_oracle(b, t)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
