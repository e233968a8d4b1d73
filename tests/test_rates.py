"""Piecewise-linear intensity functions: evaluation, integration, validation."""

import numpy as np
import pytest

from gridres import RateFunction, failure_time_pdf


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
    # a huge rate whose integral is still a double is fine
    assert RateFunction.constant(8e307, 1.0).total == 8e307


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
