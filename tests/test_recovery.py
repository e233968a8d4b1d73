"""Recovery intensity convolution: quadrature vs closed forms."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest

from gridres import (
    DurationModel,
    RateFunction,
    SurgeSpec,
    WeibullMixture,
    day_to_day_expected,
    day_to_day_recovery_rate,
    expected_failed,
    expected_in_failure,
    expected_recovered,
    recovery_rate,
    recovery_rate_curve,
    surge_expected,
    surge_recovery_rate,
)
from gridres import recovery

from conftest import reference_mixture, reference_model


def exp_model(mean, horizon=1000.0):
    return DurationModel.stationary(
        WeibullMixture(components=((1.0, mean, 1.0),)), horizon=horizon
    )


def test_constant_rate_exponential_closed_form():
    # constant failures at 5/hour, exponential restoration, mean 2 h:
    # the recovery intensity is 5 * (1 - exp(-t/2))
    lam0, mean = 5.0, 2.0
    rate = RateFunction.constant(lam0, 30.0)
    model = exp_model(mean)
    for t in (0.5, 1.0, 5.0, 20.0):
        want = lam0 * (1.0 - math.exp(-t / mean))
        got = recovery_rate(rate, model, t)
        assert got == pytest.approx(want, rel=2e-4)


def test_recovery_rate_boundaries():
    rate = RateFunction.constant(3.0, 10.0)
    model = exp_model(1.0)
    assert recovery_rate(rate, model, 0.0) == 0.0
    with pytest.raises(ValueError):
        recovery_rate(rate, model, -1.0)
    with pytest.raises(ValueError):
        recovery_rate(rate, model, 11.0)
    with pytest.raises(ValueError):
        recovery_rate(rate, model, 5.0, quad_step=0.0)


def test_zero_rate_gives_zero():
    rate = RateFunction(knots=((0.0, 0.0),), horizon=8.0)
    curve = recovery_rate_curve(rate, reference_model(), np.linspace(0.0, 8.0, 9))
    np.testing.assert_array_equal(curve, 0.0)


def test_infant_singularity_handled():
    # shape < 1 sends the density to infinity at zero lag; the first
    # quadrature cell is integrated against the cdf exactly, so the
    # stationary result must match base_rate * G(t) analytically.
    lam0 = 4.0
    comps = ((1.0, 3.0, 0.37),)
    rate = RateFunction.constant(lam0, 40.0)
    model = DurationModel.stationary(
        WeibullMixture(components=comps), horizon=1000.0
    )
    for t in (0.05, 0.5, 2.0, 10.0, 40.0):
        want = lam0 * (1.0 - math.exp(-((t / 3.0) ** 0.37)))
        got = recovery_rate(rate, model, t)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=2e-3)


def test_piecewise_model_hand_derived():
    # two failure-time intervals with different exponential restorations.
    # For s in [a, b), the inner integral of g_i(t - s) over s is
    # G_i(t - a) - G_i(t - b), which is analytic for k = 1.
    lam0 = 6.0
    psi = (0.0, 4.0, 12.0)
    m1, m2 = 1.5, 9.0
    model = DurationModel(
        boundaries=psi,
        mixtures=(
            WeibullMixture(components=((1.0, m1, 1.0),)),
            WeibullMixture(components=((1.0, m2, 1.0),)),
        ),
    )
    rate = RateFunction.constant(lam0, 12.0)

    def cdf(mean, x):
        return 1.0 - math.exp(-max(x, 0.0) / mean)

    def oracle(t):
        total = 0.0
        for a, b, mean in ((0.0, 4.0, m1), (4.0, 12.0, m2)):
            lo, hi = min(a, t), min(b, t)
            if hi > lo:
                total += lam0 * (cdf(mean, t - lo) - cdf(mean, t - hi))
        return total

    for t in (1.0, 3.9, 4.1, 8.0, 12.0):
        assert recovery_rate(rate, model, t) == pytest.approx(oracle(t), rel=5e-4)


def test_monotone_in_failure_intensity():
    knots_lo = ((0.0, 1.0), (6.0, 3.0), (15.0, 2.0))
    knots_hi = tuple((t, v + 1.5) for t, v in knots_lo)
    lo = RateFunction(knots=knots_lo, horizon=15.0)
    hi = RateFunction(knots=knots_hi, horizon=15.0)
    model = reference_model()
    grid = np.linspace(0.0, 15.0, 31)
    c_lo = recovery_rate_curve(lo, model, grid)
    c_hi = recovery_rate_curve(hi, model, grid)
    assert np.all(c_hi >= c_lo - 1e-12)


def test_conservation_on_long_horizon():
    # all failures eventually recover: integral of the recovery intensity
    # approaches the integral of the failure intensity
    rate = RateFunction(knots=((0.0, 3.0), (10.0, 3.0), (10.001, 0.0)), horizon=200.0)
    model = exp_model(2.5)
    recovered = expected_recovered(rate, model, 200.0)
    assert recovered == pytest.approx(rate.total, rel=1e-3)


def test_in_failure_plus_recovered_is_total():
    rate = RateFunction(knots=((0.0, 2.0), (7.0, 6.0), (20.0, 1.0)), horizon=20.0)
    model = reference_model()
    for t in (0.0, 3.0, 11.0, 20.0):
        lhs = expected_in_failure(rate, model, t) + expected_recovered(rate, model, t)
        assert lhs == pytest.approx(rate.cumulative(t), rel=1e-9, abs=1e-9)


def test_expected_failed_hand_computed():
    f = RateFunction(knots=((0.0, 4.0),), horizon=10.0)
    r = RateFunction(knots=((0.0, 0.0), (10.0, 4.0)), horizon=10.0)
    # integral of f is 4t, integral of r is t^2/5
    assert expected_failed(f, r, 5.0) == pytest.approx(20.0 - 5.0)
    assert expected_failed(f, r, 0.0) == 0.0


def test_expected_failed_clamps_and_warns():
    f = RateFunction(knots=((0.0, 1.0),), horizon=10.0)
    r = RateFunction(knots=((0.0, 1.2),), horizon=10.0)
    with pytest.warns(RuntimeWarning, match="clamped"):
        got = expected_failed(f, r, 5.0)
    assert got == 0.0


def test_expected_failed_horizon_mismatch():
    f = RateFunction(knots=((0.0, 1.0),), horizon=10.0)
    r = RateFunction(knots=((0.0, 1.0),), horizon=4.0)
    with pytest.raises(ValueError, match="mismatched horizons"):
        expected_failed(f, r, 8.0)


def test_day_to_day_stationary_exact():
    model = DurationModel.stationary(reference_mixture(0), horizon=500.0)
    g = reference_mixture(0)
    for t in (0.2, 5.0, 50.0):
        assert day_to_day_recovery_rate(7.0, model, t) == pytest.approx(
            7.0 * g.cdf(t), abs=1e-12
        )
    assert day_to_day_recovery_rate(0.0, model, 5.0) == 0.0
    assert day_to_day_recovery_rate(7.0, model, 0.0) == 0.0


def test_day_to_day_piecewise_matches_general():
    model = reference_model()
    lam0, t = 4.0, 30.0
    general = recovery_rate(RateFunction.constant(lam0, t), model, t)
    assert day_to_day_recovery_rate(lam0, model, t) == pytest.approx(general, rel=1e-9)


def test_day_to_day_expected_exponential():
    # E{N0(t)} = lam0 * integral of exp(-s/mean) = lam0*mean*(1-exp(-t/mean))
    lam0, mean = 5.0, 2.0
    model = exp_model(mean)
    for t in (0.5, 2.0, 10.0):
        want = lam0 * mean * (1.0 - math.exp(-t / mean))
        assert day_to_day_expected(lam0, model, t) == pytest.approx(want, rel=1e-3)


class TestSurge:
    def fixture(self, t1=8.0, lam0=5.0, peak=50.0):
        spec = SurgeSpec(
            base_rate=lam0,
            surge_rate=RateFunction.constant(peak, t1),
            surge_end=t1,
        )
        model = DurationModel.stationary(reference_mixture(3), horizon=1000.0)
        return spec, model

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SurgeSpec(base_rate=-1.0, surge_rate=RateFunction.constant(50.0, 4.0), surge_end=4.0)
        with pytest.raises(ValueError):
            SurgeSpec(base_rate=5.0, surge_rate=RateFunction.constant(50.0, 4.0), surge_end=6.0)
        with pytest.raises(ValueError):
            SurgeSpec(base_rate=5.0, surge_rate=RateFunction.constant(50.0, 4.0), surge_end=0.0)

    def test_composite_rate_shape(self):
        spec, _ = self.fixture(t1=8.0)
        comp = spec.to_rate_function(100.0)
        assert comp.value(0.0) == pytest.approx(55.0)
        assert comp.value(7.9) == pytest.approx(55.0)
        assert comp.value(8.0) == pytest.approx(5.0)
        assert comp.value(60.0) == pytest.approx(5.0)
        # jump carries (peak * t1) of extra integrated intensity
        assert comp.total == pytest.approx(5.0 * 100.0 + 50.0 * 8.0, rel=1e-6)
        with pytest.raises(ValueError):
            spec.to_rate_function(4.0)

    def test_surge_recovery_rate_against_quadrature(self):
        spec, model = self.fixture(t1=8.0)
        comp = spec.to_rate_function(300.0)
        for t in (30.0, 80.0, 150.0):
            exact = recovery_rate(comp, model, t)
            approx = surge_recovery_rate(spec, model, t)
            assert approx == pytest.approx(exact, rel=0.15)
        assert surge_recovery_rate(spec, model, 0.0) == 0.0

    def test_surge_expected_against_quadrature(self):
        spec, model = self.fixture(t1=8.0)
        comp = spec.to_rate_function(320.0)
        for t in (4.0, 40.0, 110.0, 200.0, 320.0):
            exact = expected_in_failure(comp, model, t)
            approx = surge_expected(spec, model, t, regime="general")
            if exact > 1.0:
                assert approx == pytest.approx(exact, rel=0.10)
        # the frozen-survival error concentrates just after the surge
        # window; with this 8 h window it overshoots the tail tolerance
        # there, and shrinks with the window (next test)
        shoulder = expected_in_failure(comp, model, 12.5)
        approx = surge_expected(spec, model, 12.5, regime="general")
        assert approx == pytest.approx(shoulder, rel=0.20)
        assert abs(approx - shoulder) / shoulder > 0.10

    def test_surge_error_shrinks_with_window(self):
        errs = []
        for t1 in (16.0, 8.0, 4.0, 2.0):
            spec, model = self.fixture(t1=t1, peak=400.0 / t1)
            comp = spec.to_rate_function(320.0)
            worst = 0.0
            for t in np.linspace(20.0, 300.0, 15):
                exact = expected_in_failure(comp, model, float(t))
                approx = surge_expected(spec, model, float(t), regime="general")
                if exact > 1.0:
                    worst = max(worst, abs(approx - exact) / exact)
            errs.append(worst)
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.02

    def test_regime_branches(self):
        spec, model = self.fixture(t1=8.0)
        d0 = 13.0
        t_inside, t_beyond = 5.0, 60.0
        n0_inside = day_to_day_expected(spec.base_rate, model, t_inside)
        n0_beyond = day_to_day_expected(spec.base_rate, model, t_beyond)
        # infant: before d0 the general form applies, after d0 only base load
        got = surge_expected(spec, model, t_inside, regime="infant", d0=d0)
        want = surge_expected(spec, model, t_inside, regime="general")
        assert got == pytest.approx(want, rel=1e-12)
        assert surge_expected(spec, model, t_beyond, regime="infant", d0=d0) == pytest.approx(
            n0_beyond, rel=1e-12
        )
        # aging: before d0 nothing from the surge has recovered
        got = surge_expected(spec, model, t_inside, regime="aging", d0=d0)
        want = spec.surge_rate.value(0.0) * t_inside + n0_inside
        assert got == pytest.approx(want, rel=1e-12)
        surv = 1.0 - model.cdf(t_beyond, at=0.0)
        got = surge_expected(spec, model, t_beyond, regime="aging", d0=d0)
        assert got == pytest.approx(
            spec.surge_rate.value(0.0) * 8.0 * surv + n0_beyond, rel=1e-12
        )

    def test_threshold_must_exceed_window(self):
        spec, model = self.fixture(t1=8.0)
        with pytest.raises(ValueError, match="closed form requires d0 > t1"):
            surge_expected(spec, model, 5.0, regime="infant", d0=8.0)
        with pytest.raises(ValueError):
            surge_expected(spec, model, 5.0, regime="aging", d0=2.0)
        with pytest.raises(ValueError):
            surge_expected(spec, model, 5.0, regime="infant")
        with pytest.raises(ValueError):
            surge_expected(spec, model, 5.0, regime="weekly")

    def test_zero_time(self):
        spec, model = self.fixture()
        assert surge_expected(spec, model, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_quadrature_step_refinement_converges():
    rate = RateFunction(knots=((0.0, 2.0), (5.0, 9.0), (14.0, 3.0)), horizon=14.0)
    model = reference_model()
    coarse = recovery_rate(rate, model, 11.0, quad_step=0.2)
    fine = recovery_rate(rate, model, 11.0, quad_step=0.05)
    finer = recovery_rate(rate, model, 11.0, quad_step=0.0125)
    assert abs(fine - finer) < abs(coarse - finer) + 1e-12
    assert fine == pytest.approx(finer, rel=1e-3)


def split_model(boundary):
    """Restoration with mean 0.5 h for failures before `boundary`, 50 h after."""
    return DurationModel(boundaries=(0.0, boundary, 100.0), mixtures=(
        WeibullMixture(components=((1.0, 0.5, 1.0),)),
        WeibullMixture(components=((1.0, 50.0, 1.0),)),
    ))


def test_boundary_on_a_node_takes_both_one_sided_limits():
    # constant 10/h, the boundary at 5 h on a trapezoid node, or 1e-12 h to
    # its right: the curves differ by O(1e-12), not by h times the jump of
    # the integrand there (52.418 against 51.287 at 10 h when the node took
    # the right-hand mixture with its whole weight)
    rate = RateFunction.constant(10.0, 20.0)
    on, off = split_model(5.0), split_model(5.0 + 1e-12)
    times = np.asarray([10.0, 17.5, 10.1])  # two lattice times, one off the lattice
    for fn in (expected_recovered, lambda r, m, t, h: np.asarray(
            [expected_in_failure(r, m, x, h) for x in t])):
        for h in (0.25, 0.05):
            np.testing.assert_allclose(fn(rate, on, times, h), fn(rate, off, times, h),
                                       rtol=1e-9)
    # and the trapezoid keeps its O(h^2) error against the closed form
    t = 10.0
    exact = 10.0 * (5.0 - 0.5 * (math.exp(-(t - 5.0) / 0.5) - math.exp(-t / 0.5))) \
        + 10.0 * (5.0 - 50.0 * (1.0 - math.exp(-(t - 5.0) / 50.0)))
    err = [abs(expected_recovered(rate, on, t, h) - exact) for h in (0.25, 0.125)]
    assert err[0] < 2e-4
    assert 3.5 < err[0] / err[1] < 4.5


@pytest.mark.parametrize("t", [
    pytest.param(1e-300, id="tiny"),
    pytest.param(0.024, id="below-half-a-step"),
    pytest.param(math.nextafter(5.0, math.inf), id="ulp-past-boundary"),
    pytest.param(20.0 + 1e-10, id="past-horizon"),
])
def test_scalar_times_take_one_pass(t):
    # a scalar goes through the curve's own pass, once: a time off the
    # lattice is the last node of a lattice of its own, never re-dispatched;
    # 0.024 is under half a step, so its lattice has one cell
    h = 0.05
    rate = RateFunction(knots=((0.0, 2.0), (7.0, 6.0), (20.0, 1.0)), horizon=20.0)
    infant = WeibullMixture(components=((0.7, 1.5, 0.6), (0.3, 20.0, 0.6)))
    model = DurationModel(boundaries=(0.0, 5.0, 20.0), mixtures=(infant, reference_mixture(0)))
    with mock.patch.object(recovery, "_rate_pass", wraps=recovery._rate_pass) as lam_pass, \
            mock.patch.object(recovery, "_recovered_pass", wraps=recovery._recovered_pass) as cum_pass:
        lam = recovery_rate(rate, model, t, h)
        cum = expected_recovered(rate, model, t, h)
        out = expected_in_failure(rate, model, t, h)
    assert (lam_pass.call_count, cum_pass.call_count) == (1, 2)
    assert all(np.isfinite(v) for v in (lam, cum, out))
    times = np.asarray([t])
    assert lam == recovery_rate_curve(rate, model, times, h)[0]
    assert cum == expected_recovered(rate, model, times, h)[0]
    assert out == (rate.cumulative(times) - expected_recovered(rate, model, times, h))[0]


def test_time_within_rtol_of_a_node_takes_its_value():
    # 1e-13 h past an inner boundary on a node, with an infant mixture on
    # its left: the node's value, as a grid time in reconstruct gets
    rate = RateFunction.constant(3.0, 10.0)
    infant = WeibullMixture(components=((1.0, 2.0, 0.6),))
    model = DurationModel(boundaries=(0.0, 5.0, 10.0), mixtures=(infant, reference_mixture(0)))
    assert recovery_rate(rate, model, 5.0 + 1e-13) == recovery_rate(rate, model, 5.0)
    assert expected_in_failure(rate, model, 5.0 + 1e-13) == pytest.approx(
        expected_in_failure(rate, model, 5.0), rel=1e-12)
