"""Resilience curve, threshold selection, infant/aging split."""

import numpy as np
import pytest
from scipy import stats

from gridres import (
    DurationModel,
    RateFunction,
    WeibullMixture,
    infant_aging_split,
    interval_weights,
    pick_threshold,
    resilience_at,
    resilience_curve,
    replica_rng,
)

from conftest import REFERENCE_P13, reference_mixture, reference_model, sample_nhpp


def softplus_knee(x, delta=0.75):
    """Slope 0.07/h before 13, 0.005/h after, rounded over ~delta hours."""
    return 0.07 * x - 0.065 * delta * np.logaddexp(0.0, (x - 13.0) / delta)


class TestIntervalWeights:
    def test_uniform_rate_equal_intervals(self):
        rf = RateFunction.constant(4.0, 20.0)
        w = interval_weights(rf, (0.0, 10.0, 20.0))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_rate_function_mass_fractions(self):
        rf = RateFunction(knots=((0.0, 0.0), (10.0, 10.0)), horizon=10.0)
        w = interval_weights(rf, (0.0, 5.0, 10.0))
        np.testing.assert_allclose(w, [0.25, 0.75], atol=1e-12)

    def test_empirical_fractions(self):
        times = [1.0, 2.0, 3.0, 12.0]
        w = interval_weights(times, (0.0, 10.0, 20.0))
        np.testing.assert_allclose(w, [0.75, 0.25])

    def test_all_failures_in_first_interval(self):
        w = interval_weights([0.5, 1.5, 2.0], (0.0, 10.0, 20.0, 30.0))
        np.testing.assert_allclose(w, [1.0, 0.0, 0.0])

    def test_surge_weights_match_simulated_fractions(self):
        rf = RateFunction(
            knots=((0.0, 50.0), (12.0, 50.0), (12.001, 5.0), (45.0, 5.0)), horizon=45.0
        )
        bounds = (0.0, 12.0, 20.0, 28.0, 36.0, 45.0)
        w = interval_weights(rf, bounds)
        # brute force over many simulated failures
        counts = np.zeros(5)
        total = 0
        for rep in range(140):
            t = sample_nhpp(rf, replica_rng(rep, 0))
            counts += np.histogram(t, bins=bounds)[0]
            total += len(t)
        assert total > 1e5
        np.testing.assert_allclose(w, counts / total, atol=0.01)

    def test_errors(self):
        with pytest.raises(ValueError):
            interval_weights([], (0.0, 1.0))
        quiet = RateFunction(knots=((0.0, 0.0),), horizon=5.0)
        with pytest.raises(ValueError):
            interval_weights(quiet, (0.0, 5.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            interval_weights([1.0, 2.0, bad], (0.0, 5.0, 10.0))


class TestPickThreshold:
    def test_knee_found_within_one_step(self):
        x = np.arange(0.0, 26.0 + 1e-9, 0.25)
        pick = pick_threshold(x, softplus_knee(x))
        assert pick.shape == "concave"
        assert abs(pick.d0 - 13.0) <= 0.25

    def test_smoothing_at_most_the_point_count(self):
        x = np.arange(0.0, 26.0 + 1e-9, 0.25)
        s = softplus_knee(x)
        # 0 and 1 smooth nothing; a window of every point is the widest allowed
        assert repr(pick_threshold(x, s, 0)) == repr(pick_threshold(x, s, 1))
        pick_threshold(x, s, len(x))
        for width in (-1, len(x) + 1, 2**53, 10**20):
            with pytest.raises(ValueError, match="smoothing window"):
                pick_threshold(x, s, width)

    def test_knee_stable_under_grid_halving(self):
        coarse = np.arange(0.0, 26.0 + 1e-9, 0.25)
        fine = np.arange(0.0, 26.0 + 1e-9, 0.125)
        d_coarse = pick_threshold(coarse, softplus_knee(coarse)).d0
        d_fine = pick_threshold(fine, softplus_knee(fine)).d0
        assert abs(d_coarse - d_fine) <= 0.25

    def test_smooth_concave_curve_picks_left_region(self):
        # s'' = -exp(-x/5)/25 is most negative at 0, so the pick clamps
        # to the earliest interior points the smoothing window can see
        x = np.arange(0.0, 20.0 + 1e-9, 0.5)
        s = 1.0 - np.exp(-x / 5.0)
        pick = pick_threshold(x, s)
        assert pick.shape == "concave"
        assert 0.0 < pick.d0 <= 2.5

    def test_convex_curve_picks_argmax(self):
        # early trunk of an aging Weibull cdf is convex on [0, 8]
        x = np.arange(0.0, 8.0 + 1e-9, 0.25)
        s = 1.0 - np.exp(-((x / 10.0) ** 5.0))
        pick = pick_threshold(x, s)
        assert pick.shape == "convex"
        assert pick.d0 >= 6.0

    def test_indeterminate_surfaces_both_candidates(self):
        # an antisymmetric curvature profile balances the sign masses
        x = np.arange(0.0, 20.0 + 1e-9, 0.25)
        s = stats.norm.cdf(x, 10.0, 2.0)
        pick = pick_threshold(x, s)
        assert pick.shape == "indeterminate"
        assert len(pick.candidates) == 2
        lo, hi = sorted(pick.candidates)
        assert lo < 10.0 < hi
        assert pick.d0 in pick.candidates

    def test_scale_invariance(self):
        x = np.arange(0.0, 26.0 + 1e-9, 0.25)
        s = softplus_knee(x)
        a = pick_threshold(x, s)
        b = pick_threshold(x, 0.2 * s)
        assert a.d0 == b.d0
        assert a.shape == b.shape

    def test_boundary_points_excluded(self):
        x = np.arange(0.0, 26.0 + 1e-9, 0.25)
        pick = pick_threshold(x, softplus_knee(x))
        assert x[1] <= pick.d0 <= x[-2]

    def test_needs_five_points(self):
        with pytest.raises(ValueError):
            pick_threshold([0.0, 1.0, 2.0, 3.0], [0.0, 0.1, 0.2, 0.3])


class TestResilienceCurve:
    def test_single_interval_reduces_to_cdf(self):
        g = reference_mixture(1)
        model = DurationModel.stationary(g, horizon=100.0)
        grid = np.arange(0.0, 60.0 + 1e-9, 0.25)
        curve = resilience_curve([1.0], model, grid)
        np.testing.assert_allclose(curve.values, g.cdf(grid), atol=1e-12)

    def test_equal_weight_reference_value(self):
        model = reference_model()
        grid = np.arange(0.0, 60.0 + 1e-9, 0.25)
        curve = resilience_curve([0.2] * 5, model, grid)
        s13 = resilience_at(curve.grid, curve.values, 13.0)
        assert s13 == pytest.approx(np.mean(REFERENCE_P13), abs=0.006)

    def test_monotone_bounded(self):
        rng = np.random.default_rng(17)
        model = reference_model()
        grid = np.arange(0.0, 300.0 + 1e-9, 0.5)
        for _ in range(10):
            w = rng.dirichlet(np.ones(5))
            curve = resilience_curve(w, model, grid)
            assert np.all(np.diff(curve.values) >= -1e-15)
            assert curve.values[0] == 0.0
            assert curve.values[-1] <= 1.0 + 1e-12

    def test_mixing_monotonicity(self):
        model = reference_model()
        grid = np.arange(0.0, 40.0 + 1e-9, 0.5)
        w = [0.2] * 5
        lo = resilience_curve(w, model, grid)
        # shifting weight toward the interval with the highest cdf(13)
        # cannot lower the mixture value at 13
        best = int(np.argmax(REFERENCE_P13))
        w_hi = np.full(5, 0.05)
        w_hi[best] = 0.8
        hi = resilience_curve(w_hi, model, grid)
        assert resilience_at(hi.grid, hi.values, 13.0) >= resilience_at(
            lo.grid, lo.values, 13.0
        )

    def test_weight_validation(self):
        model = reference_model()
        grid = np.arange(0.0, 10.0 + 1e-9, 0.5)
        with pytest.raises(ValueError):
            resilience_curve([0.5, 0.5], model, grid)
        with pytest.raises(ValueError):
            resilience_curve([0.3, 0.2, 0.2, 0.2, 0.2], model, grid)
        with pytest.raises(ValueError):
            resilience_curve([0.2] * 5, model, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))


class TestResilienceAt:
    def test_interpolation(self):
        grid = np.array([0.0, 1.0, 2.0])
        vals = np.array([0.0, 0.4, 0.6])
        assert resilience_at(grid, vals, 0.0) == 0.0
        assert resilience_at(grid, vals, 0.5) == pytest.approx(0.2)
        assert resilience_at(grid, vals, 2.0) == pytest.approx(0.6)

    def test_out_of_range(self):
        grid = np.array([0.0, 1.0])
        vals = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            resilience_at(grid, vals, -0.1)
        with pytest.raises(ValueError):
            resilience_at(grid, vals, 1.1)

    def test_matches_raw_mixture_sum(self):
        model = reference_model()
        grid = np.arange(0.0, 60.0 + 1e-9, 0.25)
        w = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        curve = resilience_curve(w, model, grid)
        for x in (2.0, 13.0, 37.5, 55.0):
            direct = float(sum(
                wi * m.cdf(x) for wi, m in zip(w, model.mixtures)
            ))
            assert resilience_at(curve.grid, curve.values, x) == pytest.approx(
                direct, abs=1e-3
            )


class TestInfantAgingSplit:
    def test_reference_values(self):
        model = reference_model()
        split = infant_aging_split(model, 13.0)
        assert len(split) == 5
        for i, (infant, aging) in enumerate(split):
            assert infant == pytest.approx(REFERENCE_P13[i], abs=5e-3)
            assert infant + aging == pytest.approx(1.0, abs=1e-12)
        assert split[1][0] == pytest.approx(0.4716, abs=5e-3)
        assert split[2][0] == pytest.approx(0.5689, abs=5e-3)

    def test_huge_threshold(self):
        model = reference_model()
        for infant, aging in infant_aging_split(model, 1e5):
            assert infant == pytest.approx(1.0, abs=1e-9)
            assert aging == pytest.approx(0.0, abs=1e-9)

    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            infant_aging_split(reference_model(), 0.0)
