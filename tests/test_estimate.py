"""Rate estimation, the Pearson counting test, QQ diagnostics, reconstruction."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from gridres import (
    DurationModel,
    RateFunction,
    WeibullMixture,
    estimate_rate,
    format_triple,
    pearson_nhpp_test,
    qq_points,
    reconstruct,
    reject_decision,
    replica_rng,
    simulate_events,
)
from gridres.estimate import regular_grid

from conftest import build_path, reference_mixture, sample_nhpp


def grid_rates(est: RateFunction) -> np.ndarray:
    """An estimate's knot times and rates, as the two rows of an array."""
    return np.array(est.knots).T


class TestEstimateRate:
    def test_single_event_hand_computed(self):
        est = estimate_rate([10.0], window=5.0, bin_width=1.0, horizon=20.0)
        at = dict(est.knots)
        assert at[10.0] == pytest.approx(0.1)   # window (5, 15], width 10
        assert at[0.0] == 0.0                   # window truncated to (0, 5]
        assert at[6.0] == pytest.approx(0.1)    # event at 10 inside (1, 11]
        assert at[4.0] == 0.0                   # (0, 9] misses the event
        assert at[20.0] == 0.0                  # (15, 20] misses it too

    def test_truncated_window_divisor(self):
        # event near the left edge: the window is clipped to (0, 5], so
        # the divisor is the clipped width, not 2*window
        est = estimate_rate([2.0], window=5.0, bin_width=1.0, horizon=20.0)
        at = dict(est.knots)
        assert at[0.0] == pytest.approx(1.0 / 5.0)
        assert at[1.0] == pytest.approx(1.0 / 6.0)
        assert at[6.0] == pytest.approx(1.0 / 10.0)
        # the window is half-open: an event at exactly t - window drops out
        assert at[7.0] == 0.0

    def test_constant_rate_recovered_exactly(self):
        # one event per hour at half-hours: every full window holds 10
        # events and every truncated window is proportionally shorter
        events = np.arange(0.5, 100.0, 1.0)
        est = estimate_rate(events, window=5.0, bin_width=1.0, horizon=100.0)
        np.testing.assert_allclose(grid_rates(est)[1], 1.0, atol=1e-12)

    def test_linearity_in_event_multisets(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = np.sort(rng.uniform(0.0, 50.0, rng.integers(5, 60)))
            b = np.sort(rng.uniform(0.0, 50.0, rng.integers(5, 60)))
            ea = estimate_rate(a, horizon=50.0)
            eb = estimate_rate(b, horizon=50.0)
            eab = estimate_rate(np.sort(np.concatenate([a, b])), horizon=50.0)
            np.testing.assert_allclose(grid_rates(eab)[1], grid_rates(ea)[1] + grid_rates(eb)[1],
                                       atol=1e-12)

    def test_poisson_window_variance(self):
        lam = 5.0
        t = sample_nhpp(RateFunction.constant(lam, 200.0), replica_rng(1, 0))
        grid, rates = grid_rates(estimate_rate(t, window=5.0, bin_width=1.0, horizon=200.0))
        interior = (grid >= 5.0) & (grid <= 195.0)
        band = 3.0 * math.sqrt(2.0 * 5.0 * lam) / (2.0 * 5.0)
        inside = np.abs(rates[interior] - lam) <= band
        # a handful of the ~190 correlated points may graze past 3 sigma
        assert inside.mean() >= 0.95

    def test_empty_events(self):
        with pytest.warns(UserWarning, match="no events"):
            est = estimate_rate([], horizon=20.0)
        np.testing.assert_array_equal(grid_rates(est)[1], 0.0)
        with pytest.raises(ValueError):
            estimate_rate([])

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            estimate_rate([1.0], window=0.0)
        with pytest.raises(ValueError):
            estimate_rate([1.0], bin_width=-1.0)
        with pytest.raises(ValueError):
            estimate_rate([30.0], horizon=20.0)
        # a NaN window used to give an all-zero intensity; an infinite one
        # the constant rate that any window past the horizon gives
        for bad in ({"window": np.nan}, {"window": np.inf}, {"bin_width": np.nan}):
            with pytest.raises(ValueError):
                estimate_rate([1.0], horizon=20.0, **bad)
        with pytest.raises(ValueError, match="exceeds"):
            estimate_rate([1.0], bin_width=1e-9, horizon=20.0)

    def test_knots_are_grid_and_rates(self):
        for horizon in (20.0, 20.5):
            est = estimate_rate([3.0, 4.0, 11.0], horizon=horizon)
            grid, rates = grid_rates(est)
            np.testing.assert_array_equal(grid, regular_grid(horizon, 1.0))
            assert est.horizon == horizon
            # windows (0, 5], (0, 6], (0, 7] and (1, 11] by hand
            np.testing.assert_allclose(rates[[0, 1, 2, 6]], [2 / 5, 2 / 6, 2 / 7, 3 / 10],
                                       rtol=1e-15)

    def test_default_horizon_is_the_last_event_rounded_up_to_a_bin(self):
        est = estimate_rate([0.3, 2.5, 7.2], bin_width=2.0)
        assert est.horizon == 8.0
        assert est.knots == estimate_rate([0.3, 2.5, 7.2], bin_width=2.0, horizon=8.0).knots
        # events at 0 alone still get one whole bin
        est = estimate_rate([0.0, 0.0], bin_width=1.5)
        assert est.horizon == 1.5
        assert [t for t, _ in est.knots] == [0.0, 1.5]

    def test_one_point_grid_is_constant(self):
        # a horizon inside regular_grid's 1e-9 slack leaves the one grid point 0
        est = estimate_rate([5e-11], horizon=1e-10)
        assert len(est.knots) == 1 and est.knots[0][0] == 0.0
        assert est.knots[0][1] == pytest.approx(1e10, rel=1e-15)  # 1 event in (0, 1e-10]
        assert est.horizon == 1e-9


class TestPearson:
    def place_counts(self, counts, width=1.0, jitter=0.37):
        times = []
        for i, c in enumerate(counts):
            for j in range(c):
                times.append(i * width + (j + 1) * jitter * width / (c + 1))
        return np.sort(times)

    @pytest.mark.parametrize("n", [2**53, 10**20])
    def test_intervals_over_grid_ceiling_refused(self, n):
        # refused before the edges are allocated, as regular_grid refuses a grid
        with pytest.raises(ValueError, match="intervals exceed the limit"):
            pearson_nhpp_test([1.0, 2.0, 3.0], RateFunction.constant(2.0, 10.0), n_intervals=n)

    def test_hand_computed_table(self):
        # 10 unit intervals, constant estimated intensity 2/hour: the
        # expected counts follow the Poisson pmf with the tail folded into
        # the top cell, and no pooling occurs
        counts = [2, 1, 3, 2, 0, 2, 4, 1, 2, 3]
        events = self.place_counts(counts)
        rate = RateFunction.constant(2.0, 10.0)
        res = pearson_nhpp_test(events, rate, n_intervals=10, alpha=0.05)
        assert res.observed == (1, 2, 4, 2, 1)
        want_e = [10.0 * math.exp(-2.0) * 2.0**j / math.factorial(j) for j in range(4)]
        want_e.append(10.0 - sum(want_e))
        np.testing.assert_allclose(res.expected, want_e, atol=1e-12)
        chi = sum((o - e) ** 2 / e for o, e in zip(res.observed, want_e))
        assert res.chi_square == pytest.approx(chi, rel=1e-12)
        assert res.chi_square == pytest.approx(1.0446, abs=2e-4)
        assert res.dof == 2
        assert res.threshold == pytest.approx(stats.chi2.ppf(0.95, 2), rel=1e-12)
        assert not res.rejected

    def test_tables_sum_to_interval_count(self):
        rng = np.random.default_rng(3)
        rate = RateFunction.constant(4.0, 50.0)
        for s in range(10):
            t = sample_nhpp(rate, replica_rng(s, 0))
            res = pearson_nhpp_test(t, rate, n_intervals=25)
            assert sum(res.observed) == res.n_intervals
            assert sum(res.expected) == pytest.approx(res.n_intervals, abs=1e-6)
            assert sum(res.pooled_observed) == res.n_intervals
            assert sum(res.pooled_expected) == pytest.approx(res.n_intervals, abs=1e-6)
            assert res.rejected == (res.chi_square > res.threshold)

    def test_pooling_respects_floor(self):
        rate = RateFunction.constant(4.0, 50.0)
        t = sample_nhpp(rate, replica_rng(0, 0))
        res = pearson_nhpp_test(t, rate, n_intervals=25)
        assert all(e >= 1.0 for e in res.pooled_expected)
        assert res.dof == len(res.pooled_expected) - 3

    def test_permutation_invariance(self):
        counts = [3, 1, 4, 0, 2, 2, 5, 1, 0, 2]
        rate = RateFunction.constant(2.0, 10.0)
        a = pearson_nhpp_test(self.place_counts(counts), rate, n_intervals=10)
        rng = np.random.default_rng(0)
        shuffled = list(counts)
        rng.shuffle(shuffled)
        b = pearson_nhpp_test(self.place_counts(shuffled), rate, n_intervals=10)
        assert a.chi_square == pytest.approx(b.chi_square, rel=1e-12)
        assert a.dof == b.dof

    def test_zero_intensity_stretch_warns_nothing(self):
        # no intensity over the first 10 h: those intervals expect no event,
        # with 0·log 0 = 0, and no floating-point warning on the way
        rate = RateFunction(knots=((0.0, 0.0), (10.0, 0.0), (10.5, 3.0), (40.0, 3.0)),
                            horizon=40.0)
        events = np.sort(np.random.default_rng(4).uniform(10.5, 40.0, 90))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pearson_nhpp_test(events, rate, n_intervals=40)
        assert res.observed[0] >= 10
        assert sum(res.expected) == pytest.approx(40.0, abs=1e-9)
        assert res.expected[0] > 10.0

    def test_insufficient_diversity(self):
        # all interval counts 0 or 1 pool to too few cells to test anything
        events = [5.0, 15.0, 25.0]
        rate = RateFunction.constant(0.1, 30.0)
        with pytest.raises(ValueError, match="insufficient outcome diversity"):
            pearson_nhpp_test(events, rate, n_intervals=30)

    def test_parameter_guards(self):
        rate = RateFunction.constant(2.0, 10.0)
        with pytest.raises(ValueError):
            pearson_nhpp_test([1.0], rate, n_intervals=9)
        with pytest.raises(ValueError):
            pearson_nhpp_test([1.0], rate, alpha=0.0)
        with pytest.raises(ValueError):
            pearson_nhpp_test([], rate)
        with pytest.raises(ValueError):
            pearson_nhpp_test([11.0], rate)

    def test_decision_helpers(self):
        assert not reject_decision(0.79, 5.99)
        assert reject_decision(6.0, 5.99)
        assert format_triple(0.79, 2, 5.99) == "(0.79, 2, 5.99)"


class TestQQ:
    def test_perfect_fit_on_diagonal(self):
        # arrivals whose rescaled gaps are exactly the theoretical
        # quantiles land every point on the diagonal
        n = 50
        p = (np.arange(1, n + 1) - 0.5) / n
        quantiles = -np.log1p(-p)
        events = np.cumsum(quantiles)
        rate = RateFunction.constant(1.0, float(events[-1]) + 1.0)
        x, y = qq_points(events, rate)
        np.testing.assert_allclose(x, quantiles, atol=1e-12)
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_requires_ten_events(self):
        rate = RateFunction.constant(1.0, 100.0)
        with pytest.raises(ValueError, match="10"):
            qq_points(np.arange(1.0, 9.0), rate)

    def test_ks_distribution_free_against_true_intensity(self):
        rate = RateFunction(knots=((0.0, 2.0), (30.0, 8.0), (70.0, 6.0), (120.0, 1.5)),
                            horizon=120.0)
        passed = 0
        for s in range(100):
            t = sample_nhpp(rate, replica_rng(s, 0))
            _, y = qq_points(t, rate)
            gaps = np.diff(np.concatenate([[0.0], rate.cumulative(t)]))
            if stats.kstest(gaps, "expon").pvalue >= 0.01:
                passed += 1
        assert passed >= 95

    def test_bulk_deviation_small_for_estimated_rate(self):
        # the extreme upper order statistics fluctuate on a Gumbel scale
        # no matter the sample size, so the 0.3 band is asserted over the
        # plotting positions below the 0.9 quantile
        rate = RateFunction(knots=((0.0, 2.0), (30.0, 8.0), (70.0, 6.0), (120.0, 1.5)),
                            horizon=120.0)
        ok = 0
        for s in range(60):
            t = sample_nhpp(rate, replica_rng(s, 0))
            assert len(t) >= 400
            est = estimate_rate(t, window=5.0, bin_width=1.0, horizon=120.0)
            x, y = qq_points(t, est)
            cut = int(math.floor(0.9 * len(x)))
            if np.abs(y - x)[:cut].max() < 0.3:
                ok += 1
        assert ok >= 54

    def test_mismatched_intensity_departs(self):
        # homogeneous events judged against a sharply peaked intensity
        events = np.linspace(0.5, 99.5, 200)
        peaked = RateFunction(
            knots=((0.0, 0.01), (49.0, 0.01), (50.0, 39.0), (51.0, 0.01), (100.0, 0.01)),
            horizon=100.0,
        )
        x, y = qq_points(events, peaked)
        assert np.abs(y - x).max() > 1.0


class TestReconstruct:
    def test_zero_intensity(self):
        model = DurationModel.stationary(reference_mixture(0), horizon=100.0)
        quiet = RateFunction(knots=((0.0, 0.0),), horizon=40.0)
        rec = reconstruct(quiet, model, grid=np.linspace(0.0, 40.0, 21))
        np.testing.assert_array_equal(rec.expected_out, 0.0)

    def test_stationary_constant_closed_form(self):
        # N(t) = lam0 * integral of the survival 1-G over [0, t]
        lam0, mean = 3.0, 2.0
        rate = RateFunction.constant(lam0, 30.0)
        model = DurationModel.stationary(
            WeibullMixture(components=((1.0, mean, 1.0),)), horizon=1000.0
        )
        grid = np.linspace(0.0, 30.0, 61)
        rec = reconstruct(rate, model, grid=grid)
        want = lam0 * mean * (1.0 - np.exp(-grid / mean))
        np.testing.assert_allclose(rec.expected_out, want, rtol=2e-3, atol=1e-9)
        assert rec.expected_out[0] == 0.0

    def test_impulse_approximates_survival(self):
        # a unit-mass spike of failures leaves 1 - G(t) entities failed
        w = 0.05
        g1 = reference_mixture(0)
        model = DurationModel.stationary(g1, horizon=400.0)
        rate = RateFunction(knots=((0.0, 2.0 / w), (w, 0.0)), horizon=40.0)
        grid = np.linspace(0.0, 40.0, 81)
        rec = reconstruct(rate, model, grid=grid)
        want = 1.0 - g1.cdf(np.maximum(grid - w / 2.0, 0.0))
        mask = grid >= 1.0
        assert np.abs(rec.expected_out[mask] - want[mask]).max() < 0.01

    def test_default_grid_from_estimate(self):
        t = sample_nhpp(RateFunction.constant(5.0, 40.0), replica_rng(2, 0))
        est = estimate_rate(t, horizon=40.0)
        model = DurationModel.stationary(reference_mixture(0), horizon=400.0)
        rec = reconstruct(est, model)
        np.testing.assert_array_equal(rec.grid, grid_rates(est)[0])
        assert np.all(rec.expected_out >= 0.0)
        # off whole hours, ceil(horizon) + 1 points still span [0, horizon]
        rec = reconstruct(RateFunction.constant(2.0, 10.5), model)
        np.testing.assert_array_equal(rec.grid, np.linspace(0.0, 10.5, 12))

    def test_grid_validation(self):
        model = DurationModel.stationary(reference_mixture(0), horizon=400.0)
        rate = RateFunction.constant(2.0, 10.0)
        with pytest.raises(ValueError):
            reconstruct(rate, model, grid=[0.0])
        with pytest.raises(ValueError):
            reconstruct(rate, model, grid=[1.0, 2.0])
        with pytest.raises(ValueError):
            reconstruct(rate, model, grid=[0.0, 12.0])

    def test_piecewise_beats_stationary_on_nonstationary_data(self):
        # early failures restore fast, late failures slowly; blending the
        # two into one marginal mixture misplaces the recovery mass
        fast = WeibullMixture(components=((1.0, 1.5, 1.2),))
        slow = WeibullMixture(components=((1.0, 50.0, 2.0),))
        true_model = DurationModel(boundaries=(0.0, 12.0, 40.0), mixtures=(fast, slow))
        rate = RateFunction.constant(8.0, 40.0)
        wins = 0
        for s in range(5):
            times, durations = simulate_events(rate, true_model, seed=s)
            path = build_path(times, durations)
            est = estimate_rate(times, horizon=40.0)
            truth = path.n_out(grid_rates(est)[0])
            frac = np.array([
                np.mean((times >= 0.0) & (times < 12.0)),
                np.mean(times >= 12.0),
            ])
            pooled = DurationModel.stationary(
                true_model.collapse(frac), horizon=true_model.boundaries[-1]
            )
            rec_piece = reconstruct(est, true_model)
            rec_flat = reconstruct(est, pooled)
            l1_piece = np.abs(rec_piece.expected_out - truth).sum()
            l1_flat = np.abs(rec_flat.expected_out - truth).sum()
            wins += l1_piece < l1_flat
        assert wins >= 4
