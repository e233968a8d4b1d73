"""Event simulation: time-rescaled failure draws, duration draws, paths,
replica aggregation."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from gridres import (
    DurationModel,
    RateFunction,
    WeibullMixture,
    expected_recovered,
    mean_paths,
    monte_carlo_recovery_rate,
    replica_rng,
    simulate_events,
)
from gridres import simulate

from conftest import (
    build_path,
    mixture_from_uniforms,
    reference_mixture,
    reference_model,
    sample_durations,
    sample_nhpp,
)

RAMP = RateFunction(knots=((0.0, 2.0), (25.0, 9.0), (60.0, 4.0)), horizon=60.0)


def exp_model(mean, horizon=1000.0):
    return DurationModel.stationary(
        WeibullMixture(components=((1.0, mean, 1.0),)), horizon=horizon
    )


def test_replica_rng_reproducible_and_distinct():
    a = replica_rng(42, 3).random(8)
    b = replica_rng(42, 3).random(8)
    c = replica_rng(42, 4).random(8)
    d = replica_rng(43, 3).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_nhpp_basics():
    assert len(sample_nhpp(RateFunction(knots=((0.0, 0.0),), horizon=5.0),
                           replica_rng(0, 0))) == 0
    t = sample_nhpp(RAMP, replica_rng(1, 0))
    assert np.all(np.diff(t) > 0.0)
    assert t[0] >= 0.0 and t[-1] <= RAMP.horizon


def test_sample_nhpp_candidate_ceiling():
    # 1e9/h over 12 h would expect ~1.2e10 events per replica; no draw is made
    rng = replica_rng(0, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="expected events"):
        sample_nhpp(RateFunction.constant(1e9, 12.0), rng)
    assert rng.bit_generator.state == state


def test_ties_dropped_with_their_uniforms():
    # 500 expected events in 1e-9 h just past 1e6 h, where doubles are
    # 1.16e-10 h apart: most times tie, and only the first of each is kept
    rate = RateFunction(knots=((1e6, 0.0), (1e6 + 1e-9, 1e12)), horizon=1e6 + 1e-9)
    model = DurationModel(boundaries=(0.0, 1e6 + 5e-10, 2e6), mixtures=(
        WeibullMixture(components=((0.5, 1.0, 1.0), (0.5, 10.0, 2.0))),
        WeibullMixture(components=((1.0, 3.0, 0.7),))))
    for i in range(40):
        t = sample_nhpp(rate, replica_rng(4, i))
        assert np.all(np.diff(t) > 0.0) and 0 < len(t) < 20
        assert t[0] >= 1e6 and t[-1] <= rate.horizon
        # the block route draws what sample_nhpp and sample_durations draw,
        # and drops each tied time together with its two uniforms
        rng = replica_rng(4, i)
        n = rng.poisson(rate.total)
        c = np.cumsum(rng.standard_exponential(n + 1))
        every = rate.inverse_cumulative(c[:n] / c[n] * rate.total)
        u_comp, u_dur = rng.random(n), rng.random(n)
        top = np.maximum.accumulate(every)
        first = np.concatenate(([True], top[1:] > top[:-1]))
        times, durations = simulate_events(rate, model, 4, i)
        np.testing.assert_array_equal(times, every[first])
        np.testing.assert_array_equal(times, t)
        np.testing.assert_array_equal(durations, model.by_interval(
            mixture_from_uniforms, times, u_comp[first], u_dur[first]))
    grid = np.linspace(1e6 - 1.0, 1e6 + 20.0, 50)
    out = mean_paths(rate, model, grid, replicas=40, seed=4)
    paths = [build_path(*simulate_events(rate, model, 4, i)) for i in range(40)]
    np.testing.assert_array_equal(
        out["nf_mean"], np.mean([p.n_failed(grid) for p in paths], axis=0))
    np.testing.assert_array_equal(
        out["nr_mean"], np.mean([p.n_recovered(grid) for p in paths], axis=0))


def test_sample_nhpp_mean_count():
    # replica-averaged event count vs the exact integrated intensity
    total = 0
    reps = 400
    for i in range(reps):
        total += len(sample_nhpp(RAMP, replica_rng(7, i)))
    want = RAMP.total
    se = np.sqrt(want / reps)
    assert abs(total / reps - want) < 3.5 * se


def test_thinning_time_rescaling_ks():
    """Rescaled arrivals of a thinned NHPP are unit-rate Poisson."""
    passed = 0
    for s in range(100):
        t = sample_nhpp(RAMP, replica_rng(s, 0))
        gaps = np.diff(np.concatenate([[0.0], RAMP.cumulative(t)]))
        if stats.kstest(gaps, "expon").pvalue >= 0.01:
            passed += 1
    assert passed >= 95


def test_recovery_increments_dispersion():
    """Binned recovery counts behave like Poisson counts with the
    theoretical means (chi-square dispersion check at the 95% band)."""
    rate = RateFunction.constant(8.0, 25.0)
    model = exp_model(3.0)
    edges = np.linspace(0.0, 25.0, 11)
    mu = np.diff([expected_recovered(rate, model, float(b)) for b in edges])
    lo = stats.chi2.ppf(0.025, len(mu))
    hi = stats.chi2.ppf(0.975, len(mu))
    ok = 0
    for s in range(100):
        times, durs = simulate_events(rate, model, seed=s)
        cnt, _ = np.histogram(times + durs, bins=edges)
        d = float(((cnt - mu) ** 2 / mu).sum())
        ok += lo <= d <= hi
    assert ok >= 90


def test_sample_durations_exponential_mean():
    model = exp_model(2.0)
    rng = replica_rng(3, 0)
    d = sample_durations(np.linspace(0.0, 900.0, 100_000), model, rng)
    assert d.mean() == pytest.approx(2.0, rel=0.01)


def test_sample_durations_reference_short_fraction():
    model = DurationModel.stationary(reference_mixture(0), horizon=1000.0)
    rng = replica_rng(11, 0)
    d = sample_durations(np.zeros(100_000), model, rng)
    assert np.mean(d < 13.0) == pytest.approx(0.5599, abs=0.01)


def test_sample_durations_respect_intervals():
    # wildly different scales on each side of the boundary show up in the draws
    model = DurationModel(
        boundaries=(0.0, 10.0, 20.0),
        mixtures=(
            WeibullMixture(components=((1.0, 0.1, 1.5),)),
            WeibullMixture(components=((1.0, 80.0, 1.5),)),
        ),
    )
    times = np.concatenate([np.full(300, 4.0), np.full(300, 15.0)])
    d = sample_durations(times, model, replica_rng(5, 0))
    assert d[:300].mean() < 1.0
    assert d[300:].mean() > 40.0


def test_sample_durations_empty():
    assert len(sample_durations([], reference_model(), replica_rng(0, 0))) == 0


class TestSamplePath:
    def test_empty(self):
        path = build_path([], [])
        assert path.n_failed(5.0) == 0
        assert path.n_recovered(5.0) == 0
        assert path.n_out(5.0) == 0

    def test_single_event(self):
        path = build_path([1.0], [2.0])
        for t, want in ((0.5, 0), (1.0, 1), (2.9, 1), (3.0, 0), (9.0, 0)):
            assert path.n_out(t) == want

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            build_path([1.0, 2.0], [1.0])

    def test_identity_on_random_event_sets(self):
        rng = np.random.default_rng(20080912)
        for _ in range(50):
            n = rng.integers(1, 120)
            times = np.sort(rng.uniform(0.0, 50.0, n))
            durations = rng.gamma(1.2, 8.0, n)
            if rng.random() < 0.3:
                durations[rng.integers(0, n)] = 0.0  # instant restoration tie
            path = build_path(times, durations)
            probes = path.jump_times
            nf = path.n_failed(probes)
            nr = path.n_recovered(probes)
            np.testing.assert_array_equal(path.n_out(probes), nf - nr)

    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(463)
        times = np.sort(rng.uniform(0.0, 42.0, 463))
        durations = rng.gamma(2.0, 20.0, 463)
        path = build_path(times, durations)
        rec = times + durations
        for t in path.jump_times:
            want = int(np.sum((times <= t) & (t < rec)))
            assert path.n_out(t) == want


class TestMonteCarlo:
    def test_replica_floor(self):
        with pytest.raises(ValueError, match="100"):
            monte_carlo_recovery_rate(
                RAMP, exp_model(2.0), np.linspace(0.0, 60.0, 13), replicas=99, seed=0
            )
        with pytest.raises(ValueError):
            monte_carlo_recovery_rate(
                RAMP, exp_model(2.0), [5.0, 5.0], replicas=100, seed=0
            )

    def test_replica_ceiling(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a replica was drawn")

        monkeypatch.setattr(simulate, "_Draws", no_draw)
        grid = np.linspace(0.0, 60.0, 13)
        for replicas in (10**7 + 1, 2**53):
            with pytest.raises(ValueError, match="replicas exceed the limit of 1e\\+07"):
                monte_carlo_recovery_rate(RAMP, exp_model(2.0), grid, replicas=replicas, seed=0)
            with pytest.raises(ValueError, match="replicas exceed the limit of 1e\\+07"):
                mean_paths(RAMP, exp_model(2.0), grid, replicas=replicas, seed=0)

    def test_zero_intensity(self):
        quiet = RateFunction(knots=((0.0, 0.0),), horizon=10.0)
        mc = monte_carlo_recovery_rate(
            quiet, exp_model(1.0), np.linspace(0.0, 10.0, 6), replicas=100, seed=0
        )
        np.testing.assert_array_equal(mc.mean_rate, 0.0)
        np.testing.assert_array_equal(mc.se_rate, 0.0)

    def test_matches_analytic_convolution(self):
        # constant failures with exponential restoration: bin-averaged
        # recovery intensity has the closed form lam0*(1 - exp(-t/mean))
        lam0, mean = 5.0, 2.0
        rate = RateFunction.constant(lam0, 20.0)
        model = exp_model(mean)
        edges = np.linspace(0.0, 20.0, 21)
        mc = monte_carlo_recovery_rate(rate, model, edges, replicas=600, seed=17)
        # integral of lam0*(1-exp(-v/mean)) over each bin, divided by width
        lam_int = lam0 * (
            np.diff(edges) + mean * (np.exp(-edges[1:] / mean) - np.exp(-edges[:-1] / mean))
        )
        want = lam_int / np.diff(edges)
        se = np.maximum(mc.se_rate, 1e-12)
        within = np.abs(mc.mean_rate - want) <= 3.0 * se
        assert within.mean() >= 0.8
        assert mc.centers[0] == pytest.approx(0.5)


class TestMeanPaths:
    def test_shapes_and_identity(self):
        grid = np.linspace(0.0, 60.0, 31)
        out = mean_paths(RAMP, exp_model(2.0), grid, replicas=50, seed=2)
        assert out["nf_mean"].shape == grid.shape
        np.testing.assert_allclose(
            out["n_mean"], out["nf_mean"] - out["nr_mean"], atol=1e-12
        )

    def test_single_replica(self):
        grid = np.linspace(0.0, 60.0, 7)
        out = mean_paths(RAMP, exp_model(2.0), grid, replicas=1, seed=2)
        np.testing.assert_array_equal(out["nf_se"], 0.0)

    def test_counts_match_sample_paths(self):
        # oracle: each replica counted through build_path, one at a time
        grid = np.linspace(0.0, 60.0, 25)
        paths = [build_path(*simulate_events(RAMP, exp_model(2.0), 5, i))
                 for i in range(6)]
        out = mean_paths(RAMP, exp_model(2.0), grid, replicas=6, seed=5)
        np.testing.assert_array_equal(
            out["nf_mean"], np.mean([p.n_failed(grid) for p in paths], axis=0))
        np.testing.assert_array_equal(
            out["nr_mean"], np.mean([p.n_recovered(grid) for p in paths], axis=0))


def test_draw_buffers_grow_past_their_first_size():
    # buffers sized for one replica's events, then a block of 40 replicas
    model = exp_model(2.0)
    draws = simulate._Draws(RAMP, model, 5, 1)
    times, durations, recovered, sizes = draws.block(0, 40)
    assert len(times) > 2 * RAMP.total
    ends = np.cumsum(sizes)
    for i, (lo, hi) in enumerate(zip(ends - sizes, ends)):
        t, d = simulate_events(RAMP, model, 5, i)
        np.testing.assert_array_equal(times[lo:hi], t)
        np.testing.assert_array_equal(durations[lo:hi], d)
        np.testing.assert_array_equal(recovered[lo:hi], t + d)


def test_moments_exact_past_int64():
    # each mean and squared standard error is the correctly rounded quotient
    # of the exact integers, as Fraction gives it: small counts, whose
    # integers stay in int64, then sums of squares past 2**63, first across
    # blocks, whose int64 totals move into Python integers before they
    # could overflow, then within one block, whose squares alone would
    big = 2**31
    small = [np.array([[[3, 1]], [[4, 1]]]), np.array([[[6, 0]]])]
    large = [np.array([[[big - k, k]]]) for k in range(5)]
    large.append(np.array([[[big + 7, 3]], [[big + 9, 0]]]))
    for blocks in (small, large):
        moments = simulate._Moments((1, 2))
        rows = []
        for counts in blocks:
            rows.extend(counts[:, 0].tolist())
            moments.fold(counts.copy(), int(counts.sum()))
        mean, se = moments.mean_se()
        n = len(rows)
        for j in range(2):
            col = [r[j] for r in rows]
            s, ss = sum(col), sum(x * x for x in col)
            assert mean[0, j] == float(Fraction(s, n))
            assert se[0, j] == math.sqrt(float(Fraction(n * ss - s * s, n * n * (n - 1))))
    assert sum(r[0] ** 2 for r in rows) > 2**63


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_replicas():
    # the parent's (replicas, 2, grid) stack held 32 MB at 200 replicas on
    # this grid and 320 MB at 2000
    grid = np.linspace(0.0, 60.0, 10_001)
    rate, model = RateFunction.constant(0.5, 60.0), exp_model(2.0)
    for run in (lambda r: mean_paths(rate, model, grid, r, 3),
                lambda r: monte_carlo_recovery_rate(rate, model, grid, r, 3)):
        few, many = peak_bytes(lambda: run(200)), peak_bytes(lambda: run(2000))
        assert many <= few + 2**18, (few, many)
