"""Weibull mixture EM: recovery of known generators, monotonicity, guards."""

import tracemalloc
import warnings
from datetime import datetime

import numpy as np
import pytest

from gridres import (
    DurationModel,
    WeibullMixture,
    fit_duration_model,
    fit_weibull_mixture,
    ingest_pipeline,
    replica_rng,
)
import gridres.fitting
from gridres.fitting import ZERO_DURATION_SHIFT, _em_lockstep, _moment_start, _moments, _Run, _start_labels

from conftest import WINDOW_END, WINDOW_START, _mstep_shapes, make_raw_csv, reference_mixture, sample_mixture


def test_input_guards():
    with pytest.raises(ValueError):
        fit_weibull_mixture([], 1)
    with pytest.raises(ValueError):
        fit_weibull_mixture([1.0, -2.0], 1)
    with pytest.raises(ValueError):
        fit_weibull_mixture([1.0, np.nan], 1)
    with pytest.raises(ValueError):
        fit_weibull_mixture([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        fit_weibull_mixture([1.0, 2.0], 3)


def test_zero_durations_shifted():
    d = np.concatenate([np.zeros(40), np.full(60, 2.0)])
    fit = fit_weibull_mixture(d, 1, seed=0, n_starts=1)
    assert fit.converged
    assert np.isfinite(fit.log_likelihood)
    # the shifted zeros sit at half the minute resolution
    assert ZERO_DURATION_SHIFT == pytest.approx(1.0 / 120.0)


def test_single_weibull_recovery():
    # generator gamma=10, k=2; MLE should land close at n=5000
    for s in range(5):
        rng = replica_rng(100 + s, 0)
        d = 10.0 * rng.weibull(2.0, 5000)
        fit = fit_weibull_mixture(d, 1, seed=s, n_starts=1)
        (w, g, k), = fit.mixture.components
        assert w == 1.0
        assert 9.5 <= g <= 10.5
        assert 1.9 <= k <= 2.1
        assert fit.converged


def test_loglik_matches_direct_evaluation():
    rng = replica_rng(7, 0)
    d = 4.0 * rng.weibull(1.4, 300)
    fit = fit_weibull_mixture(d, 2, seed=1, n_starts=2)
    direct = float(np.log(fit.mixture.pdf(d)).sum())
    assert fit.log_likelihood == pytest.approx(direct, rel=1e-12)


def test_em_history_monotone():
    g1 = reference_mixture(0)
    for s in range(3):
        d = sample_mixture(g1, 2000, replica_rng(40 + s, 0))
        fit = fit_weibull_mixture(d, 3, seed=s, n_starts=1)
        h = np.asarray(fit.history)
        assert len(h) >= 2
        assert np.all(np.diff(h) >= -1e-9 * np.abs(h[:-1]))


def test_mixture_recovery_cdf_distance():
    g1 = reference_mixture(0)
    d = sample_mixture(g1, 10_000, replica_rng(0, 0))
    fit = fit_weibull_mixture(d, 3, seed=0, n_starts=2)
    x = np.linspace(0.0, 400.0, 2001)
    sup = np.abs(fit.mixture.cdf(x) - g1.cdf(x)).max()
    assert sup < 0.03


def test_all_equal_durations_flagged():
    fit = fit_weibull_mixture(np.full(50, 3.0), 1, seed=0, n_starts=1)
    assert any("upper bound" in f for f in fit.flags)
    (w, g, k), = fit.mixture.components
    assert k == pytest.approx(100.0, abs=1e-3)
    assert g == pytest.approx(3.0, rel=1e-6)


# 20 points near 1000 h and 10 at 0.01 h: at k above ~65 every d**k of the
# short cluster underflows against the global maximum unless the sums are
# taken per component in log space
UNDERFLOW_DURATIONS = np.r_[np.full(10, 1000.0), np.full(10, 1000.001), np.full(10, 0.01)]


def test_short_cluster_shape_reaches_bound():
    fit = fit_weibull_mixture(UNDERFLOW_DURATIONS, 2, seed=3)
    for _, _, k in fit.mixture.components:
        assert k == pytest.approx(100.0, abs=1e-3)
    assert "shape at upper bound (degenerate data)" in fit.flags
    assert fit.log_likelihood >= -3.05


@pytest.mark.parametrize("k0", [0.05, 1.0, 99.0])
def test_one_value_shape_reaches_bound_in_few_steps(monkeypatch, k0):
    # on one distinct value f(k) = 1/k, so Newton doubles k; the first point
    # past 100 evaluates f at 100 instead of halving the bracket ~30 times
    logd, resp = np.log(np.full(20, 3.0)), np.ones((1, 20))

    def steps_to_bound():
        for cap in range(1, 80):
            monkeypatch.setattr(gridres.fitting, "_NEWTON_MAX_STEPS", cap)
            _, k, flags = _mstep_shapes(logd, resp, np.array([k0]))
            if flags:
                assert flags == ["shape at upper bound (degenerate data)"]
                return cap
        return 80

    # doubling from k0 reaches 100 within log2(100 / k0) + 2 steps
    assert steps_to_bound() <= np.log2(100.0 / k0) + 2


def test_converged_newton_step_stays_in_the_bracket():
    # a last Newton step that rounds onto the bracket's lower end has
    # converged; an open bracket test bisected [k, 100] from there instead,
    # some 34 steps (the worst of these 300 solves took 37 sum evaluations
    # that way, and takes 12 with the end kept)
    class CountingRows(gridres.fitting._Rows):
        calls = 0

        def weighted_sums(self, c):
            buf, sums = super().weighted_sums(c)

            def counted():
                self.calls += 1
                return sums()
            return buf, counted

    rng = np.random.default_rng(0)
    calls = []
    for _ in range(300):
        n = int(rng.integers(20, 400))
        shape, scale = rng.uniform(0.3, 5.0), rng.uniform(0.5, 20.0)
        logd = np.log(scale * rng.weibull(shape, n))
        rows = CountingRows([(logd, _moments(logd))], [0])
        resp, k0 = np.ones((1, 1, n)), np.array([[rng.uniform(0.05, 10.0)]])
        gridres.fitting._newton_shapes(rows, resp, rows.sum(resp), k0)
        calls.append(rows.calls)
    assert max(calls) <= 15, max(calls)


def test_fit_raises_no_runtime_warning():
    # exp overflow in the density and log(0) of a zero responsibility give
    # the correct -inf limits and must stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_weibull_mixture(UNDERFLOW_DURATIONS, 2, seed=3)
    assert np.isfinite(fit.log_likelihood)


def test_degenerate_component_dropped():
    # poison one component so its responsibility mass underflows: the run
    # leaves the lock-step with the components it keeps, its pass discarded
    rng = replica_rng(3, 0)
    logd = np.log(rng.uniform(0.8, 1.2, 200))
    w = np.array([0.5, 0.5])
    g = np.array([1.0, 1e9])
    k = np.array([1.0, 60.0])
    run = _Run(0, w, g, k)
    dropped = _em_lockstep([(logd, _moments(logd))], [run], tol=1e-6, max_iter=50)
    assert len(dropped) == 1 and dropped[0][0] is run
    np.testing.assert_array_equal(dropped[0][1], [True, False])
    assert run.history == []


def test_degenerate_drop_flagged_through_public_fit(monkeypatch):
    # force the first E-step to report a dead component, then verify the
    # public fit retries with one fewer and flags it
    import gridres.fitting as fitting

    real = fitting._estep
    calls = {"n": 0}

    def flaky(rows, w, g, k):
        ll, resp, mass = real(rows, w, g, k)
        calls["n"] += 1
        if calls["n"] == 1:
            mass = mass.copy()
            mass[:, -1] = 0.0
        return ll, resp, mass

    monkeypatch.setattr(fitting, "_estep", flaky)
    rng = replica_rng(9, 0)
    d = 5.0 * rng.weibull(1.5, 400)
    fit = fitting.fit_weibull_mixture(d, 2, seed=0, n_starts=1)
    assert any("dropped degenerate component" in f for f in fit.flags)
    assert fit.mixture.n_components == 1
    assert np.isfinite(fit.log_likelihood)


def storm_dataset():
    dataset, _ = ingest_pipeline(make_raw_csv(), datetime.fromisoformat(WINDOW_START),
                                 datetime.fromisoformat(WINDOW_END))
    return dataset


def test_storm_runs_each_distinct_start_once(monkeypatch):
    # the README storm: 5 intervals x 5 starts, of which 10 have distinct
    # k-means labels; repeated labels would repeat a whole EM run
    dataset = storm_dataset()
    real_runs, real_estep = gridres.fitting._run_starts, gridres.fitting._estep
    runs, rounds = [], []

    def counted(*args):
        out = real_runs(*args)
        runs.extend(out)
        return out

    def estep(rows, w, g, k):
        rounds.append(len(w))
        return real_estep(rows, w, g, k)

    monkeypatch.setattr(gridres.fitting, "_run_starts", counted)
    monkeypatch.setattr(gridres.fitting, "_estep", estep)
    _, fits = fit_duration_model(dataset.times, dataset.durations,
                                 (0.0, 12.0, 20.0, 28.0, 36.0, 45.0), (2,) * 5, seed=11)
    assert len(runs) == 10
    assert sum(r.iterations for r in runs) == 1135
    assert sum(f.iterations for f in fits) == 525
    # lock-step: one E-step per round serves every live run, so the rounds
    # are as many as the longest run's iterations
    assert len(rounds) == max(r.iterations for r in runs) == 200
    assert sum(rounds) == 1135


def test_interval_fits_equal_single_interval_fits():
    # padding to the longest interval must not move any run: each interval
    # of a lock-step fit equals fit_weibull_mixture on its own durations
    dataset = storm_dataset()
    boundaries, components = (0.0, 12.0, 28.0, 45.0), (2, 3, 2)
    _, fits = fit_duration_model(dataset.times, dataset.durations, boundaries, components,
                                 seed=11, n_starts=4)
    idx = np.searchsorted(boundaries, dataset.times, side="right") - 1
    assert len(set(np.bincount(idx))) == 3
    for i, c in enumerate(components):
        child = int(np.random.SeedSequence(entropy=11, spawn_key=(i,)).generate_state(1)[0])
        alone = fit_weibull_mixture(dataset.durations[idx == i], c, seed=child, n_starts=4)
        assert repr(fits[i]) == repr(alone)


def test_lockstep_working_set_is_bounded(monkeypatch):
    # one long interval beside forty short ones: unbatched, every run would
    # be padded to the long one, (runs, c, 2000) arrays of about 2.5 MB each;
    # batched under a 4096-cell budget the fit's peak stays near its data's
    sizes = [2000] + [200] * 40
    d = sample_mixture(reference_mixture(0), sum(sizes), replica_rng(5, 0))
    times = np.repeat(np.arange(len(sizes)) + 0.5, sizes)
    boundaries = np.arange(len(sizes) + 1.0)

    def fit():
        return fit_duration_model(times, d, boundaries, (2,) * len(sizes), seed=3, n_starts=5,
                                  max_iter=5)

    unbatched = fit()
    budget = 4096
    monkeypatch.setattr(gridres.fitting, "_LOCKSTEP_CELLS", budget)
    real, batches = gridres.fitting._em_lockstep, []

    def recorded(points, runs, tol, max_iter):
        n_max = max(len(points[r.interval][0]) for r in runs)
        batches.append((len(runs), len(runs) * len(runs[0].w) * n_max))
        return real(points, runs, tol, max_iter)

    monkeypatch.setattr(gridres.fitting, "_em_lockstep", recorded)
    fit()  # warm-up: first calls allocate caches of their own
    batches.clear()
    tracemalloc.start()
    try:
        batched = fit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(n for n, _ in batches) > 40
    assert all(n == 1 or cells <= budget for n, cells in batches)
    assert peak < 2_000_000
    assert repr(batched) == repr(unbatched)


def test_lockstep_newton_matches_each_run_alone():
    # 12 storm runs and one tied-data run (all 3.0, its shapes doubling from
    # 0.05 to the 100 bound) finish their shape solves many steps apart; each
    # run's scales and shapes equal its solve alone
    dataset = storm_dataset()
    boundaries = (0.0, 12.0, 28.0, 45.0)
    idx = np.searchsorted(boundaries, dataset.times, side="right") - 1
    logds = [np.log(dataset.durations[idx == i]) for i in range(3)] + [np.log(np.full(20, 3.0))]
    points = [(logd, _moments(logd)) for logd in logds]
    intervals = [i for i in range(3) for _ in range(4)] + [3]
    starts = [_moment_start(logds[i], _start_labels(logds[i], 2, 11, j % 4), 2)
              for j, i in enumerate(intervals[:-1])]
    starts.append((np.array([0.5, 0.5]), np.array([3.0, 3.0]), np.array([0.05, 0.5])))
    w, g, k = (np.array([s[m] for s in starts]) for m in range(3))
    rows = gridres.fitting._Rows(points, intervals)
    _, resp, mass = gridres.fitting._estep(rows, w, g, k)
    g_all, k_all = gridres.fitting._newton_shapes(rows, resp, mass, k)
    np.testing.assert_array_equal(k_all[-1], [100.0, 100.0])
    for j, i in enumerate(intervals):
        g_one, k_one, _ = _mstep_shapes(logds[i], resp[j, :, :len(logds[i])], k[j])
        np.testing.assert_array_equal(g_all[j], g_one)
        np.testing.assert_array_equal(k_all[j], k_one)


def test_multi_start_keeps_best_likelihood():
    g2 = reference_mixture(1)
    d = sample_mixture(g2, 3000, replica_rng(21, 0))
    best = fit_weibull_mixture(d, 4, seed=5, n_starts=3)
    singles = [
        fit_weibull_mixture(d, 4, seed=5, n_starts=1),
    ]
    assert best.log_likelihood >= max(s.log_likelihood for s in singles) - 1e-9


def test_components_sorted_by_scale():
    d = sample_mixture(reference_mixture(0), 4000, replica_rng(2, 0))
    fit = fit_weibull_mixture(d, 3, seed=0, n_starts=2)
    scales = [g for _, g, _ in fit.mixture.components]
    assert scales == sorted(scales)


def test_non_convergence_reported():
    d = sample_mixture(reference_mixture(0), 3000, replica_rng(4, 0))
    fit = fit_weibull_mixture(d, 3, seed=0, n_starts=1, max_iter=2)
    assert not fit.converged
    assert fit.iterations <= 2


def test_zero_tol_first_round_warns_nothing():
    # a run's first round has no previous log-likelihood: at tol = 0 its
    # stop test must not form 0 * inf
    d = sample_mixture(reference_mixture(0), 600, replica_rng(4, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = fit_weibull_mixture(d, 2, tol=0.0, max_iter=20)
    assert fit.iterations <= 20
    assert np.all(np.diff(fit.history) >= 0.0)


def test_fit_is_deterministic(monkeypatch):
    d = sample_mixture(reference_mixture(2), 2500, replica_rng(8, 0))
    a = fit_weibull_mixture(d, 3, seed=11, n_starts=3)
    b = fit_weibull_mixture(d, 3, seed=11, n_starts=3)
    assert a.mixture.components == b.mixture.components
    assert a.log_likelihood == b.log_likelihood
    # one run_indexed task per component count: a mixed fit has one per count
    real = gridres.fitting.run_indexed
    tasks = []

    def recorded(n, fn, threads=None):
        tasks.append(n)
        return real(n, fn, threads)

    monkeypatch.setattr(gridres.fitting, "run_indexed", recorded)
    times = np.repeat([1.0, 3.0, 5.0], len(d) // 3)
    mixed = [fit_duration_model(times, d[:len(times)], (0.0, 2.0, 4.0, 6.0),
                                (3, 1, 2), seed=11, n_starts=3) for _ in range(2)]
    assert tasks == [3, 3]
    assert repr(mixed[0]) == repr(mixed[1])


class TestFitDurationModel:
    def make_data(self, n=4000, seed=0):
        rng = replica_rng(seed, 0)
        times = rng.uniform(0.0, 20.0, n)
        fast = WeibullMixture(components=((1.0, 2.0, 1.3),))
        slow = WeibullMixture(components=((1.0, 40.0, 2.5),))
        model = DurationModel(boundaries=(0.0, 10.0, 20.0), mixtures=(fast, slow))
        durations = np.where(
            times < 10.0, sample_mixture(fast, n, rng), sample_mixture(slow, n, rng)
        )
        return times, durations, model

    def test_recovers_two_interval_model(self):
        times, durations, true = self.make_data()
        fitted, fits = fit_duration_model(
            times, durations, (0.0, 10.0, 20.0), (1, 1), seed=0, n_starts=1
        )
        assert len(fits) == 2
        x = np.linspace(0.0, 150.0, 601)
        for i in range(2):
            sup = np.abs(fitted.mixtures[i].cdf(x) - true.mixtures[i].cdf(x)).max()
            assert sup < 0.05
        assert all(f.converged for f in fits)

    def test_sparse_interval_named_in_error(self):
        times = np.concatenate([np.full(50, 1.0), np.full(3, 15.0)])
        durations = np.concatenate([np.full(50, 2.0), np.full(3, 5.0)])
        with pytest.raises(ValueError, match=r"interval 1"):
            fit_duration_model(times, durations, (0.0, 10.0, 20.0), (1, 1))

    def test_boundaries_must_cover(self):
        with pytest.raises(ValueError, match="cover"):
            fit_duration_model([1.0, 25.0], [1.0, 1.0], (0.0, 20.0), (1,))
        with pytest.raises(ValueError):
            fit_duration_model([1.0], [1.0], (0.0,), (1,))
        with pytest.raises(ValueError):
            fit_duration_model([1.0], [1.0], (0.0, 10.0), (1, 2))

    def test_non_finite_times_rejected(self):
        times = np.concatenate([np.linspace(0.5, 9.5, 40), [np.nan, np.nan]])
        durations = np.full(42, 2.0)
        with pytest.raises(ValueError, match="cover"):
            fit_duration_model(times, durations, (0.0, 5.0, 10.0), (1, 1))
