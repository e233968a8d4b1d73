"""Acceptance gate: the shipped guarantees, one test per criterion.

Each test states its tolerance inline.  Statistical bounds were calibrated
once against independent oracles and are asserted against fixed seeds, so
a pass here is reproducible bit for bit.
"""

import time
from datetime import datetime

import numpy as np

from gridres import (
    DurationModel,
    RateFunction,
    SurgeSpec,
    WeibullMixture,
    day_to_day_recovery_rate,
    estimate_rate,
    expected_in_failure,
    expected_recovered,
    fit_weibull_mixture,
    format_triple,
    ingest_pipeline,
    monte_carlo_recovery_rate,
    pearson_nhpp_test,
    pick_threshold,
    recovery_rate,
    reject_decision,
    resilience_curve,
    surge_expected,
)
from gridres.simulate import replica_rng

from conftest import (
    REFERENCE_P13,
    WINDOW_END,
    WINDOW_START,
    build_path,
    make_raw_csv,
    reference_mixture,
    reference_model,
    sample_mixture,
    sample_nhpp,
)


def test_criterion_01_reference_restoration_fractions():
    """Each interval model restores the recorded fraction within 13 h,
    to +- 0.5 percentage points, in under a second."""
    t0 = time.perf_counter()
    got = [reference_mixture(i).cdf(13.0) for i in range(5)]
    elapsed = time.perf_counter() - t0
    for value, target in zip(got, REFERENCE_P13):
        assert abs(value - target) <= 0.005, (value, target)
    assert elapsed < 1.0


def _binned_quadrature(rate, model, edges):
    cum = np.asarray([expected_recovered(rate, model, float(t)) for t in edges])
    return np.diff(cum) / np.diff(edges)


def test_criterion_02_simulated_recovery_matches_quadrature():
    """Monte Carlo recovery intensity (1e4 replicas) agrees with the
    quadrature at >= 19 of 20 bins, within 3 standard errors, for three
    intensity/duration pairings.  Under two minutes."""
    exponential = DurationModel.stationary(
        WeibullMixture(components=((1.0, 3.0, 1.0),)), horizon=25.0
    )
    g1 = DurationModel.stationary(reference_mixture(0), horizon=40.0)
    two_interval = DurationModel(
        boundaries=(0.0, 10.0, 40.0),
        mixtures=(
            WeibullMixture(components=((1.0, 2.0, 1.3),)),
            WeibullMixture(components=((1.0, 30.0, 2.5),)),
        ),
    )
    surge_b = SurgeSpec(
        base_rate=2.0,
        surge_rate=RateFunction.constant(20.0, 40.0),
        surge_end=8.0,
    ).to_rate_function(40.0)
    surge_c = SurgeSpec(
        base_rate=2.0,
        surge_rate=RateFunction.constant(15.0, 40.0),
        surge_end=6.0,
    ).to_rate_function(40.0)
    pairs = (
        (RateFunction.constant(6.0, 25.0), exponential, 101),
        (surge_b, g1, 202),
        (surge_c, two_interval, 303),
    )

    t0 = time.perf_counter()
    for rate, model, seed in pairs:
        edges = np.linspace(0.0, rate.horizon, 21)
        mc = monte_carlo_recovery_rate(rate, model, edges, replicas=10_000, seed=seed)
        oracle = _binned_quadrature(rate, model, edges)
        band = 3.0 * np.maximum(mc.se_rate, 1e-12)
        hits = np.abs(mc.mean_rate - oracle) <= band
        assert hits.sum() >= 19, (seed, hits.sum(), np.abs(mc.mean_rate - oracle) / band)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_03_day_to_day_limit_and_surge_approximation():
    """Stationary recovery intensity reaches the failure intensity within
    1%; the short-surge closed form tracks the exact convolution within
    10% relative error when the surge is under a tenth of the median
    duration."""
    # long-run limit of the day-to-day case
    lam0 = 4.0
    mix = reference_mixture(0)
    horizon = 20.0 * mix.quantile(0.99)
    model = DurationModel.stationary(mix, horizon=horizon)
    closed = day_to_day_recovery_rate(lam0, model, horizon)
    general = recovery_rate(
        RateFunction.constant(lam0, horizon), model, horizon, quad_step=1.0
    )
    assert abs(closed - lam0) < 0.01 * lam0
    assert abs(general - lam0) < 0.01 * lam0

    # short surge against the exact convolution; the frozen-survival error
    # peaks on the shoulder right after the surge window, so probe densely
    surge_mix = reference_mixture(3)
    median = surge_mix.quantile(0.5)
    t1 = 2.0
    assert t1 <= 0.1 * median
    horizon = 100.0
    spec = SurgeSpec(
        base_rate=5.0,
        surge_rate=RateFunction.constant(100.0, horizon),
        surge_end=t1,
    )
    model = DurationModel.stationary(surge_mix, horizon=horizon)
    composite = spec.to_rate_function(horizon)
    probe = np.linspace(0.0, horizon, 81)
    exact = expected_in_failure(composite, model, probe)
    approx = np.asarray([surge_expected(spec, model, t) for t in probe])
    floor = 0.01 * exact.max()
    live = exact > floor
    rel = np.abs(approx[live] - exact[live]) / exact[live]
    assert rel.max() < 0.10, rel.max()


SIZE_RATE = RateFunction(
    knots=((0.0, 2.0), (30.0, 8.0), (70.0, 6.0), (120.0, 1.5)), horizon=120.0
)


def test_criterion_04_pearson_size_power_and_recorded_decision():
    """At m=400 cells and alpha=0.05 the count test keeps >= 90/100 honest
    nonstationary samples and rejects >= 95/100 fully clustered ones; the
    recorded (0.79, 2, 5.99) report formats and decides the same way."""
    not_rejected = 0
    for seed in range(100):
        times = sample_nhpp(SIZE_RATE, replica_rng(seed, 0))
        est = estimate_rate(times, window=5.0, bin_width=1.0, horizon=120.0)
        result = pearson_nhpp_test(times, est, n_intervals=400)
        not_rejected += not result.rejected
    assert not_rejected >= 90, not_rejected

    rejected = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        center = rng.uniform(10.0, 110.0)
        times = center + np.sort(rng.uniform(0.0, 0.3, size=400))
        est = estimate_rate(times, window=5.0, bin_width=1.0, horizon=120.0)
        result = pearson_nhpp_test(times, est, n_intervals=400)
        rejected += result.rejected
    assert rejected >= 95, rejected

    assert format_triple(0.79, 2, 5.99) == "(0.79, 2, 5.99)"
    assert reject_decision(0.79, 5.99) is False


def test_criterion_05_em_recovers_generating_mixture():
    """Fits of 1e4-sample draws from the first reference mixture land
    within sup-distance 0.03 of the generator cdf in >= 90/100 seeds, and
    the EM objective never decreases."""
    mix = reference_mixture(0)
    grid = np.linspace(0.0, mix.quantile(0.999), 600)
    target = mix.cdf(grid)
    close = 0
    for seed in range(100):
        sample = sample_mixture(mix, 10_000, np.random.default_rng(seed))
        fit = fit_weibull_mixture(sample, 3, seed=seed, n_starts=2)
        history = np.asarray(fit.history)
        drops = np.diff(history) / np.maximum(np.abs(history[:-1]), 1.0)
        assert drops.min() >= -1e-9, seed
        sup = np.abs(fit.mixture.cdf(grid) - target).max()
        close += sup < 0.03
    assert close >= 90, close


def softplus_knee(x, delta=0.75):
    # rounded slope change at 13: slope 0.07 before, 0.005 after
    return 0.07 * x - 0.065 * delta * np.logaddexp(0.0, (x - 13.0) / delta)


def test_criterion_06_threshold_picker_finds_knee():
    """The curvature search lands on the knee at 13 h within one 0.25 h
    grid step, and does not move under grid halving."""
    picks = {}
    for step in (0.25, 0.125):
        grid = np.arange(0.0, 26.0 + step / 2.0, step)
        picks[step] = pick_threshold(grid, softplus_knee(grid)).d0
    assert abs(picks[0.25] - 13.0) <= 0.25, picks
    assert abs(picks[0.25] - picks[0.125]) <= 0.25, picks


def test_criterion_07_out_count_identity_at_every_jump():
    """N(t) = N_f(t) - N_r(t) exactly, at every jump, 1000 random sets."""
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(0, 60))
        times = np.round(rng.uniform(0.0, 50.0, size=n), 2)
        durations = np.round(rng.gamma(1.5, 5.0, size=n), 2)
        path = build_path(times, durations)
        pts = np.concatenate(([0.0], path.failure_times, path.recovery_times))
        nf = path.n_failed(pts)
        nr = path.n_recovered(pts)
        assert np.array_equal(path.n_out(pts), nf - nr)


def test_criterion_08_substitute_equal_weight_restoration_at_13h():
    """Stand-in for the storm headline: with equal interval weights the
    restored fraction at 13 h is 0.4438 +- 0.006 over the reference
    mixtures (the original weighting needs the proprietary feed)."""
    grid = np.arange(0.0, 60.0 + 0.125, 0.25)
    curve = resilience_curve(np.full(5, 0.2), reference_model(), grid)
    at13 = curve.values[np.flatnonzero(np.isclose(grid, 13.0))[0]]
    assert abs(at13 - 0.4438) <= 0.006, at13
    direct = np.mean([reference_mixture(i).cdf(13.0) for i in range(5)])
    assert abs(direct - 0.4438) <= 0.006, direct


def test_criterion_08_substitute_synthetic_count_pipeline():
    """Stand-in for the storm feed: a synthetic file engineered to the
    same shape reduces 5152 -> 2005 -> 465 -> 463 with exact accounting."""
    start = datetime.fromisoformat(WINDOW_START)
    end = datetime.fromisoformat(WINDOW_END)
    dataset, issues = ingest_pipeline(make_raw_csv(), start, end)
    p = dataset.provenance
    assert not issues
    assert p.raw == 5152
    assert p.raw - p.window_dropped == 2005
    assert p.raw - p.window_dropped - p.merged == 465
    assert p.negative_dropped == 2
    assert p.emitted == 463
    assert p.consistent()


def test_criterion_09_cli_reruns_are_byte_identical(tmp_path):
    """Every command, rerun with the same config and seed, rewrites its
    primary outputs byte for byte."""
    from gridres.cli import main

    raw = tmp_path / "raw.csv"
    raw.write_text(make_raw_csv())
    out = tmp_path / "out"
    commands = [
        ["--out", str(out), "ingest", "--input", str(raw),
         "--window-start", WINDOW_START, "--window-end", WINDOW_END],
        ["--seed", "5", "--out", str(out), "fit",
         "--dataset", str(out / "dataset.csv"),
         "--boundaries", "0,20,45", "--components", "1,1", "--starts", "2"],
        ["--out", str(out), "test", "--dataset", str(out / "dataset.csv"),
         "--model", str(out / "model.json")],
        ["--seed", "5", "--out", str(out), "simulate",
         "--model", str(out / "model.json"), "--replicas", "20",
         "--grid-step", "1"],
        ["--out", str(out), "resilience", "--model", str(out / "model.json"),
         "--weights", "0.5,0.5", "--grid-max", "60", "--grid-step", "0.5"],
        ["--out", str(out), "reconstruct", "--model", str(out / "model.json"),
         "--grid-step", "5"],
    ]
    products = (
        "dataset.csv", "provenance.json", "model.json", "gof.json", "qq.csv",
        "paths.csv", "events.csv", "summary.json", "curve.csv",
        "resilience.json", "nhat.csv", "reconstruct.json",
    )
    for argv in commands:
        assert main(argv) == 0, argv
    first = {name: (out / name).read_bytes() for name in products}
    for argv in commands:
        assert main(argv) == 0, argv
    for name in products:
        assert (out / name).read_bytes() == first[name], name
