"""Property checks of the shared routes and the EM M-step against oracles.

Each merged route (the per-interval dispatch, the component draw and the
interval lookup) is compared with a direct computation on random inputs.
The Newton M-step is compared with lock-step bisection on adversarial
durations, EM's log-likelihood is checked never to decrease, and the
multi-start fit that runs each distinct start once is compared with one
that runs every start, and the k-means by cuts on the sorted points with
the (n, c) argmin.  The columnar ingest is compared with the
record-at-a-time pipeline it replaced, on random raw files that take
both parse routes (columns of plain text, in chunks cut small, and
csv.reader), its minute decoder with datetime.fromisoformat, and the
bucket grouping with one global sort into the canonical order.  The mixture cdf and quantile, and the
rate function's cumulative intensity, are checked against their
definitions, and the mixture mean against scipy's gamma function.  The
Pearson test's Poisson pmf, Poisson tail and chi-square quantile are
compared with scipy.special, which the program no longer imports.  The
lattice pass of the recovery curves is compared with the per-point cell
rule, the day-to-day and surge forms over an array of times with their
one-time calls and those with the per-time formulas, the block Monte Carlo route with the replica-at-a-time loop it
replaced, its exact-sum moments with np.mean and np.std of the replica
stack it no longer keeps, the flat duration dispatch with each interval's
mixture, and the resilience curve's moving average with its
window-at-a-time loop.  Every public entry point that takes an array is
checked to refuse a NaN in it.
"""

import csv
import io
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.special import gamma, logsumexp

from gridres import (
    DurationModel,
    RateFunction,
    SurgeSpec,
    WeibullMixture,
    day_to_day_expected,
    day_to_day_recovery_rate,
    estimate_rate,
    expected_in_failure,
    expected_recovered,
    fit_weibull_mixture,
    ingest_pipeline,
    interval_weights,
    mean_paths,
    monte_carlo_recovery_rate,
    pearson_nhpp_test,
    pick_threshold,
    qq_points,
    reconstruct,
    recovery_rate,
    recovery_rate_curve,
    replica_rng,
    resilience_curve,
    simulate_events,
    surge_expected,
    surge_recovery_rate,
)
from gridres import fitting, ingest, recovery, resilience, simulate
from gridres.estimate import _chi2_quantile, _poisson_pmf, _poisson_upper
from gridres.fileio import save_model
from gridres.fitting import (
    _SHAPE_HI,
    _SHAPE_LO,
    _SHAPE_XTOL,
    _moments,
    _prepare,
    _run_starts,
    _start_labels,
)
from gridres.ingest import (
    ParseIssue, Provenance, RawRecords, _decode_minutes, group_dependent, normalize_ts,
)
from gridres.weibull import interval_of

from conftest import (
    _mstep_shapes, group_dependent_oracle, kmeans_argmin, mixture_from_uniforms, sample_durations,
    sample_mixture, sample_nhpp, strict_json,
)


@st.composite
def mixtures(draw):
    n = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    scales = draw(st.lists(st.floats(0.1, 100.0), min_size=n, max_size=n))
    shapes = draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n))
    total = sum(raw)
    return WeibullMixture(components=tuple(
        (w / total, g, k) for w, g, k in zip(raw, scales, shapes)
    ))


boundaries = st.lists(
    st.floats(-100.0, 100.0), min_size=2, max_size=6, unique=True
).map(sorted)


@st.composite
def models(draw):
    b = draw(boundaries)
    mix = draw(st.lists(mixtures(), min_size=len(b) - 1, max_size=len(b) - 1))
    return DurationModel(boundaries=tuple(b), mixtures=tuple(mix))


@st.composite
def failure_times(draw, b, min_size=1):
    """Times inside and outside [b[0], b[-1]], the boundaries themselves among them."""
    one = st.one_of(st.floats(-300.0, 300.0), st.sampled_from(b))
    return np.asarray(draw(st.lists(one, min_size=min_size, max_size=40)))


def clamped_interval(b, x) -> int:
    """Interval of x by linear scan, times outside [b[0], b[-1]] clamped."""
    i = 0
    while i + 2 < len(b) and b[i + 1] <= x:
        i += 1
    return i


@given(st.data(), models())
def test_dispatch_matches_interval_mixture(data, model):
    at = data.draw(failure_times(model.boundaries))
    d = np.asarray(data.draw(st.lists(st.floats(0.0, 500.0), min_size=len(at), max_size=len(at))))
    idx = model.interval_index(at)
    for name in ("cdf", "pdf"):
        got = getattr(model, name)(d, at)
        want = [getattr(model.mixtures[i], name)(x) for i, x in zip(idx, d)]
        np.testing.assert_array_equal(got, want)
        assert getattr(model, name)(float(d[0]), float(at[0])) == want[0]


@st.composite
def dispatch_mixtures(draw):
    """1-4 components, zero weights among them."""
    n = draw(st.integers(1, 4))
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=n, max_size=n))
    assume(sum(raw) > 0.0)
    scales = draw(st.lists(st.floats(0.1, 100.0), min_size=n, max_size=n))
    shapes = draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n))
    return WeibullMixture(components=tuple(
        (w / sum(raw), g, k) for w, g, k in zip(raw, scales, shapes)
    ))


@given(st.data(), boundaries, st.integers(0, 2**32 - 1))
def test_flat_dispatch_matches_interval_mixtures(data, b, seed):
    mixes = data.draw(st.lists(dispatch_mixtures(), min_size=len(b) - 1, max_size=len(b) - 1))
    model = DurationModel(boundaries=tuple(b), mixtures=tuple(mixes))
    at = data.draw(failure_times(b))
    # u_comp anywhere, exactly on a cumulative-weight edge, or at or above
    # the last edge
    u_comp = []
    for i in model.interval_index(at):
        edges = np.cumsum(model.mixtures[i]._w).tolist()
        u_comp.append(data.draw(st.one_of(
            st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(edges),
            st.floats(min(edges[-1], 1.0), 1.0))))
    u_comp = np.asarray(u_comp)
    u_dur = np.asarray(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                          min_size=len(at), max_size=len(at))))
    want = model.by_interval(mixture_from_uniforms, at, u_comp, u_dur)
    np.testing.assert_array_equal(model.from_uniforms(at, u_comp, u_dur), want)
    out = np.empty(len(at))
    assert model.from_uniforms(at, u_comp, u_dur, out=out) is out
    np.testing.assert_array_equal(out, want)
    # sample_durations draws its uniforms and takes the same route
    rng = replica_rng(seed, 0)
    u_comp, u_dur = rng.random(len(at)), rng.random(len(at))
    np.testing.assert_array_equal(
        sample_durations(at, model, replica_rng(seed, 0)),
        model.by_interval(mixture_from_uniforms, at, u_comp, u_dur))


@given(mixtures(), st.integers(0, 200), st.integers(0, 2**32 - 1), st.floats(-50.0, 500.0))
def test_one_interval_sample_durations_is_mixture_sample(mix, n, seed, at):
    model = DurationModel.stationary(mix, horizon=100.0)
    times = np.full(n, at)
    got = sample_durations(times, model, replica_rng(seed, 0))
    want = sample_mixture(mix, n, replica_rng(seed, 0))
    np.testing.assert_array_equal(got, want)


@given(st.data(), boundaries)
def test_interval_lookup_matches_model(data, b):
    t = data.draw(failure_times(b))
    model = DurationModel(
        boundaries=tuple(b),
        mixtures=(WeibullMixture(components=((1.0, 1.0, 1.0),)),) * (len(b) - 1),
    )
    want = [clamped_interval(b, x) for x in t]
    np.testing.assert_array_equal(model.interval_index(t), want)
    np.testing.assert_array_equal(interval_of(b, t), want)
    assert [model.interval_index(float(x)) for x in t] == want
    counts = np.bincount(want, minlength=len(b) - 1)
    np.testing.assert_array_equal(interval_weights(t, b), counts / counts.sum())


def bisect_mstep_shapes(logd, resp):
    """Lock-step bisection M-step: the solver the Newton M-step replaced.

    `resp` has one row per component, (c, n).

    Powers d**k are taken relative to the largest log-duration, so they
    underflow for a component whose points all sit far below it.  Returns
    the shapes and bound flags, and per component whether any weighted
    power it summed underflowed.
    """
    c = resp.shape[0]
    target = (resp @ logd) / resp.sum(axis=1)
    ld = logd - logd.max()
    underflow = np.zeros(c, dtype=bool)

    def equation(k):
        with np.errstate(under="ignore", divide="ignore", invalid="ignore"):
            terms = resp * np.exp(k[:, None] * ld)
            underflow[:] |= np.any((resp > 0.0) & (terms < np.finfo(float).tiny), axis=1)
            return 1.0 / k + target - (terms * logd).sum(axis=1) / terms.sum(axis=1)

    lo = np.full(c, _SHAPE_LO)
    hi = np.full(c, _SHAPE_HI)
    for _ in range(int(math.ceil(math.log2((_SHAPE_HI - _SHAPE_LO) / _SHAPE_XTOL)))):
        mid = 0.5 * (lo + hi)
        pos = equation(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    k = 0.5 * (lo + hi)
    flags = []
    if np.any(k > _SHAPE_HI - 10.0 * _SHAPE_XTOL):
        flags.append("shape at upper bound (degenerate data)")
    if np.any(k < _SHAPE_LO + 10.0 * _SHAPE_XTOL):
        flags.append("shape at lower bound")
    return k, flags, underflow


def profile_equation(logd, resp, k):
    """f(k) = 1/k + target - m(k) per component, with m(k) by signed logsumexp."""
    e = np.log(resp, where=resp > 0.0, out=np.full(resp.shape, -np.inf)) + k[:, None] * logd
    num, sign = logsumexp(e, b=np.broadcast_to(logd, e.shape), axis=1, return_sign=True)
    m = sign * np.exp(num - logsumexp(e, axis=1))
    return 1.0 / k + (resp @ logd) / resp.sum(axis=1) - m


@st.composite
def adversarial_durations(draw, c):
    """Durations an EM fit meets at its edges, at least 5 per component.

    Spread values, heavy ties, one distinct value, all zeros (fitted at the
    1/120 h shift) and clusters three or more decades apart.
    """
    n = draw(st.integers(5 * c, 5 * c + 40))
    kind = draw(st.sampled_from(["spread", "ties", "one", "zeros", "decades"]))
    if kind == "spread":
        return np.asarray(draw(st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n)))
    if kind == "ties":
        values = draw(st.lists(st.floats(0.0, 1e3), min_size=2, max_size=4))
        return np.asarray(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    if kind == "one":
        return np.full(n, draw(st.floats(0.0, 1e3)))
    if kind == "zeros":
        return np.zeros(n)
    low = draw(st.floats(-3.0, 0.0))
    gaps = draw(st.lists(st.floats(3.0, 5.0), min_size=1, max_size=2))
    centres = low + np.concatenate([[0.0], np.cumsum(gaps)])
    which = draw(st.lists(st.integers(0, len(centres) - 1), min_size=n, max_size=n))
    jitter = draw(st.lists(st.floats(-0.01, 0.01), min_size=n, max_size=n))
    return 10.0 ** (centres[which] + np.asarray(jitter))


@st.composite
def mstep_inputs(draw):
    """Log-durations, responsibilities (some exactly 0) and warm-start shapes.

    The responsibilities hold one row per component, (c, n), as the M-step
    takes them.
    """
    c = draw(st.integers(1, 3))
    logd = np.log(_prepare(draw(adversarial_durations(c))))
    n = len(logd)
    cell = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    raw = np.asarray(draw(st.lists(cell, min_size=n * c, max_size=n * c))).reshape(c, n)
    raw[:, raw.sum(axis=0) == 0.0] = 1.0
    resp = raw / raw.sum(axis=0)
    assume(np.all(resp.sum(axis=1) >= 1e-8))
    k0 = np.asarray(draw(st.lists(st.floats(_SHAPE_LO, _SHAPE_HI), min_size=c, max_size=c)))
    return logd, resp, k0


@settings(max_examples=200)
@given(mstep_inputs())
def test_newton_mstep_matches_bisection(inputs):
    logd, resp, k0 = inputs
    _, k, flags = _mstep_shapes(logd, resp, k0)
    k_ref, flags_ref, underflow = bisect_mstep_shapes(logd, resp)
    # the oracle's midpoint is within _SHAPE_XTOL / 2 of its root, so
    # agreement is relative 1e-8 with that absolute floor
    ok = ~underflow
    np.testing.assert_allclose(k[ok], k_ref[ok], rtol=1e-8, atol=_SHAPE_XTOL)
    if ok.all():
        assert flags == flags_ref


@settings(max_examples=200)
@given(mstep_inputs())
def test_newton_shape_is_root_or_at_bound(inputs):
    # holds where the oracle underflows too: f changes sign across each
    # shape, or the shape sits at the bound that f points past
    logd, resp, k0 = inputs
    g, k, _ = _mstep_shapes(logd, resp, k0)
    assert np.all(np.isfinite(g)) and np.all(g > 0.0)
    step = 1e-8 * np.maximum(1.0, k)
    below = profile_equation(logd, resp, k - step)
    above = profile_equation(logd, resp, k + step)
    at_hi = k > _SHAPE_HI - 10.0 * _SHAPE_XTOL
    at_lo = k < _SHAPE_LO + 10.0 * _SHAPE_XTOL
    assert np.all((at_hi & (below > 0.0)) | (at_lo & (above < 0.0)) | ((below > 0.0) & (above < 0.0)))


@settings(max_examples=150)
@given(st.integers(1, 3).flatmap(lambda c: st.tuples(st.just(c), adversarial_durations(c))),
       st.integers(0, 2**32 - 1))
def test_em_log_likelihood_never_decreases(case, seed):
    c, d = case
    fit = fit_weibull_mixture(d, c, seed=seed, n_starts=1, max_iter=60)
    # the reported value follows one more M-step than the history's last
    h = np.asarray(fit.history + (fit.log_likelihood,))
    assert np.all(np.diff(h) >= -1e-9 * np.maximum(1.0, np.abs(h[:-1])))


# log-durations on a half-integer grid (points on midpoints, runs of equal
# points), an ulp or a few apart, near 0 between centres at -1 and 1 (where
# |x + 1| and |1 - x| round to ties on several points), at 2**53 (where
# distances round to ties far from any midpoint), and anywhere in between
KMEANS_POINTS = st.one_of(
    st.integers(-6, 6).map(lambda k: k / 2.0),
    st.sampled_from([1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0)),
                     1.0 + 4.0 * 2.0**-52, 0.1, 0.2, 0.30000000000000004,
                     1e-17, 3e-17, -2e-17, 5e-324, 2.0**53, 2.0**53 + 2.0, -(2.0**53), 1e15]),
    st.floats(-30.0, 30.0),
)


@settings(max_examples=300)
@example(c=2, logd=[-1.0] * 10 + [0.0, 1e-17, 2e-17] + [1.0] * 10, seed=None)
@example(c=2, logd=[1.0] * 4 + [2.0] * 4 + [2.0**53 + 2.0], seed=None)
@given(c=st.integers(1, 5), logd=st.lists(KMEANS_POINTS, min_size=1, max_size=30),
       seed=st.none() | st.integers(0, 2**32 - 1))
def test_kmeans_cuts_match_argmin(c, logd, seed):
    # quantile starts (no seed) and drawn ones, n == c and n < c, equal and
    # ulp-close centres, empty clusters reseeded
    logd = np.array(logd)
    got = fitting._kmeans_logd(logd, np.argsort(logd, kind="stable"), c,
                               None if seed is None else np.random.default_rng(seed))
    want = kmeans_argmin(logd, c, None if seed is None else np.random.default_rng(seed))
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def run_alone(logd, labels, c, tol, max_iter):
    """One start's EM run with no other run beside it."""
    return _run_starts([(logd, _moments(logd))], [(0, c, labels)], tol, max_iter)[0]


def every_start_fit(durations, c, seed, tol, max_iter, n_starts):
    """Multi-start EM that runs every start, repeated labels included.

    The best log-likelihood wins, ties going to the lowest start index.
    """
    logd = np.log(_prepare(durations))
    order = np.argsort(logd, kind="stable")
    results = [run_alone(logd, _start_labels(logd, order, c, seed, idx), c, tol, max_iter)
               for idx in range(max(1, n_starts))]
    best = results[0]
    for r in results[1:]:
        if r.log_likelihood > best.log_likelihood:
            best = r
    return best


@st.composite
def overlapping_clusters(draw, c):
    """Up to 80 durations from one to three overlapping log-normal clusters.

    Kept to two decimals as the feed records them, so ties and zeros
    occur.  Starts' k-means labels differ on these more often than on
    adversarial_durations, where most collide.
    """
    n = draw(st.integers(5 * c, 80))
    m = draw(st.integers(1, 3))
    centres = np.asarray(draw(st.lists(st.floats(-2.0, 4.0), min_size=m, max_size=m)))
    spread = draw(st.floats(0.1, 1.5))
    rng = replica_rng(draw(st.integers(0, 2**32 - 1)), 0)
    logd = centres[rng.integers(0, m, n)] + spread * rng.standard_normal(n)
    return np.round(np.exp(logd), 2)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda c: st.tuples(
           st.just(c), st.one_of(adversarial_durations(c), overlapping_clusters(c)))),
       st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_distinct_starts_fit_matches_every_start(case, n_starts, seed):
    c, d = case
    got = fit_weibull_mixture(d, c, seed=seed, n_starts=n_starts, max_iter=60)
    want = every_start_fit(d, c, seed, 1e-6, 60, n_starts)
    assert repr(got) == repr(want)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda c: st.tuples(
           st.just(c), st.one_of(adversarial_durations(c), overlapping_clusters(c)))),
       st.integers(1, 4), st.integers(0, 2**32 - 1), st.sampled_from(["first", "all"]))
def test_overflowing_start_loses_to_finite_starts(tmp_path_factory, case, n_starts, seed, spoil):
    """A start whose every component overflows at the largest duration.

    A moment start cannot get there below about 3e5 points: its own
    cluster keeps (d/g)**k below exp(1.28 sqrt(n)).  So the start's scales
    are set 20 e-folds below the largest duration at shape 100, where
    (d/g)**k = exp(2000) overflows in every component and the start's
    log-likelihood is -inf.  The fit must then return the best finite
    start; with no finite start it returns a flagged, unconverged fit
    whose model file is still valid JSON.
    """
    c, d = case
    logd = np.log(_prepare(d))
    # on durations near 5e-324 the spoiled scale underflows to 0, which no
    # moment start reaches, and no positive scale overflows (d/g)**100 there
    assume(math.exp(logd.max() - 20.0) > 0.0)
    order = np.argsort(logd, kind="stable")
    first = _start_labels(logd, order, c, seed, 0).tobytes()
    real = fitting._moment_start

    def overflowing(logd, labels, c):
        w, g, k = real(logd, labels, c)
        if spoil == "all" or labels.tobytes() == first:
            g, k = np.full(c, math.exp(logd.max() - 20.0)), np.full(c, _SHAPE_HI)
        return w, g, k

    with mock.patch.object(fitting, "_moment_start", overflowing):
        got = fit_weibull_mixture(d, c, seed=seed, n_starts=n_starts, max_iter=60)
        want = every_start_fit(d, c, seed, 1e-6, 60, n_starts)
        each = [run_alone(logd, _start_labels(logd, order, c, seed, idx), c, 1e-6, 60)
                for idx in range(n_starts)]
    finite = [f.log_likelihood for f in each if math.isfinite(f.log_likelihood)]
    assert repr(got) == repr(want)
    if finite:
        assert got.log_likelihood == max(finite)
    else:
        assert got.log_likelihood == -math.inf
        assert "non-finite log-likelihood" in got.flags and not got.converged
        path = tmp_path_factory.mktemp("overflow") / "model.json"
        save_model(path, RateFunction(knots=((0.0, 1.0),), horizon=1.0),
                   DurationModel(boundaries=(0.0, 1.0), mixtures=(got.mixture,)), fits=(got,))
        payload = strict_json(path.read_text())
        assert payload["durations"]["mixtures"][0]["log_likelihood"] is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda c: st.tuples(st.just(c), st.lists(
           st.one_of(adversarial_durations(c), overlapping_clusters(c)), min_size=1, max_size=3))),
       st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_overflowing_run_leaves_the_lockstep_alone(case, n_starts, seed, data):
    """A run whose every component overflows, beside finite runs.

    The starts of one to three intervals of different lengths run in one
    lock-step.  One start's scales are set 20 e-folds below its largest
    duration at shape 100, so (d/g)**k = exp(2000) overflows there in every
    component: that run ends at its first E-step, flagged, with no
    iteration and a log-likelihood of -inf.  Every other run gives exactly
    what it gives run alone.
    """
    c, samples = case
    points = [(logd, _moments(logd)) for logd in (np.log(_prepare(d)) for d in samples)]
    starts = [(i, c, _start_labels(logd, np.argsort(logd, kind="stable"), c, seed, idx))
              for i, (logd, _) in enumerate(points) for idx in range(n_starts)]
    spoiled = data.draw(st.integers(0, len(starts) - 1))
    # on durations near 5e-324 the spoiled scale underflows to 0, which no
    # moment start reaches, and no positive scale overflows (d/g)**100 there
    assume(math.exp(points[starts[spoiled][0]][0].max() - 20.0) > 0.0)
    real = fitting._moment_start

    def overflowing(logd, labels, c):
        w, g, k = real(logd, labels, c)
        if labels is starts[spoiled][2]:
            g, k = np.full(c, math.exp(logd.max() - 20.0)), np.full(c, _SHAPE_HI)
        return w, g, k

    with mock.patch.object(fitting, "_moment_start", overflowing):
        together = _run_starts(points, starts, 1e-6, 60)
    for j, (got, (i, _, labels)) in enumerate(zip(together, starts)):
        if j == spoiled:
            assert got.log_likelihood == -math.inf and got.iterations == 0
            assert not got.converged and "non-finite log-likelihood" in got.flags
        else:
            assert repr(got) == repr(run_alone(points[i][0], labels, c, 1e-6, 60))


@dataclass(frozen=True)
class RawRecord:
    id: str
    timestamp: datetime
    duration_hours: float


def reference_ingest(text, start, end, resolution_minutes, rule, zone, delimiter):
    """The record-at-a-time pipeline the columnar ingest replaced.

    One frozen record per row, Python datetimes throughout.  It reads
    the header cells stripped, as the columnar parser does (it used to
    look rows up by the unstripped names).  Returns times, durations,
    issues and provenance.
    """
    if delimiter is None:
        first = text.splitlines()[0] if text.splitlines() else ""
        delimiter = "\t" if "\t" in first else ","
    reader = csv.DictReader(io.StringIO(text), delimiter=delimiter)
    if reader.fieldnames is None:
        raise ValueError("empty input: no header row")
    reader.fieldnames = [h.strip() for h in reader.fieldnames]
    records, issues = [], []
    for lineno, row in enumerate(reader, start=2):
        raw_id = (row.get("id") or "").strip()
        raw_ts = (row.get("timestamp") or "").strip()
        raw_d = (row.get("duration_hours") or "").strip()
        if not raw_id or not raw_ts or not raw_d:
            issues.append(ParseIssue(line=lineno, reason="missing field"))
            continue
        try:
            ts = normalize_ts(datetime.fromisoformat(raw_ts), zone)
        except ValueError:
            issues.append(ParseIssue(line=lineno, reason=f"bad timestamp {raw_ts!r}"))
            continue
        try:
            dur = float(raw_d)
        except ValueError:
            issues.append(ParseIssue(line=lineno, reason=f"bad duration {raw_d!r}"))
            continue
        if not np.isfinite(dur):
            issues.append(ParseIssue(line=lineno, reason=f"bad duration {raw_d!r}"))
            continue
        records.append(RawRecord(id=raw_id, timestamp=ts, duration_hours=dur))

    in_window = [r for r in records if start <= r.timestamp < end]

    def bucket(ts):
        floored = ts.replace(second=0, microsecond=0)
        if resolution_minutes > 1:
            floored = floored.replace(minute=(floored.minute // resolution_minutes) * resolution_minutes)
        return floored

    groups = {}
    for r in sorted(in_window, key=lambda r: (r.timestamp, r.id)):
        groups.setdefault(bucket(r.timestamp), []).append(r)
    grouped = []
    for b in sorted(groups):
        members = groups[b]
        if rule == "max":
            dur = max(m.duration_hours for m in members)
        elif rule == "first":
            dur = members[0].duration_hours
        else:
            dur = sum(m.duration_hours for m in members) / len(members)
        grouped.append(RawRecord(id=members[0].id, timestamp=b, duration_hours=dur))

    times, durations = [], []
    for r in sorted(grouped, key=lambda r: (r.timestamp, r.id)):
        if r.duration_hours < 0.0:
            continue
        times.append((r.timestamp - start).total_seconds() / 3600.0)
        durations.append(r.duration_hours)
    prov = Provenance(
        raw=len(records) + len(issues),
        malformed=len(issues),
        window_dropped=len(records) - len(in_window),
        merged=len(in_window) - len(grouped),
        negative_dropped=len(grouped) - len(times),
        emitted=len(times),
    )
    return times, durations, issues, prov


INGEST_START = datetime(2008, 9, 12, 7, 0)
INGEST_ZONE = timezone(timedelta(hours=-5))
INGEST_SPAN_MINUTES = 150
# tied and Python-ordered ids: upper before lower case, prefixes, non-ASCII
INGEST_IDS = ["a", "b", "B", "ab", "a0", "Z", "é", "ß", "e1"]


@st.composite
def stamp_texts(draw, dense, minutes):
    """An ISO timestamp near the window, with seconds or an offset or both,
    or in most rows of a `minutes` file in the YYYY-MM-DDTHH:MM shape.

    A dense file puts its rows in three minutes, so groups grow large.
    """
    minute = draw(st.sampled_from([0, 1, 2]) if dense else st.one_of(
        st.integers(-20, INGEST_SPAN_MINUTES + 20),
        st.sampled_from([0, INGEST_SPAN_MINUTES, -1, INGEST_SPAN_MINUTES - 1]),
    ))
    if minutes and draw(st.integers(0, 4)):
        return (INGEST_START + timedelta(minutes=minute)).isoformat(timespec="minutes")
    second = draw(st.sampled_from([0, 0, 0, 1, 30, 59]))
    micro = draw(st.sampled_from([0, 0, 0, 1, 500000, 999999]))
    offset = draw(st.sampled_from([None, None, None, -5 * 60, 0, 90, -14 * 60, 5 * 60 + 45]))
    ts = INGEST_START + timedelta(minutes=minute, seconds=second, microseconds=micro)
    if offset is None:
        text = ts.isoformat(timespec=draw(st.sampled_from(["minutes", "seconds", "auto"])))
    else:
        # the same zone wall time written at another offset, so it stays near the window
        aware = ts.replace(tzinfo=INGEST_ZONE).astimezone(timezone(timedelta(minutes=offset)))
        text = aware.isoformat()
    return text


durations_text = st.one_of(
    st.sampled_from(["0", "-0.0", "0.0", "1", "1.0", "2.5", "-1", "-0.5", "1e-300", "  3.25 "]),
    st.floats(-50.0, 500.0, allow_nan=False).map(repr),
)
# zeros of both signs decide which equal maximum a group keeps; large
# magnitudes make a group's sum depend on the order and method of summing
dense_durations_text = st.sampled_from(["-0.0", "0.0", "-0.0", "0", "-1", "1", "0.1", "1e16", "-1e16"])


@st.composite
def raw_rows(draw, width, dense, minutes):
    """Cells of one row in header order (id, timestamp, duration, extras)."""
    kind = draw(st.sampled_from(["good"] * 6 + ["missing", "short", "long", "bad_ts", "bad_d", "blank"]))
    duration = dense_durations_text if dense else durations_text
    cells = [draw(st.sampled_from(INGEST_IDS)), draw(stamp_texts(dense, minutes)), draw(duration)]
    cells += ["x"] * (width - 3)
    if kind == "missing":
        cells[draw(st.integers(0, 2))] = draw(st.sampled_from(["", "  "]))
    elif kind == "short":
        cells = cells[:draw(st.integers(1, width - 1))]
    elif kind == "long":
        cells += ["extra", "cells"]
    elif kind == "bad_ts":
        cells[1] = draw(st.sampled_from(["yesterday", "2008-13-01T00:00", "2008-09-12T25:00",
                                         "2008-09-12 07:00", "2008-02-30T00:00", "0000-01-01T00:00"]))
    elif kind == "bad_d":
        cells[2] = draw(st.sampled_from(["soon", "nan", "inf", "-inf", "1,5"]))
    elif kind == "blank":
        return None
    return cells


# characters that str.splitlines breaks a line at and csv does not
LINE_BREAKS_CSV_KEEPS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def odd_cells(draw, cell, delim):
    """The cell quoted, with the delimiter inside or not, or with a NUL or
    one of LINE_BREAKS_CSV_KEEPS put into it."""
    if draw(st.booleans()):
        return '"' + cell + draw(st.sampled_from(["", delim + "x"])) + '"'
    at = draw(st.integers(0, len(cell)))
    return cell[:at] + draw(st.sampled_from(["\0", *LINE_BREAKS_CSV_KEEPS])) + cell[at:]


@st.composite
def raw_files(draw):
    """Raw text, with its delimiter and its header's column order and padding.

    In some files a row may hold one odd cell (odd_cells).  Lines end in
    \\n or \\r\\n, and one line may end in a lone \\r, which csv refuses
    unless it ends the text.
    """
    delim = draw(st.sampled_from([",", "\t"]))
    names = ["id", "timestamp", "duration_hours"] + draw(st.sampled_from([[], ["county"]]))
    order = draw(st.permutations(range(len(names))))
    pad = draw(st.booleans())
    header = [(" " + names[i] + " ") if pad else names[i] for i in order]
    lines = [delim.join(header)]
    dense, minutes, odd = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    for cells in draw(st.lists(raw_rows(len(names), dense, minutes), max_size=40)):
        if cells is None:
            lines.append("")
            continue
        # cells were drawn in name order; short rows lose their last columns
        # and long rows keep their extra cells at the end
        row = [cells[i] if i < len(cells) else None for i in order] + cells[len(names):]
        while row and row[-1] is None:
            row.pop()
        row = ["" if c is None else c for c in row]
        if odd and row and draw(st.integers(0, 3)) == 0:
            at = draw(st.integers(0, len(row) - 1))
            row[at] = draw(odd_cells(row[at], delim))
        lines.append(delim.join(row))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"]))] * len(lines)
    if draw(st.sampled_from([False] * 7 + [True])):
        ends[draw(st.integers(0, len(ends) - 1))] = "\r"
    text = "".join(line + end for line, end in zip(lines, ends))
    return text, draw(st.sampled_from([None, delim]))


@settings(max_examples=300)
@example(raw=("", None), rule="max", resolution=1, chunk=1 << 15)
@example(raw=("id,timestamp,duration_hours", None), rule="max", resolution=1, chunk=1 << 15)
@given(raw=raw_files(), rule=st.sampled_from(["max", "first", "mean"]),
       resolution=st.sampled_from([1, 5, 7, 90]), chunk=st.sampled_from([1, 2, 30, 100, 1 << 15]))
def test_columnar_ingest_matches_record_pipeline(raw, rule, resolution, chunk):
    # both parse routes (columns of plain text, csv.reader for the rest)
    # against the record-at-a-time pipeline; small chunks of plain text cut
    # lines between chunks and send some chunks row by row
    text, delimiter = raw
    end = INGEST_START + timedelta(minutes=INGEST_SPAN_MINUTES)
    try:
        times, durations, ref_issues, ref_prov = reference_ingest(
            text, INGEST_START, end, resolution, rule, INGEST_ZONE, delimiter
        )
    except (csv.Error, ValueError) as exc:
        # no header, or a lone carriage return inside the text
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            ingest_pipeline(text, INGEST_START, end, resolution, rule, INGEST_ZONE, delimiter)
        return
    with mock.patch.object(ingest, "_CHUNK", chunk):
        ds, issues = ingest_pipeline(text, INGEST_START, end, resolution, rule, INGEST_ZONE, delimiter)
    # bit for bit, so the sign of a zero counts
    assert ds.times.dtype == ds.durations.dtype == np.float64
    assert ds.times.tobytes() == np.asarray(times, dtype=np.float64).tobytes()
    assert ds.durations.tobytes() == np.asarray(durations, dtype=np.float64).tobytes()
    assert issues == ref_issues
    assert ds.provenance == ref_prov
    assert ds.provenance.consistent()


# characters that a YYYY-MM-DDTHH:MM cell may be edited with: its own, a
# space or tab, other ISO separators and non-ASCII digits
MINUTE_EDITS = "0123456789-T:t /\tZ+.\0\u0663\uff11"


@st.composite
def minute_cells(draw):
    """A YYYY-MM-DDTHH:MM cell near the calendar's edges (month 00 and 13,
    the last days of February in leap and common centuries, day 31 of
    30-day months, hour 24, minute 60, years 0, 1 and 9999), with its
    separators swapped or up to two characters put, inserted or dropped."""
    year = draw(st.one_of(st.sampled_from([0, 1, 1900, 2000, 2004, 2100, 9999]), st.integers(0, 9999)))
    month = draw(st.integers(0, 13))
    day = draw(st.one_of(st.sampled_from([28, 29, 30, 31]), st.integers(0, 32)))
    cell = f"{year:04d}-{month:02d}-{day:02d}T{draw(st.integers(0, 24)):02d}:{draw(st.integers(0, 60)):02d}"
    kind = draw(st.sampled_from(["keep"] * 4 + ["swap", "edit"]))
    if kind == "swap":
        cell = cell.translate(str.maketrans("-:", ":-"))
    for _ in range(draw(st.integers(1, 2)) if kind == "edit" else 0):
        at, ch = draw(st.integers(0, len(cell))), draw(st.sampled_from(MINUTE_EDITS))
        cell = draw(st.sampled_from([cell[:at] + ch + cell[at + 1:], cell[:at] + ch + cell[at:],
                                     cell[:at] + cell[at + 1:]]))
    return cell


@settings(max_examples=300)
@example(cells=["2000-02-29T00:00", "2004-02-29T12:30", "1900-02-29T00:00", "2100-02-29T00:00",
                "2008-04-31T00:00", "2008-09-12T24:00", "2008-09-12T23:60", "2008-00-10T00:00",
                "2008-13-10T00:00", "0000-01-01T00:00", "0001-01-01T00:00", "9999-12-31T23:59",
                "2008-09-12 07:00", "2008:09:12T07-00", "\u0663008-09-12T07:00", "2008-09-12T07:0\uff11",
                "", "2008-09-12T07:00:00"])
@given(cells=st.lists(minute_cells(), max_size=30))
def test_minute_decoder_matches_fromisoformat(cells):
    # the decoder takes exactly the ASCII YYYY-MM-DDTHH:MM cells that
    # fromisoformat takes, at fromisoformat's microsecond
    ok, stamps = _decode_minutes(cells)
    assert len(ok) == len(stamps) == len(cells)
    for cell, got, stamp in zip(cells, ok.tolist(), stamps.tolist()):
        try:
            ts = datetime.fromisoformat(cell)
        except ValueError:
            ts = None
        shaped = re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}", cell) is not None
        assert got == (shaped and ts is not None), cell
        if got:
            assert stamp == (ts - datetime(1970, 1, 1)) // timedelta(microseconds=1), cell


# ids and stamps that tie, zeros of both signs and equal non-zero maxima,
# where the order of a bucket's members decides the survivor
GROUP_IDS = ["a", "b", "B", "ab", "é"]
group_durations = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 0.1, 1e16, -1e16]),
    st.floats(-50.0, 50.0, allow_nan=False),
)


@st.composite
def grouping_records(draw):
    """Raw records near the window start, in the order drawn."""
    base = int(np.datetime64(INGEST_START, "us").astype(np.int64))
    minute = st.one_of(st.sampled_from([0, 1, 59, 60, 61]), st.integers(0, 300))
    offset = st.sampled_from([0, 0, 1, 30_000_000, 59_999_999])
    rows = draw(st.lists(st.tuples(st.sampled_from(GROUP_IDS), minute, offset, group_durations),
                         max_size=40))
    return RawRecords(ids=np.array([r[0] for r in rows], dtype=object),
                      stamps=np.array([base + m * 60_000_000 + o for _, m, o, _ in rows],
                                      dtype=np.int64),
                      durations=np.array([r[3] for r in rows], dtype=np.float64))


@settings(max_examples=300)
@example(records=RawRecords(ids=np.array(["b", "a"], dtype=object),
                            stamps=np.array([0, 0], dtype=np.int64),
                            durations=np.array([2.0, 2.0])),
         resolution=1, rule="max")
@given(records=grouping_records(), resolution=st.integers(1, 120),
       rule=st.sampled_from(["max", "first", "mean"]))
def test_bucket_grouping_matches_global_sort(records, resolution, rule):
    got, merged = group_dependent(records, resolution, rule)
    want, want_merged = group_dependent_oracle(records, resolution, rule)
    assert merged == want_merged
    assert got.stamps.dtype == np.int64 and got.stamps.tobytes() == want.stamps.tobytes()
    # bit for bit, so the sign of a zero counts
    assert got.durations.dtype == np.float64
    assert got.durations.tobytes() == want.durations.tobytes()
    assert got.ids.tolist() == want.ids.tolist()


def loop_smooth(values, window):
    """The truncated moving average one window at a time, as it was written
    before the window sums became one convolution."""
    if window <= 1:
        return values
    r = window // 2
    out = np.empty_like(values)
    n = len(values)
    for i in range(n):
        lo, hi = max(0, i - r), min(n, i + r + 1)
        out[i] = values[lo:hi].mean()
    return out


@settings(max_examples=300)
@given(st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e6), st.just(0.0)),
                min_size=1, max_size=80),
       st.integers(0, 90), st.booleans())
def test_smooth_matches_window_loop(values, window, falling):
    # restored fractions are >= 0; a falling curve puts small windows after
    # a large prefix, where differences of a cumulative sum lose digits
    v = np.sort(np.asarray(values))
    if falling:
        v = v[::-1].copy()
    np.testing.assert_allclose(resilience._smooth(v, window), loop_smooth(v, window),
                               rtol=1e-12, atol=0.0)


@settings(max_examples=200)
@given(mixtures(), st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40))
def test_mixture_cdf_monotone_in_unit_interval(mix, xs):
    x = np.sort(np.concatenate([np.asarray(xs), [0.0, np.inf]]))
    p = mix.cdf(x)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.all(np.diff(p) >= 0.0)
    # the weights are accepted when they sum to 1 within 1e-9
    assert p[0] == 0.0 and abs(p[-1] - 1.0) <= 1e-9


@settings(max_examples=200)
@given(mixtures(), st.floats(-6.0, 6.0))
def test_quantile_inverts_cdf(mix, log10_x):
    x = 10.0 ** log10_x
    q = mix.cdf(x)
    # away from saturation, where q still tells x apart from its neighbours
    assume(1e-9 < q < 1.0 - 1e-9)
    got = mix.quantile(q)
    # the cdf is accurate to a few ulps of q; over the density that is an
    # error in x, on top of the bisection's relative stopping width
    tol = 1e-11 * x + 8.0 * np.finfo(float).eps * q / mix.pdf(x)
    assert abs(got - x) <= tol


@st.composite
def fitted_mixtures(draw):
    """1-4 components, with shapes anywhere in the fit's bracket and scales
    spanning seven decades."""
    n = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    log_scales = draw(st.lists(st.floats(-3.0, 4.0), min_size=n, max_size=n))
    shapes = draw(st.lists(st.floats(_SHAPE_LO, _SHAPE_HI), min_size=n, max_size=n))
    total = sum(raw)
    return WeibullMixture(components=tuple(
        (w / total, 10.0**s, k) for w, s, k in zip(raw, log_scales, shapes)
    ))


@settings(max_examples=200)
@given(fitted_mixtures())
def test_mixture_mean_matches_scipy_gamma(mix):
    ref = sum(w * g * float(gamma(1.0 + 1.0 / k)) for w, g, k in mix.components)
    assert abs(mix.mean() - ref) <= 1e-13 * ref


@st.composite
def poisson_tables(draw):
    """A largest count k and interval means: none, the smallest doubles, any
    size up to 1e4, and multiples of k up to far past it."""
    k = draw(st.integers(1, 500))
    mean = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300]), st.floats(1e-300, 1e4),
                     st.floats(0.01, 100.0).map(lambda r: r * k))
    return k, np.array(draw(st.lists(mean, min_size=1, max_size=30)))


@settings(max_examples=200)
@given(poisson_tables())
def test_poisson_pmf_and_tail_match_scipy(table):
    k, mu = table
    j = np.arange(k + 1)[:, None]
    pmf = np.exp(special.xlogy(j, mu) - special.gammaln(j + 1) - mu)
    np.testing.assert_allclose(_poisson_pmf(k, mu), pmf, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(_poisson_upper(k, mu), special.pdtrc(k - 1, mu),
                               rtol=1e-12, atol=1e-300)


@settings(max_examples=300)
@given(st.integers(1, 1000),
       st.one_of(st.floats(1e-300, 1e-3), st.floats(1e-3, 1.0 - 1e-3),
                 st.floats(1e-15, 1e-3).map(lambda e: 1.0 - e)))
def test_chi2_quantile_matches_scipy(dof, alpha):
    ref = 2.0 * special.gammaincinv(dof / 2, 1.0 - alpha)
    got = _chi2_quantile(dof, 1.0 - alpha)
    # 1 - alpha rounds to 1 below alpha = 2^-54: both give inf
    assert got == ref if math.isinf(ref) else abs(got - ref) <= 1e-12 * ref


def finite_slopes(t, v) -> bool:
    """Whether knots (t, v) have finite slopes, as RateFunction requires:
    two knot times a subnormal gap apart with a step between them do not."""
    with np.errstate(over="ignore"):
        return bool(np.all(np.isfinite(np.diff(v) / np.diff(t))))


@st.composite
def rate_functions(draw):
    n = draw(st.integers(1, 6))
    t = sorted(draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n, unique=True)))
    v = draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n))
    assume(finite_slopes(t, v))
    horizon = draw(st.floats(max(t[-1], 1e-3), 150.0))
    return RateFunction(knots=tuple(zip(t, v)), horizon=horizon)


@settings(max_examples=200)
@given(rate_functions(), st.floats(0.0, 1.0))
def test_cumulative_matches_fine_trapezoid(rate, frac):
    t = frac * rate.horizon
    grid = np.linspace(0.0, t, 20001)
    y = rate.value(grid)
    fine = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(grid)))
    # the trapezoid rule is exact between knots; a cell of width h holding
    # a knot is off by at most h * peak, and by at most h**2 / 8 times the
    # slope jump there, which is at most 2 * peak over the shortest knot gap
    h = t / 20000
    knots = np.asarray([k[0] for k in rate.knots])
    gaps = np.diff(np.concatenate(([0.0], knots, [rate.horizon])))
    per_knot = h * rate.peak * min(1.0, h / (4.0 * float(gaps[gaps > 0.0].min())))
    tol = len(knots) * per_knot + 1e-9 * max(1.0, rate.peak * t)
    assert abs(rate.cumulative(t) - fine) <= tol
    assert rate.cumulative(t) == rate.integral(0.0, t)


@st.composite
def inversion_rates(draw):
    """Rates with zero-intensity stretches and tails, falling segments, knots
    at 0 or past it and horizons at the last knot or beyond it."""
    n = draw(st.integers(1, 6))
    t = sorted(draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n, unique=True)))
    v = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 50.0)), min_size=n, max_size=n))
    assume(finite_slopes(t, v))
    horizon = draw(st.one_of(st.just(max(t[-1], 1e-3)), st.floats(max(t[-1], 1e-3), 150.0)))
    return RateFunction(knots=tuple(zip(t, v)), horizon=horizon)


def inversion_tolerance(rate) -> float:
    """A few roundings of the levels (up to the total) and of the times (up
    to the horizon, at up to the peak intensity), and a few of the smallest
    doubles for subnormal intensities."""
    f = np.finfo(float)
    return 32.0 * f.eps * (rate.total + rate.peak * rate.horizon) + 16.0 * f.smallest_subnormal


@settings(max_examples=300)
@given(inversion_rates(), st.data())
def test_inverse_cumulative_inverts_cumulative(rate, data):
    total = rate.total
    # levels on segment edges (the cumulative at every knot), 0 and exactly
    # the total among uniform ones
    edges = [float(rate.cumulative(k)) for k, _ in rate.knots]
    one = st.one_of(st.sampled_from([0.0, total, *edges]), st.floats(0.0, total))
    u = np.sort(np.asarray(data.draw(st.lists(one, min_size=1, max_size=30))))
    x = rate.inverse_cumulative(u)
    tol = inversion_tolerance(rate)
    assert np.all(np.isfinite(x)) and np.all((x >= 0.0) & (x <= rate.horizon))
    # Lambda(Lambda^-1(u)) = u
    assert np.all(np.abs(rate.cumulative(x) - u) <= tol)
    # sorted levels give nondecreasing times, up to one rounding of a time
    assert np.all(np.diff(x) >= -2.0 * np.spacing(rate.horizon))

    # Lambda^-1(Lambda(t)) = t where the intensity is positive around t: in
    # the middle third of a knot segment with positive intensity at both ends
    # it is at least m = min(ends) there, so |x - t| <= tol / m; elsewhere it
    # lands where Lambda is flat between the two
    t = np.asarray(data.draw(st.lists(st.floats(0.0, rate.horizon), min_size=1, max_size=10)))
    x = rate.inverse_cumulative(rate.cumulative(t))
    assert np.all(np.isfinite(x)) and np.all((x >= 0.0) & (x <= rate.horizon))
    assert np.all(np.abs(rate.cumulative(x) - rate.cumulative(t)) <= 2.0 * tol)
    for (a, va), (b, vb) in zip(rate.knots[:-1], rate.knots[1:]):
        m = min(va, vb)
        middle = (t > a + (b - a) / 3.0) & (t < b - (b - a) / 3.0)
        if 2.0 * tol < m * (b - a) / 3.0:
            bound = 2.0 * tol / m + 2.0 * np.spacing(rate.horizon)
            assert np.all(np.abs(x[middle] - t[middle]) <= bound)


@settings(max_examples=100)
@given(inversion_rates(), st.integers(0, 2**32 - 1))
def test_sample_nhpp_strictly_increasing_in_range(rate, seed):
    assume(rate.total <= 2000.0)
    t = sample_nhpp(rate, replica_rng(seed, 0))
    assert np.all(np.isfinite(t)) and np.all((t >= 0.0) & (t <= rate.horizon))
    assert np.all(np.diff(t) > 0.0)


@st.composite
def lattice_cases(draw):
    """(rate, model, step, lattice nodes): 1-5 knots and a 1-4 interval model
    whose knots and boundaries sit on lattice nodes or between them."""
    h = draw(st.sampled_from([0.05, 0.0625, 0.1, 0.25]))
    nodes = np.arange(draw(st.integers(1, 700)) + 1) * h
    span = float(nodes[-1])
    inside = st.one_of(st.sampled_from(nodes[1:-1].tolist() or [span / 2]),
                       st.floats(0.0, span, exclude_min=True, exclude_max=True))
    knot_times = sorted(draw(st.lists(st.one_of(st.just(0.0), inside),
                                      min_size=1, max_size=5, unique=True)))
    values = draw(st.lists(st.floats(0.0, 50.0), min_size=len(knot_times),
                           max_size=len(knot_times)))
    assume(finite_slopes(knot_times, values))
    rate = RateFunction(knots=tuple(zip(knot_times, values)), horizon=span)
    inner = sorted(draw(st.lists(inside, max_size=3, unique=True)))
    b = [draw(st.sampled_from([0.0, -1.0])), *inner, draw(st.sampled_from([span, span + 5.0]))]
    mix = draw(st.lists(mixtures(), min_size=len(b) - 1, max_size=len(b) - 1))
    return rate, DurationModel(boundaries=tuple(b), mixtures=tuple(mix)), h, nodes


def cell_rule_edges(rate, model, t, h):
    """Edges of round(t / h) equal cells on [0, t], plus the rate's knots and
    the model's boundaries inside it, as failure times."""
    grid = np.linspace(0.0, t, max(1, round(t / h)) + 1)
    cuts = [c for c in [*(kt for kt, _ in rate.knots), *model.boundaries] if 0.0 < c < t]
    return np.unique(np.concatenate([grid, np.asarray(cuts, dtype=float)]))


def cell_rule_rate(rate, model, t, h):
    """The recovery intensity at one time by the per-point cell rule: each
    cell's intensity at its midpoint against the increment of the duration
    cdf over its lags t - s_j."""
    if t == 0.0:
        return 0.0
    s = cell_rule_edges(rate, model, t, h)
    mid = 0.5 * (s[1:] + s[:-1])
    return float(np.sum(rate.value(mid) * (model.cdf(t - s[:-1], at=mid)
                                           - model.cdf(t - s[1:], at=mid))))


def cell_rule_trapezoid(rate, model, t, h, integrand):
    """Trapezoid rule for integrand(s, at) over the failure time s in [0, t],
    `at` the failure time whose interval's mixture applies.  Each cell takes
    the limits at its own ends: at a node on an inner boundary the cell to
    the left takes the left-hand mixture."""
    if t == 0.0:
        return 0.0
    s = cell_rule_edges(rate, model, t, h)
    y = integrand(s, s)
    out = float(np.trapezoid(y, s))
    j = 1 + np.flatnonzero(np.isin(s[1:], model.boundaries[1:-1]))
    if len(j):
        left = integrand(s[j], np.nextafter(s[j], -np.inf))
        out += float(np.sum(0.5 * (s[j] - s[j - 1]) * (left - y[j])))
    return out


def check_against_cell_rule(rate, model, h, on, off, fft_from):
    """The lattice pass at the times `on` (multiples of h) and `off` against
    the per-point cell rule, within 1e-9 of each quantity's scale, or the
    smallest normal double where the whole curve is subnormal."""
    nodes = np.arange(round(rate.horizon / h) + 1) * h
    times = np.asarray(on + off)
    # fft_from 1 sends every convolution through rfft, 10**9 none
    with mock.patch.object(recovery, "_FFT_MIN_SUPPORT", fft_from):
        lam = recovery_rate_curve(rate, model, times, h)
        cum = expected_recovered(rate, model, times, h)
        out = np.asarray([expected_in_failure(rate, model, t, h) for t in times])
        lam_peak = recovery_rate_curve(rate, model, nodes, h).max()
        cum_peak = expected_recovered(rate, model, nodes, h).max()
    lam_ref = np.asarray([cell_rule_rate(rate, model, t, h) for t in times])
    cum_ref = np.asarray([cell_rule_trapezoid(
        rate, model, t, h, lambda s, at, t=t: rate.value(s) * model.cdf(t - s, at=at))
        for t in times])
    out_ref = np.asarray([cell_rule_trapezoid(
        rate, model, t, h, lambda s, at, t=t: rate.value(s) * (1.0 - model.cdf(t - s, at=at)))
        for t in times])
    tiny = np.finfo(float).tiny
    # the pass adds the rule's cell terms in another order (an rfft product:
    # to about 1e-15 of the peak), on cells an ulp apart off the lattice
    assert np.all(np.abs(lam - lam_ref) <= max(1e-9 * lam_peak, tiny))
    assert np.all(np.abs(cum - cum_ref) <= max(1e-9 * cum_peak, tiny))
    # the number still failed is the cumulative intensity less the
    # recoveries: its cancellation is bounded on that cumulative's scale
    assert np.all(np.abs(out - out_ref) <= max(1e-9 * rate.cumulative(rate.horizon), tiny))


@settings(max_examples=150)
@given(lattice_cases(), st.data(), st.sampled_from([1, 10**9]))
def test_lattice_pass_matches_cell_rule(case, data, fft_from):
    rate, model, h, nodes = case
    m = len(nodes) - 1
    n = sorted(data.draw(st.lists(st.integers(0, m), min_size=1, max_size=12, unique=True)))
    # a time on the lattice whose own cells, t / round(t / h), are an ulp
    # off h puts the rule's edges beside the nodes, not on them
    on = [float(nodes[k]) for k in n if k == 0 or nodes[k] / k == h]
    off = data.draw(st.lists(st.floats(0.0, float(nodes[-1])), max_size=4))
    off = [t for t in off if abs(t / h - round(t / h)) > 1e-6]
    check_against_cell_rule(rate, model, h, on, off, fft_from)


def test_lattice_pass_matches_cell_rule_on_edge_cases():
    unit = WeibullMixture(components=((1.0, 1.0, 1.0),))
    cases = [
        # a knot 1e-12 h after 0: a rule whose midpoints are t minus a lag
        # midpoint is off by up to eps * t, 2.68e-18 against a bound of 4.76e-22
        (RateFunction(knots=((0.0, 1.0), (1e-12, 0.0)), horizon=0.05), [0.0, 0.05], [0.024]),
        # a subnormal intensity: the rfft route gives 5e-324 where the rule gives 0
        (RateFunction(knots=((0.0, 5e-324),), horizon=0.8), [0.0, 0.4, 0.8], [0.33]),
    ]
    for rate, on, off in cases:
        model = DurationModel(boundaries=(0.0, rate.horizon), mixtures=(unit,))
        for fft_from in (1, 10**9):
            check_against_cell_rule(rate, model, 0.05, on, off, fft_from)


def scenario_oracle(spec, model, t, regime, d0, quad_step):
    """The day-to-day recovery rate and expected count, and the surge
    recovery rate and expected count, at the one time t, written per time:
    a constant rate of horizon t, one pass per quantity, 0 at t = 0 or a
    zero base rate, and each surge regime as its own branch.  Where t / g
    underflows and the density reads inf, the surge rate takes t g(t) as
    the sum of w k z^k e^(-z^k), each z^k = exp(k (log t - log g))."""
    base, lam0, t1 = spec.base_rate, spec.surge_rate.value(0.0), spec.surge_end
    rate_dd = exp_dd = 0.0
    if t > 0.0 and base > 0.0:
        rate = RateFunction.constant(base, t)
        rate_dd = (base * model.mixtures[0].cdf(t) if model.is_stationary
                   else recovery_rate(rate, model, t, quad_step))
        exp_dd = expected_in_failure(rate, model, t, quad_step)
    surge_rate = 0.0 if t == 0.0 else lam0 * model.pdf(t, at=0.0) * min(t, t1) + rate_dd
    if math.isinf(surge_rate):
        t_pdf = 0.0
        for w, g, k in model.mixtures[model.interval_index(0.0)].components:
            log_zk = k * (np.log(t) - np.log(g))
            t_pdf += w * k * np.exp(log_zk - np.exp(log_zk))
        surge_rate = float(lam0 * t_pdf * (min(t, t1) / t) + rate_dd)
    surv = 1.0 - model.cdf(t, at=0.0)
    if regime == "general" or (regime == "infant" and t < d0):
        out = lam0 * surv * min(t, t1) + exp_dd
    elif regime == "infant":
        out = exp_dd
    elif t < d0:
        out = lam0 * min(t, t1) + exp_dd
    else:
        out = lam0 * t1 * surv + exp_dd
    return rate_dd, exp_dd, surge_rate, out


@st.composite
def scenario_cases(draw):
    """A stationary or piecewise model on [0, 30], a surge spec over a base
    rate (0 among them), a regime with its threshold d0, a quadrature step,
    and 1-6 times: 0, d0, lattice nodes and times off the lattice."""
    inner = sorted(draw(st.lists(st.floats(0.5, 29.5), max_size=2, unique=True)))
    mix = draw(st.lists(mixtures(), min_size=len(inner) + 1, max_size=len(inner) + 1))
    model = DurationModel(boundaries=(0.0, *inner, 30.0), mixtures=tuple(mix))
    t1 = draw(st.floats(0.1, 5.0))
    spec = SurgeSpec(base_rate=draw(st.sampled_from([0.0, 0.5, 4.0, 120.0])),
                     surge_rate=RateFunction.constant(draw(st.floats(1.0, 200.0)), t1), surge_end=t1)
    regime = draw(st.sampled_from(["general", "infant", "aging"]))
    d0 = draw(st.floats(t1 + 0.1, 30.0))
    h = draw(st.sampled_from([0.05, 0.25]))
    one = st.one_of(st.just(0.0), st.just(d0), st.integers(1, round(30.0 / h)).map(lambda k: k * h),
                    st.floats(0.0, 30.0))
    return spec, model, regime, d0, h, draw(st.lists(one, min_size=1, max_size=6))


@settings(max_examples=60)
@example(case=(SurgeSpec(base_rate=4.0, surge_rate=RateFunction.constant(50.0, 2.0), surge_end=2.0),
               DurationModel(boundaries=(0.0, 7.0, 30.0), mixtures=(
                   WeibullMixture(components=((0.5, 0.5, 0.6), (0.5, 6.0, 2.0))),
                   WeibullMixture(components=((1.0, 3.0, 1.2),)))),
               "aging", 9.0, 0.05, [0.0, 9.0, 0.05, 12.345, 30.0]))
@example(case=(SurgeSpec(base_rate=0.0, surge_rate=RateFunction.constant(1.0, 1.0), surge_end=1.0),
               DurationModel.stationary(WeibullMixture(components=((1.0, 2.0, 0.5),)), horizon=30.0),
               "general", 2.0, 0.05, [0.0, 5e-324]))
@example(case=(SurgeSpec(base_rate=0.0, surge_rate=RateFunction.constant(3.0, 1.0), surge_end=1.0),
               DurationModel.stationary(WeibullMixture(components=((0.5, 2.0, 0.01), (0.5, 0.3, 1.5))),
                                        horizon=30.0),
               "general", 2.0, 0.05, [0.0, 5e-324, 1e-320, 1e-300, 0.5]))
@given(case=scenario_cases())
def test_scenario_forms_take_arrays_of_times(case):
    spec, model, regime, d0, h, times = case
    base = spec.base_rate
    forms = (
        lambda t: day_to_day_recovery_rate(base, model, t, h),
        lambda t: day_to_day_expected(base, model, t, h),
        lambda t: surge_recovery_rate(spec, model, t, h),
        lambda t: surge_expected(spec, model, t, regime, d0, h),
    )
    oracle = [scenario_oracle(spec, model, t, regime, d0, h) for t in times]
    for j, form in enumerate(forms):
        curve = form(np.asarray(times))
        each = [form(t) for t in times]
        # one time at a time, the forms are the per-time formulas bit for bit
        assert all(type(v) is float for v in each)
        assert each == [o[j] for o in oracle]
        # one call for all the times: its one pass has other convolution
        # lengths, so it differs by rounding on the curve's own scale
        assert all(math.isfinite(v) for v in each)
        scale = max(abs(v) for v in each)
        np.testing.assert_allclose(curve, each, rtol=1e-10, atol=1e-10 * scale)
        assert np.all(curve[np.asarray(times) == 0.0] == 0.0)
        if base == 0.0 and j < 2:
            assert np.all(curve == 0.0)


def reference_path_counts(rate, model, grid, replicas, seed):
    """(replicas, 2, grid) N_f, N_r: the replica-at-a-time loop that
    mean_paths ran before its block route, one simulate_events per replica."""
    rows = []
    for i in range(replicas):
        times, durations = simulate_events(rate, model, seed, i)
        recoveries = np.sort(times + durations)
        rows.append(np.vstack([np.searchsorted(times, grid, side="right"),
                               np.searchsorted(recoveries, grid, side="right")]).astype(float))
    return np.stack(rows)


def block_route_counts(rate, model, grid, replicas, seed):
    """(replicas, 3, grid) N_f, N_r, N as mean_paths counts them, block by
    block, before they are folded into sums."""
    blocks = []
    fold = simulate._Moments.fold

    def record(moments, counts, events):
        blocks.append(counts.copy())  # the fold squares counts in place
        fold(moments, counts, events)

    with mock.patch.object(simulate._Moments, "fold", record):
        simulate._moments(rate, model, replicas, seed, (3, len(grid)),
                          partial(simulate._count_paths, grid))
    return np.concatenate(blocks)


def stack_moments(stack):
    """Mean and standard error over axis 0 as mean_paths took them from the
    replica stack before it folded exact sums: np.mean and np.std."""
    r = len(stack)
    return stack.mean(axis=0), stack.std(axis=0, ddof=1 if r > 1 else 0) / np.sqrt(r)


def block_cells(replicas_per_block, rate, points):
    """A _BLOCK_CELLS that puts this many replicas in each block."""
    return replicas_per_block * (math.ceil(rate.total) + points)


@st.composite
def light_rates(draw):
    """Intensities of at most 5/h over at most 30 h, the zero intensity among them."""
    horizon = draw(st.floats(1.0, 30.0))
    t = sorted(draw(st.lists(st.floats(0.0, horizon), min_size=1, max_size=4, unique=True)))
    v = draw(st.one_of(st.just([0.0] * len(t)),
                       st.lists(st.floats(0.0, 5.0), min_size=len(t), max_size=len(t))))
    assume(finite_slopes(t, v))
    return RateFunction(knots=tuple(zip(t, v)), horizon=horizon)


@settings(max_examples=60)
@given(light_rates(), models(), st.sampled_from([1, 2, 31, 32, 33, 100]),
       st.sampled_from([1, 2, 32, None]), st.integers(0, 2**32 - 1), st.data())
def test_block_route_matches_replica_loop(rate, model, replicas, block, seed, data):
    # replica 0's own jump times among the grid times and bin edges, where
    # "a jump at t is counted at t" and np.histogram's [e_k, e_k+1) decide
    t0, d0 = simulate_events(rate, model, seed, 0)
    rec0 = np.sort(t0 + d0)
    grid = np.concatenate([data.draw(st.lists(st.floats(-1.0, 2.0 * rate.horizon),
                                              min_size=1, max_size=20)), t0[:3], rec0[:3]])
    cells = simulate._BLOCK_CELLS if block is None else block_cells(block, rate, len(grid))
    with mock.patch.object(simulate, "_BLOCK_CELLS", cells):
        counts = block_route_counts(rate, model, grid, replicas, seed)
    np.testing.assert_array_equal(counts[:, :2],
                                  reference_path_counts(rate, model, grid, replicas, seed))
    np.testing.assert_array_equal(counts[:, 2], counts[:, 0] - counts[:, 1])
    # N = N_f - N_r for every replica: the failed-and-not-yet-recovered count
    for i in range(replicas):
        t, d = simulate_events(rate, model, seed, i)
        out = np.sum((t[:, None] <= grid) & (grid < (t + d)[:, None]), axis=0)
        np.testing.assert_array_equal(counts[i, 2], out)
    if replicas >= 100:
        top = max(rec0[-1], 1.0) if len(rec0) else 1.5 * rate.horizon
        edges = np.unique(np.concatenate([np.linspace(0.0, top, 7), rec0[:3]]))
        with mock.patch.object(simulate, "_BLOCK_CELLS", cells):
            mc = monte_carlo_recovery_rate(rate, model, edges, replicas, seed)
        hist = np.stack([np.histogram(np.add(*simulate_events(rate, model, seed, i)),
                                      bins=edges)[0] for i in range(replicas)]).astype(float)
        mean, se = stack_moments(hist)
        np.testing.assert_array_equal(mc.mean_rate, mean / np.diff(edges))
        np.testing.assert_allclose(mc.se_rate, se / np.diff(edges), rtol=1e-12, atol=0.0)


@settings(max_examples=40)
@given(light_rates(), models(), st.sampled_from([1, 2, 7, 100]),
       st.integers(0, 2**32 - 1), st.data())
def test_moments_match_replica_stack(rate, model, replicas, seed, data):
    # oracle: np.mean and np.std over the stack of every replica's counts
    grid = np.asarray(data.draw(st.lists(st.floats(-1.0, 2.0 * rate.horizon),
                                         min_size=1, max_size=20)))
    stack = reference_path_counts(rate, model, grid, replicas, seed)
    mean, se = stack_moments(np.concatenate([stack, stack[:, :1] - stack[:, 1:]], axis=1))
    got = mean_paths(rate, model, grid, replicas, seed)
    for j, name in enumerate(("nf", "nr", "n")):
        np.testing.assert_array_equal(got[f"{name}_mean"], mean[j])
        np.testing.assert_allclose(got[f"{name}_se"], se[j], rtol=1e-12, atol=0.0)
        if replicas == 1:
            np.testing.assert_array_equal(got[f"{name}_se"], 0.0)
    edges = np.linspace(0.0, 1.5 * rate.horizon, 9)
    mc = monte_carlo_recovery_rate(rate, model, edges, replicas, seed) if replicas >= 100 else None
    # one replica per block, then every replica in one block
    for cells in (1, 10**12):
        with mock.patch.object(simulate, "_BLOCK_CELLS", cells):
            again = mean_paths(rate, model, grid, replicas, seed)
            for key, value in got.items():
                np.testing.assert_array_equal(again[key], value)
            if mc is not None:
                mc_again = monte_carlo_recovery_rate(rate, model, edges, replicas, seed)
                np.testing.assert_array_equal(mc_again.mean_rate, mc.mean_rate)
                np.testing.assert_array_equal(mc_again.se_rate, mc.se_rate)


NAN_RATE = RateFunction(knots=((0.0, 2.0), (8.0, 9.0), (20.0, 4.0)), horizon=20.0)
NAN_MODEL = DurationModel(boundaries=(0.0, 8.0, 20.0), mixtures=(
    WeibullMixture(components=((0.6, 1.0, 0.8), (0.4, 6.0, 2.5))),
    WeibullMixture(components=((1.0, 3.0, 1.2),))))
NAN_EVENTS = sample_nhpp(NAN_RATE, replica_rng(17, 0))

# each public entry point that takes an array: (its valid array, the call)
NAN_CASES = {
    "RateFunction.value": (lambda n: np.linspace(0.0, 20.0, n), NAN_RATE.value),
    "RateFunction.cumulative": (lambda n: np.linspace(0.0, 20.0, n), NAN_RATE.cumulative),
    "estimate_rate": (lambda n: NAN_EVENTS.copy(), lambda a: estimate_rate(a, horizon=20.0)),
    "pearson_nhpp_test": (lambda n: NAN_EVENTS.copy(),
                          lambda a: pearson_nhpp_test(a, NAN_RATE, n_intervals=10)),
    "qq_points": (lambda n: NAN_EVENTS.copy(), lambda a: qq_points(a, NAN_RATE)),
    "interval_weights": (lambda n: np.linspace(0.0, 20.0, n),
                         lambda a: interval_weights(NAN_EVENTS, a)),
    "pick_threshold": (lambda n: np.linspace(0.0, 20.0, n),
                       lambda a: pick_threshold(a, 1.0 - np.exp(-np.linspace(0.0, 20.0, len(a)) / 3.0))),
    "resilience_curve grid": (lambda n: np.linspace(0.0, 20.0, n),
                              lambda a: resilience_curve((0.5, 0.5), NAN_MODEL, a)),
    "resilience_curve weights": (lambda n: np.array([0.5, 0.5]),
                                 lambda a: resilience_curve(a, NAN_MODEL, np.linspace(0.0, 20.0, 21))),
    "reconstruct": (lambda n: np.linspace(0.0, 20.0, n), lambda a: reconstruct(NAN_RATE, NAN_MODEL, a)),
    "monte_carlo_recovery_rate": (lambda n: np.linspace(0.0, 20.0, n),
                                  lambda a: monte_carlo_recovery_rate(NAN_RATE, NAN_MODEL, a, 100, 3)),
    "mean_paths": (lambda n: np.linspace(0.0, 20.0, n),
                   lambda a: mean_paths(NAN_RATE, NAN_MODEL, a, 2, 3)),
    # a NaN maximum took the next bucket's duration, or raised IndexError
    "group_dependent": (lambda n: np.linspace(-1.0, 5.0, n), lambda a: group_dependent(RawRecords(
        np.array(["a"] * len(a), dtype=object), np.arange(len(a), dtype=np.int64) // 2 * 60_000_000, a))),
}


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(NAN_CASES)), n=st.integers(8, 30), data=st.data())
def test_nan_in_an_array_is_refused(name, n, data):
    # a range check written as any(out of range) lets NaN through, since
    # every comparison with NaN is false: each entry point must refuse it
    build, call = NAN_CASES[name]
    values = build(n)
    call(values)
    values[data.draw(st.integers(0, len(values) - 1))] = np.nan
    with pytest.raises(ValueError):
        call(values)


NAN_SPEC = SurgeSpec(base_rate=2.0, surge_rate=RateFunction.constant(30.0, 3.0), surge_end=3.0)

# each public scalar check: (a valid value, the call)
NAN_SCALAR_CASES = {
    "WeibullMixture.cdf": (1.0, NAN_MODEL.mixtures[0].cdf),
    "WeibullMixture.pdf": (1.0, NAN_MODEL.mixtures[0].pdf),
    "RateFunction.scaled": (2.0, NAN_RATE.scaled),
    "resilience_at": (3.0, lambda x: resilience.resilience_at(
        np.linspace(0.0, 20.0, 21), np.linspace(0.0, 1.0, 21), x)),
    "infant_aging_split": (4.0, lambda d0: resilience.infant_aging_split(NAN_MODEL, d0)),
    "day_to_day_expected": (2.0, lambda base: day_to_day_expected(base, NAN_MODEL, 5.0)),
    "surge_expected d0": (6.0, lambda d0: surge_expected(NAN_SPEC, NAN_MODEL, 5.0,
                                                         regime="infant", d0=d0)),
}


@pytest.mark.parametrize("name", sorted(NAN_SCALAR_CASES))
def test_nan_scalar_is_refused(name):
    # the scalar form of the array guard: a check written as `value < low`
    # lets NaN through, so each is written as `not <in range>`
    valid, call = NAN_SCALAR_CASES[name]
    call(valid)
    with pytest.raises(ValueError):
        call(math.nan)


# each entry point that answers a scalar with a scalar
ZERO_D_CASES = {
    "RateFunction.value": lambda a: NAN_RATE.value(a),
    "RateFunction.cumulative": lambda a: NAN_RATE.cumulative(a),
    "RateFunction.integral": lambda a: NAN_RATE.integral(a, a + 1.0),
    "WeibullMixture.pdf": lambda a: NAN_MODEL.mixtures[0].pdf(a),
    "WeibullMixture.cdf": lambda a: NAN_MODEL.mixtures[0].cdf(a),
    "DurationModel.cdf": lambda a: NAN_MODEL.cdf(a, at=a),
    "DurationModel.by_interval": lambda a: NAN_MODEL.by_interval(WeibullMixture.pdf, a, a),
}


@pytest.mark.parametrize("name", sorted(ZERO_D_CASES))
def test_zero_d_array_gives_a_float(name):
    # np.ndim(x) == 0 is the one scalar test: np.isscalar is False on a
    # 0-d array, which then came back as a shape-(1,) array
    call = ZERO_D_CASES[name]
    got = call(np.array(2.0))
    assert type(got) is float
    assert got == call(2.0)


def test_zero_d_array_gives_an_interval_index():
    got = NAN_MODEL.interval_index(np.array(9.0))
    assert type(got) is int and got == NAN_MODEL.interval_index(9.0) == 1
