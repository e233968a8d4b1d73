"""Property checks of the shared routes and the EM M-step against oracles.

Each merged route (the per-interval dispatch, the component draw and the
interval lookup) is compared with a direct computation on random inputs.
The Newton M-step is compared with lock-step bisection on adversarial
durations, and EM's log-likelihood is checked never to decrease.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from gridres import (
    DurationModel,
    WeibullMixture,
    fit_weibull_mixture,
    interval_weights,
    replica_rng,
    sample_durations,
)
from gridres.fitting import _SHAPE_HI, _SHAPE_LO, _SHAPE_XTOL, _mstep_shapes, _prepare
from gridres.weibull import interval_of


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


@given(mixtures(), st.integers(0, 200), st.integers(0, 2**32 - 1), st.floats(-50.0, 500.0))
def test_one_interval_sample_durations_is_mixture_sample(mix, n, seed, at):
    model = DurationModel.stationary(mix, horizon=100.0)
    times = np.full(n, at)
    got = sample_durations(times, model, replica_rng(seed, 0))
    want = mix.sample(n, replica_rng(seed, 0))
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

    Powers d**k are taken relative to the largest log-duration, so they
    underflow for a component whose points all sit far below it.  Returns
    the shapes and bound flags, and per component whether any weighted
    power it summed underflowed.
    """
    c = resp.shape[1]
    target = (resp.T @ logd) / resp.sum(axis=0)
    ld = logd - logd.max()
    underflow = np.zeros(c, dtype=bool)

    def equation(k):
        with np.errstate(under="ignore", divide="ignore", invalid="ignore"):
            terms = resp * np.exp(ld[:, None] * k[None, :])
            underflow[:] |= np.any((resp > 0.0) & (terms < np.finfo(float).tiny), axis=0)
            return 1.0 / k + target - (terms * logd[:, None]).sum(axis=0) / terms.sum(axis=0)

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
    e = np.log(resp, where=resp > 0.0, out=np.full(resp.shape, -np.inf)) + k[None, :] * logd[:, None]
    num, sign = logsumexp(e, b=np.broadcast_to(logd[:, None], e.shape), axis=0, return_sign=True)
    m = sign * np.exp(num - logsumexp(e, axis=0))
    return 1.0 / k + (resp.T @ logd) / resp.sum(axis=0) - m


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
    """Log-durations, responsibilities (some exactly 0) and warm-start shapes."""
    c = draw(st.integers(1, 3))
    logd = np.log(_prepare(draw(adversarial_durations(c))))
    n = len(logd)
    cell = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    raw = np.asarray(draw(st.lists(cell, min_size=n * c, max_size=n * c))).reshape(n, c)
    raw[raw.sum(axis=1) == 0.0] = 1.0
    resp = raw / raw.sum(axis=1, keepdims=True)
    assume(np.all(resp.sum(axis=0) >= 1e-8))
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
