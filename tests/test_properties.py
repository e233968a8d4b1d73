"""Property checks of the duration model's shared routes against oracles.

Each merged route (the per-interval dispatch, the component draw and the
interval lookup) is compared with a direct computation on random inputs.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from gridres import (
    DurationModel,
    WeibullMixture,
    interval_weights,
    replica_rng,
    sample_durations,
)
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
