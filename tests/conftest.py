"""Shared fixtures: reference mixtures, a synthetic raw-record file, the
replica-at-a-time sampling route that serves as the block route's oracle,
one mixture's inverse-cdf sampler, the one-run M-step, and the clamped
piece lookups that RateFunction and interval_of are checked against."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from gridres import DurationModel, RateFunction, WeibullMixture
from gridres.fitting import _bound_flags, _moments, _newton_shapes, _Rows
from gridres.simulate import _check_expected, _first_of_ties, _unit_levels

# property tests draw their examples from a fixed seed and keep no example
# database, so every run of the suite checks the same cases
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Reference restoration mixtures for the five failure-time intervals of the
# benchmark storm window (weight, scale gamma in hours, shape k), with the
# recorded restored-within-13-hours fractions used as regression targets.
REFERENCE_COMPONENTS = (
    ((0.486, 0.710, 1.000), (0.257, 14.400, 10.533), (0.257, 211.830, 10.679)),
    ((0.321, 2.680, 0.370), (0.206, 7.640, 2.910), (0.019, 21.220, 46.230), (0.454, 173.580, 3.090)),
    ((0.143, 0.530, 2.500), (0.472, 12.300, 15.201), (0.385, 135.072, 4.424)),
    ((0.323, 11.041, 5.310), (0.677, 112.245, 12.398)),
    ((0.273, 2.479, 0.987), (0.159, 21.555, 1.702), (0.568, 134.053, 5.070)),
)
REFERENCE_P13 = (0.5599, 0.4716, 0.5689, 0.2927, 0.3260)
REFERENCE_BOUNDARIES = (0.0, 12.0, 20.0, 28.0, 36.0, 45.0)


def reference_mixture(i: int) -> WeibullMixture:
    return WeibullMixture(components=REFERENCE_COMPONENTS[i])


def reference_model() -> DurationModel:
    return DurationModel(
        boundaries=REFERENCE_BOUNDARIES,
        mixtures=tuple(WeibullMixture(components=c) for c in REFERENCE_COMPONENTS),
    )


@pytest.fixture
def ref_model() -> DurationModel:
    return reference_model()


# One mixture's sampler: the per-interval oracle of
# DurationModel.from_uniforms.

def mixture_from_uniforms(mix: WeibullMixture, u_comp, u_dur) -> np.ndarray:
    """Durations from paired uniforms on [0, 1).

    u_comp picks each draw's component by cumulative weight; u_dur
    inverts that component's cdf exactly.
    """
    comp = np.searchsorted(np.cumsum(mix._w), u_comp, side="right")
    comp = np.clip(comp, 0, mix.n_components - 1)
    return mix._g[comp] * (-np.log1p(-u_dur)) ** (1.0 / mix._k[comp])


def sample_mixture(mix: WeibullMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n durations: n component uniforms, then n duration uniforms."""
    if n < 0:
        raise ValueError("n must be >= 0")
    u_comp = rng.random(n)
    return mixture_from_uniforms(mix, u_comp, rng.random(n))


def _mstep_shapes(logd: np.ndarray, resp: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Weighted Weibull MLE for every component of one run, warm-started at `k`.

    `resp` has one row per component, (c, n).  EM runs the same solve
    (gridres.fitting._newton_shapes) on every live run at once; this is
    that solve on one run alone.
    """
    rows = _Rows([(logd, _moments(logd))], [0])
    resp = resp[None]
    g, k = _newton_shapes(rows, resp, rows.sum(resp), np.asarray(k, dtype=float)[None])
    return g[0], k[0], _bound_flags(k)[0]


# Synthetic raw-record file shaped like the benchmark storm feed: 5152 rows,
# 2005 inside the 45-hour observation window, collapsing to 465 same-minute
# entities of which 2 carry negative durations, leaving 463 clean events.
WINDOW_START = "2008-09-12T07:00"
WINDOW_END = "2008-09-14T04:00"


def make_raw_csv(seed: int = 20080912) -> str:
    from datetime import datetime, timedelta

    rng = np.random.default_rng(seed)
    start = datetime.fromisoformat(WINDOW_START)
    end = datetime.fromisoformat(WINDOW_END)
    window_minutes = int((end - start).total_seconds() // 60)  # 2700

    # 465 distinct in-window minutes: 2 negative-duration singletons plus
    # 463 positive buckets holding 2003 records (151 of size 5, 312 of 4)
    minutes = rng.choice(window_minutes, size=465, replace=False)
    minutes.sort()
    sizes = np.asarray([1, 1] + [5] * 151 + [4] * 312)
    rng.shuffle(sizes)
    neg_slots = np.flatnonzero(sizes == 1)[:2]

    rows = []
    entity = 0
    for slot, (minute, size) in enumerate(zip(minutes, sizes)):
        ts = start + timedelta(minutes=int(minute))
        if slot in neg_slots:
            durations = [-0.5 if slot == neg_slots[0] else -1.0]
        else:
            durations = np.round(rng.gamma(2.0, 20.0, size=size), 2).tolist()
        for d in durations:
            rows.append((f"ENT{entity:05d}", ts.isoformat(timespec="minutes"), d))
            entity += 1
    assert sum(sizes) == 2005

    # 3147 rows outside the window, split before and after
    before = start - timedelta(hours=7)
    after = end
    for i in range(1573):
        ts = before + timedelta(minutes=int(rng.integers(0, 7 * 60)))
        rows.append((f"PRE{i:05d}", ts.isoformat(timespec="minutes"), float(np.round(rng.gamma(2.0, 20.0), 2))))
    for i in range(1574):
        ts = after + timedelta(minutes=int(rng.integers(0, 20 * 60)))
        rows.append((f"POST{i:05d}", ts.isoformat(timespec="minutes"), float(np.round(rng.gamma(2.0, 20.0), 2))))
    assert len(rows) == 5152

    rng.shuffle(rows)
    lines = ["id,timestamp,duration_hours"]
    lines += [f"{r[0]},{r[1]},{r[2]}" for r in rows]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def raw_csv_text() -> str:
    return make_raw_csv()


# Reference piece lookups: the value and the cumulative's end point
# interpolated on the knots themselves, and every piece index a search of
# all edges, less one, clamped to the table.  RateFunction and interval_of
# search the inner edges alone and must give the same bits.

def _knot_table(rate: RateFunction) -> tuple[np.ndarray, np.ndarray]:
    return (np.asarray([k[0] for k in rate.knots], dtype=float),
            np.asarray([k[1] for k in rate.knots], dtype=float))


def rate_value_oracle(rate: RateFunction, t):
    arr = np.asarray(t, dtype=float)
    rate._check_domain(arr)
    out = np.interp(arr, *_knot_table(rate))
    return float(out) if np.isscalar(t) else out


def rate_cumulative_oracle(rate: RateFunction, t):
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    rate._check_domain(arr)
    clipped = np.clip(arr, 0.0, rate.horizon)
    idx = np.clip(np.searchsorted(rate._bt, clipped, side="right") - 1, 0, len(rate._bt) - 2)
    seg = (clipped - rate._bt[idx]) * (0.5 * rate._bv[idx]
                                       + 0.5 * np.interp(clipped, *_knot_table(rate)))
    out = rate._cum[idx] + seg
    return float(out[0]) if np.isscalar(t) else out


def rate_inverse_cumulative_oracle(rate: RateFunction, levels) -> np.ndarray:
    u = np.atleast_1d(np.asarray(levels, dtype=float))
    k = np.clip(np.searchsorted(rate._cum, u, side="right") - 1, 0, len(rate._bt) - 2)
    du = (u - rate._cum[k]) * (1.0 / rate._unit)
    b = rate._bv_units[k]
    den = np.sqrt(np.maximum(rate._slope_units[k] * 2.0 * du + b * b, 0.0)) + b
    x = np.divide(2.0 * du, den, out=np.zeros_like(du), where=den > 0.0)
    return np.clip(x + rate._bt[k], rate._bt[k], rate._bt[k + 1]).reshape(np.shape(levels))


def interval_of_oracle(boundaries, t) -> np.ndarray:
    b = np.asarray(boundaries, dtype=float)
    idx = np.searchsorted(b, np.atleast_1d(np.asarray(t, dtype=float)), side="right") - 1
    return np.clip(idx, 0, len(b) - 2)


# The replica-at-a-time route: one replica's failure times, its durations
# and its counting processes, each drawn or counted on its own.  The
# package draws through gridres.simulate's block route; these make the
# same draws in the same order, so tests hold the two bit for bit equal.

def sample_nhpp(rate: RateFunction, rng: np.random.Generator) -> np.ndarray:
    """Failure times on [0, horizon] by inverting the cumulative intensity at
    sorted uniform levels; strictly increasing.

    Draws the count, then n + 1 exponentials.  Raises ValueError before any
    draw if the intensity's integral exceeds 10^7 expected events.
    """
    _check_expected(rate)
    levels = _unit_levels(rng, np.empty(rng.poisson(rate.total) + 1))
    levels *= rate.total
    times = rate.inverse_cumulative(levels, out=levels)
    keep = _first_of_ties(times, [len(times)])
    return times if keep is None else times[keep]


def sample_durations(
    times, model: DurationModel, rng: np.random.Generator
) -> np.ndarray:
    """One duration per failure time, from that time's interval mixture.

    Uniform draws are taken in event order before any grouping, so the
    result is independent of how events split across intervals.
    """
    t = np.asarray(times, dtype=float)
    u_comp = rng.random(len(t))
    u_dur = rng.random(len(t))
    return model.from_uniforms(t, u_comp, u_dur)


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Counting processes of one replica.

    n_failed / n_recovered / n_out are right-continuous step functions; a
    jump at exactly t is included in the value at t.  n_out is the exact
    integer difference of the other two at every point.
    """

    failure_times: np.ndarray
    recovery_times: np.ndarray

    def __post_init__(self):
        f = np.sort(np.asarray(self.failure_times, dtype=float))
        r = np.sort(np.asarray(self.recovery_times, dtype=float))
        if len(f) != len(r):
            raise ValueError("every failure needs a recovery time")
        object.__setattr__(self, "failure_times", f)
        object.__setattr__(self, "recovery_times", r)

    def n_failed(self, t):
        return np.searchsorted(self.failure_times, np.asarray(t, dtype=float), side="right")

    def n_recovered(self, t):
        return np.searchsorted(self.recovery_times, np.asarray(t, dtype=float), side="right")

    def n_out(self, t):
        return self.n_failed(t) - self.n_recovered(t)

    @property
    def jump_times(self) -> np.ndarray:
        return np.sort(np.concatenate([self.failure_times, self.recovery_times]))


def build_path(times, durations) -> SamplePath:
    t = np.asarray(times, dtype=float)
    d = np.asarray(durations, dtype=float)
    if t.shape != d.shape:
        raise ValueError("times and durations must have matching lengths")
    if np.any(d < 0.0):
        raise ValueError("durations must be >= 0")
    return SamplePath(failure_times=t, recovery_times=t + d)
