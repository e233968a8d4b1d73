"""Shared fixtures: reference mixtures and a synthetic raw-record file."""

import numpy as np
import pytest
from hypothesis import settings

from gridres import DurationModel, WeibullMixture

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
