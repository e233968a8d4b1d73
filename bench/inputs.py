"""Seeded input generators for the benchmark workloads.

Each generator returns the file text the program reads plus the counts the
benchmark expects back, worked out here independently of the program, so a
run can check the program's provenance accounting exactly.  The same seed
always gives the same bytes.
"""

import json
from datetime import datetime, timedelta

import numpy as np

# Storm feed shaped like the test suite's synthetic file: 5152 raw rows,
# 2005 of them inside the 45-hour window, collapsing to 465 same-minute
# entities of which 2 carry negative durations, leaving 463 clean events.
STORM_WINDOW = ("2008-09-12T07:00", "2008-09-14T04:00")
STORM_BOUNDARIES = "0,12,20,28,36,45"
STORM_COMPONENTS = "2,2,2,2,2"
STORM_PROVENANCE = {
    "raw": 5152, "malformed": 0, "window_dropped": 3147,
    "merged": 1540, "negative_dropped": 2, "emitted": 463,
}
# Per-interval log-likelihoods that model.json reports for the storm's
# fixed sample (fit seed 11, 5 starts), recorded from the program at the
# commit that added the benchmark; a change meant to alter fitted results
# updates them.
STORM_LOGLIK = (-527.972414, -366.682065, -412.006571, -391.204562, -495.927355)
# The in-window rows always come from this seed, the test suite's storm.
# EM's iteration count on 463 events swings several-fold from one sample
# to the next (fit time 0.7-3.6 s over seeds 0-39), which no run length
# can average out; with the fitted sample fixed, the seed still shapes the
# out-of-window rows, the row order and the Monte Carlo draws.
_STORM_SAMPLE_SEED = 20080912
# Bulk feed: 100k rows over a 30-day window in three 10-day intervals.
BULK_WINDOW = ("2011-08-26T00:00", "2011-09-25T00:00")
BULK_BOUNDARIES = "0,240,480,720"
BULK_COMPONENTS = "3,3,3"
BULK_ROWS = 100_000
_BULK_MALFORMED = 400
_BULK_OUTSIDE = 1_600
_BULK_NEGATIVE_SHARE = 0.002
# restoration mixtures per 10-day interval: (weight, scale h, shape); well
# separated, so EM converges in a handful of iterations and the fit's cost
# is per-iteration array work over ~13k points
_BULK_MIXTURES = (
    ((0.30, 0.5, 1.5), (0.40, 8.0, 2.5), (0.30, 80.0, 3.0)),
    ((0.25, 0.7, 1.6), (0.45, 10.0, 2.4), (0.30, 70.0, 3.2)),
    ((0.35, 0.4, 1.4), (0.35, 6.0, 2.6), (0.30, 90.0, 2.8)),
)

# Reference restoration mixtures of the five storm intervals, the same
# constants the test suite's acceptance gate uses.
_REFERENCE_COMPONENTS = (
    ((0.486, 0.710, 1.000), (0.257, 14.400, 10.533), (0.257, 211.830, 10.679)),
    ((0.321, 2.680, 0.370), (0.206, 7.640, 2.910), (0.019, 21.220, 46.230), (0.454, 173.580, 3.090)),
    ((0.143, 0.530, 2.500), (0.472, 12.300, 15.201), (0.385, 135.072, 4.424)),
    ((0.323, 11.041, 5.310), (0.677, 112.245, 12.398)),
    ((0.273, 2.479, 0.987), (0.159, 21.555, 1.702), (0.568, 134.053, 5.070)),
)
_REFERENCE_BOUNDARIES = (0.0, 12.0, 20.0, 28.0, 36.0, 45.0)
# storm-shaped failure intensity (events/h): a 45-hour surge, then a
# day-to-day base rate out to the 240-hour horizon
_SCENARIO_KNOTS = (
    (0.0, 2.0), (4.0, 9.0), (9.0, 24.0), (14.0, 30.0), (20.0, 17.0),
    (28.0, 9.0), (36.0, 5.0), (45.0, 3.0), (240.0, 3.0),
)
_SCENARIO_HORIZON = 240.0


def _csv(rows) -> str:
    lines = ["id,timestamp,duration_hours"]
    lines += [f"{i},{ts},{d}" for i, ts, d in rows]
    return "\n".join(lines) + "\n"


def storm_raw_csv(seed: int) -> tuple[str, dict]:
    """The storm feed for one seed and its expected provenance counts."""
    sample = np.random.default_rng(_STORM_SAMPLE_SEED)
    start = datetime.fromisoformat(STORM_WINDOW[0])
    end = datetime.fromisoformat(STORM_WINDOW[1])
    window_minutes = int((end - start).total_seconds() // 60)

    # 465 distinct in-window minutes: 2 negative-duration singletons plus
    # 463 positive buckets holding 2003 records (151 of size 5, 312 of 4)
    minutes = np.sort(sample.choice(window_minutes, size=465, replace=False))
    sizes = np.asarray([1, 1] + [5] * 151 + [4] * 312)
    sample.shuffle(sizes)
    neg_slots = np.flatnonzero(sizes == 1)[:2]
    rows = []
    for slot, (minute, size) in enumerate(zip(minutes, sizes)):
        ts = (start + timedelta(minutes=int(minute))).isoformat(timespec="minutes")
        if slot in neg_slots:
            durations = [-0.5 if slot == neg_slots[0] else -1.0]
        else:
            durations = np.round(sample.gamma(2.0, 20.0, size=size), 2).tolist()
        rows.extend((f"ENT{len(rows):05d}", ts, d) for d in durations)

    # 3147 rows outside the window, split before and after
    rng = np.random.default_rng(seed)
    before = start - timedelta(hours=7)
    for i in range(1573):
        ts = before + timedelta(minutes=int(rng.integers(0, 7 * 60)))
        rows.append((f"PRE{i:05d}", ts.isoformat(timespec="minutes"), float(np.round(rng.gamma(2.0, 20.0), 2))))
    for i in range(1574):
        ts = end + timedelta(minutes=int(rng.integers(0, 20 * 60)))
        rows.append((f"POST{i:05d}", ts.isoformat(timespec="minutes"), float(np.round(rng.gamma(2.0, 20.0), 2))))
    if len(rows) != STORM_PROVENANCE["raw"]:
        raise RuntimeError(f"storm generator made {len(rows)} rows")
    order = rng.permutation(len(rows))
    return _csv(rows[i] for i in order), dict(STORM_PROVENANCE)


def bulk_raw_csv(seed: int) -> tuple[str, dict, list[float]]:
    """The 100k-row bulk feed for one seed, its expected provenance and
    the per-interval log-likelihood under the generating mixtures.

    In-window rows land on uniformly drawn minutes, so about 2.3 rows share
    each occupied minute and the feed collapses to roughly 39k events.
    The expected counts come from a numpy group-by of the same draws.
    """
    rng = np.random.default_rng(seed)
    start = datetime.fromisoformat(BULK_WINDOW[0])
    end = datetime.fromisoformat(BULK_WINDOW[1])
    window_minutes = int((end - start).total_seconds() // 60)
    n_in = BULK_ROWS - _BULK_MALFORMED - _BULK_OUTSIDE

    # one restoration duration per occupied minute, drawn from that
    # interval's mixture; the minute's first row carries it and the other
    # rows shorter ones, so grouping by "max" recovers the mixture sample
    minute = rng.integers(0, window_minutes, size=n_in)
    order = np.argsort(minute, kind="stable")
    sm = minute[order]
    opens = np.concatenate(([True], np.diff(sm) > 0))
    first, bucket = np.flatnonzero(opens), np.cumsum(opens) - 1
    interval = np.minimum(sm[first] // (240 * 60), len(_BULK_MIXTURES) - 1)
    u_comp, u_dur = rng.random(len(first)), rng.random(len(first))
    lead = np.empty(len(first))
    for i, comps in enumerate(_BULK_MIXTURES):
        m = interval == i
        w, g, k = (np.asarray(c) for c in zip(*comps))
        c = np.minimum(np.searchsorted(np.cumsum(w), u_comp[m], side="right"), len(w) - 1)
        lead[m] = g[c] * (-np.log1p(-u_dur[m])) ** (1.0 / k[c])
    sd = lead[bucket] * rng.random(n_in)
    sd[first] = lead
    dur = np.empty(n_in)
    dur[order] = np.round(sd, 2)
    negative = rng.random(n_in) < _BULK_NEGATIVE_SHARE
    dur[negative] = -np.round(1.0 + rng.random(int(negative.sum())), 2)

    # expected accounting: group by minute under the "max" rule
    bucket_max = np.maximum.reduceat(dur[order], first)
    negatives = int((bucket_max < 0.0).sum())
    expected = {
        "raw": BULK_ROWS, "malformed": _BULK_MALFORMED, "window_dropped": _BULK_OUTSIDE,
        "merged": n_in - len(first), "negative_dropped": negatives,
        "emitted": len(first) - negatives,
    }
    kept = bucket_max >= 0.0
    loglik = _generating_loglik(bucket_max[kept], interval[kept])

    base = np.datetime64(BULK_WINDOW[0], "m")
    stamps = np.datetime_as_string(base + minute.astype("timedelta64[m]"), unit="m")
    rows = [(f"F{i:06d}", ts, float(d)) for i, (ts, d) in enumerate(zip(stamps, dur))]
    outside = rng.integers(1, 3 * 24 * 60, size=_BULK_OUTSIDE)
    for i, off in enumerate(outside):
        ts = (start - timedelta(minutes=int(off))) if i % 2 else (end + timedelta(minutes=int(off) - 1))
        rows.append((f"X{i:06d}", ts.isoformat(timespec="minutes"), 1.0))
    bad_ts = ("2011-13-01T00:00", "2011-09-31T25:00", "yesterday")
    for i in range(_BULK_MALFORMED):
        kind = i % 4
        if kind == 0:
            rows.append((f"M{i:06d}", bad_ts[i % 3], 1.0))
        elif kind == 1:
            rows.append((f"M{i:06d}", "2011-09-01T12:00", "n/a"))
        elif kind == 2:
            rows.append((f"M{i:06d}", "", 1.0))
        else:
            rows.append((f"M{i:06d}", "2011-09-01T12:00", "inf"))
    order = rng.permutation(len(rows))
    return _csv(rows[i] for i in order), expected, loglik


def _generating_loglik(durations: np.ndarray, interval: np.ndarray) -> list[float]:
    """Log-likelihood of each interval's emitted durations under its generating mixture.

    The durations are taken as the fit takes them, with zeros moved to
    1/120 h.  Maximum likelihood can only do better on the same sample, so
    this is a floor for the fitted log-likelihood of every seed.
    """
    d = np.where(durations == 0.0, 1.0 / 120.0, durations)
    out = []
    for i, comps in enumerate(_BULK_MIXTURES):
        logd = np.log(d[interval == i])[:, None]
        w, g, k = (np.asarray(c)[None, :] for c in zip(*comps))
        u = logd - np.log(g)
        joint = np.log(w) + np.log(k) - np.log(g) + (k - 1.0) * u - np.exp(k * u)
        out.append(float(np.logaddexp.reduce(joint, axis=1).sum()))
    return out


def scenario_model_json() -> str:
    """The fixed scenario model file: reference mixtures, 240 h intensity."""
    payload = {
        "rate": {"knots": [list(k) for k in _SCENARIO_KNOTS], "horizon": _SCENARIO_HORIZON},
        "durations": {
            "boundaries": list(_REFERENCE_BOUNDARIES),
            "mixtures": [{"components": [list(c) for c in comps]} for comps in _REFERENCE_COMPONENTS],
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
