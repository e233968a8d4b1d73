"""Resilience curves and the recovery-duration threshold.

The resilience curve s(x) is the probability that an outage is restored
within x hours, mixing the per-interval duration cdfs by how much failure
mass each interval carries.  The threshold d0 sits where the curve bends
hardest (largest-magnitude second derivative), and splits restorations
into an infant share (below d0) and an aging share (above it).
"""

from dataclasses import dataclass

import numpy as np

from .rates import RateFunction
from .weibull import DurationModel, interval_of

__all__ = [
    "interval_weights",
    "ThresholdPick",
    "pick_threshold",
    "ResilienceCurve",
    "resilience_curve",
    "resilience_at",
    "infant_aging_split",
]

_BALANCE = 0.10


def interval_weights(source, boundaries) -> np.ndarray:
    """Failure-mass weight of each interval, summing to 1.

    source is either an intensity (weights are its normalized integrals
    over the intervals) or an array of failure times (empirical fractions,
    with out-of-range times clamped into the end intervals, as
    DurationModel.interval_index does).
    """
    b = np.asarray(boundaries, dtype=float)
    if len(b) < 2 or not np.all(np.diff(b) > 0.0):
        raise ValueError("boundaries must be strictly increasing, length >= 2")
    if isinstance(source, RateFunction):
        masses = np.array([source.integral(b[i], b[i + 1]) for i in range(len(b) - 1)])
        total = masses.sum()
        if total <= 0.0:
            raise ValueError("degenerate intensity: no failure mass over the intervals")
        return masses / total
    t = np.asarray(source, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("need a nonempty array of failure times")
    if not np.all(np.isfinite(t)):
        raise ValueError("failure times must be finite")
    idx = interval_of(b, t)
    counts = np.bincount(idx, minlength=len(b) - 1).astype(float)
    return counts / counts.sum()


@dataclass(frozen=True, eq=False)
class ThresholdPick:
    """Outcome of the knee search on a resilience curve."""

    d0: float
    shape: str  # "concave", "convex", or "indeterminate"
    candidates: tuple[float, float]  # (concave pick, convex pick)
    grid: np.ndarray
    second_derivative: np.ndarray  # on grid[1:-1]


def _smooth(values: np.ndarray, window: int) -> np.ndarray:
    """Mean of values[i - r : i + r + 1] at each i, r = window // 2, cut at the ends."""
    if window <= 1:
        return values
    r = window // 2
    n = len(values)
    i = np.arange(n)
    counts = np.minimum(n, i + r + 1) - np.maximum(0, i - r)
    # each window is summed on its own: differences of one cumulative sum
    # would lose a small window's digits after a large prefix
    return np.convolve(values, np.ones(2 * r + 1))[r:r + n] / counts


def check_smoothing(smoothing: int, points: int) -> None:
    """Raise ValueError unless a moving-average window of `smoothing` fits a
    curve of `points` points (0 and 1 leave the curve as it is)."""
    if not 0 <= smoothing <= points:
        raise ValueError(f"smoothing window {smoothing} must lie in [0, {points}], "
                         "the curve's point count")


def pick_threshold(grid, values, smoothing: int = 5) -> ThresholdPick:
    """Locate the recovery-duration threshold d0 on a resilience curve.

    The curve is optionally smoothed by a truncated moving average, the
    second derivative is taken by central differences on the interior
    points (the two boundary points are excluded), and d0 is the point of
    largest-magnitude curvature: the most negative for a concave curve,
    the most positive for a convex one.  When the positive and negative
    curvature masses balance within 10% the shape is indeterminate and
    both candidates are reported (d0 falls to the stronger one).
    """
    x = np.asarray(grid, dtype=float)
    s = np.asarray(values, dtype=float)
    if x.shape != s.shape or x.ndim != 1:
        raise ValueError("grid and values must be equal-length 1-d arrays")
    if len(x) < 5:
        raise ValueError("need at least five grid points")
    if not np.all(np.diff(x) > 0.0):
        raise ValueError("grid must be strictly increasing")
    check_smoothing(smoothing, len(x))
    sm = _smooth(s, smoothing)
    h0 = np.diff(x)[:-1]
    h1 = np.diff(x)[1:]
    sdd = 2.0 * (
        sm[:-2] / (h0 * (h0 + h1))
        - sm[1:-1] / (h0 * h1)
        + sm[2:] / (h1 * (h0 + h1))
    )
    interior = x[1:-1]
    neg_mass = float(-sdd[sdd < 0.0].sum())
    pos_mass = float(sdd[sdd > 0.0].sum())
    total = neg_mass + pos_mass
    concave_pick = float(interior[int(np.argmin(sdd))])
    convex_pick = float(interior[int(np.argmax(sdd))])
    if total <= 0.0 or abs(pos_mass - neg_mass) <= _BALANCE * total:
        shape = "indeterminate"
        d0 = concave_pick if abs(sdd.min()) >= abs(sdd.max()) else convex_pick
    elif neg_mass > pos_mass:
        shape = "concave"
        d0 = concave_pick
    else:
        shape = "convex"
        d0 = convex_pick
    return ThresholdPick(
        d0=d0,
        shape=shape,
        candidates=(concave_pick, convex_pick),
        grid=x,
        second_derivative=sdd,
    )


@dataclass(frozen=True, eq=False)
class ResilienceCurve(ThresholdPick):
    """Resilience curve with its threshold diagnostics."""

    values: np.ndarray
    weights: np.ndarray
    s_at_d0: float


def resilience_curve(
    weights,
    model: DurationModel,
    grid,
    smoothing: int = 5,
) -> ResilienceCurve:
    """Weighted mixture of per-interval duration cdfs, with threshold.

    weights must give one nonnegative value per model interval, summing
    to 1; the curve is evaluated on the given duration grid and the
    threshold is picked from it.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (model.n_intervals,):
        raise ValueError("one weight per duration-model interval required")
    if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError("weights must be nonnegative and sum to 1")
    x = np.asarray(grid, dtype=float)
    if len(x) < 5 or not np.all(np.diff(x) > 0.0):
        raise ValueError("grid must be ascending with at least 5 points")
    if x[0] != 0.0:
        raise ValueError("grid must start at 0")
    s = np.zeros_like(x)
    for wi, mix in zip(w, model.mixtures):
        if wi > 0.0:
            s += wi * mix.cdf(x)
    pick = pick_threshold(x, s, smoothing)
    return ResilienceCurve(**vars(pick), values=s, weights=w,
                           s_at_d0=resilience_at(x, s, pick.d0))


def resilience_at(grid, values, x: float) -> float:
    """Linear interpolation of the curve; x must lie inside the grid."""
    g = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if not g[0] <= x <= g[-1]:
        raise ValueError(f"x={x} outside the curve range [{g[0]}, {g[-1]}]")
    return float(np.interp(x, g, v))


def infant_aging_split(model: DurationModel, d0: float) -> tuple[tuple[float, float], ...]:
    """Per-interval (restored within d0, still out beyond d0) fractions."""
    if not d0 > 0.0:
        raise ValueError("d0 must be > 0")
    out = []
    for mix in model.mixtures:
        c = float(mix.cdf(d0))
        out.append((c, 1.0 - c))
    return tuple(out)
