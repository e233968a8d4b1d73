"""Estimation and goodness-of-fit for the failure process.

estimate_rate turns raw event times into a moving-average intensity on a
regular grid.  pearson_nhpp_test checks Poissonness of interval counts
against that intensity, qq_points supports a time-rescaling diagnostic,
and reconstruct rebuilds the expected simultaneously-failed curve from a
fitted intensity plus a duration model.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .rates import RateFunction
from .recovery import CLAMP_WARN_TOL, DEFAULT_QUAD_STEP, expected_recovered, recovery_rate_curve
from .weibull import DurationModel

__all__ = [
    "regular_grid",
    "RateEstimate",
    "estimate_rate",
    "PearsonTestResult",
    "pearson_nhpp_test",
    "reject_decision",
    "format_triple",
    "qq_points",
    "Reconstruction",
    "reconstruct",
]


_MAX_GRID_POINTS = 10**7


def regular_grid(limit: float, step: float) -> np.ndarray:
    """0, step, 2 step, ..., then limit itself if the steps fall short of it.

    Step and limit must be finite and positive, and the grid may hold at
    most 10^7 points; both are checked before anything is allocated.
    """
    if not (np.isfinite(step) and np.isfinite(limit)):
        raise ValueError("grid step and extent must be finite")
    if step <= 0.0 or limit <= 0.0:
        raise ValueError("grid step and extent must be positive")
    if limit / step > _MAX_GRID_POINTS:
        raise ValueError(f"a grid of {limit / step:.3g} points exceeds the "
                         f"limit of {_MAX_GRID_POINTS:.0e}")
    n = int(np.floor(limit / step + 1e-9))
    g = np.arange(n + 1, dtype=float) * step
    if g[-1] < limit - 1e-9:
        g = np.append(g, limit)
    return g


@dataclass(frozen=True, eq=False)
class RateEstimate:
    """Moving-average intensity estimate on a regular grid."""

    grid: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        if g.shape != r.shape or g.ndim != 1 or len(g) < 1:
            raise ValueError("grid and rates must be equal-length 1-d arrays")
        if np.any(r < 0.0):
            raise ValueError("estimated rates must be >= 0")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "rates", r)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def to_rate_function(self) -> RateFunction:
        if len(self.grid) == 1:
            return RateFunction.constant(float(self.rates[0]), max(self.horizon, 1e-9))
        knots = tuple((float(t), float(v)) for t, v in zip(self.grid, self.rates))
        return RateFunction(knots=knots, horizon=self.horizon)


def estimate_rate(
    event_times,
    window: float = 5.0,
    bin_width: float = 1.0,
    horizon: float | None = None,
) -> RateEstimate:
    """Centered moving-average intensity from event times.

    At each grid point t the events in (t - window, t + window] are counted
    and divided by the window length; near the edges the window truncates
    to [0, horizon] and the divisor shrinks with it.  The grid runs from 0
    to the horizon in bin_width steps (the horizon defaults to the last
    event time rounded up to a whole bin); see regular_grid for its limits.
    """
    if not (window > 0.0 and bin_width > 0.0):
        raise ValueError("window and bin_width must be positive")
    t = np.sort(np.asarray(event_times, dtype=float))
    if len(t) == 0:
        if horizon is None:
            raise ValueError("horizon required when there are no events")
        warnings.warn("no events: returning an all-zero intensity", stacklevel=2)
    elif np.any(t < 0.0):
        raise ValueError("event times must be >= 0")
    if horizon is None:
        horizon = float(np.ceil(t[-1] / bin_width) * bin_width)
        horizon = max(horizon, bin_width)
    if len(t) and t[-1] > horizon + 1e-9:
        raise ValueError("events beyond the horizon")
    grid = regular_grid(horizon, bin_width)
    lo = np.maximum(grid - window, 0.0)
    hi = np.minimum(grid + window, horizon)
    counts = np.searchsorted(t, hi, side="right") - np.searchsorted(t, lo, side="right")
    span = hi - lo
    rates = np.where(span > 0.0, counts / np.where(span > 0.0, span, 1.0), 0.0)
    return RateEstimate(grid=grid, rates=rates)


@dataclass(frozen=True, eq=False)
class PearsonTestResult:
    """Chi-square Poissonness test over equal failure-time intervals.

    observed[j] counts intervals containing exactly j events; expected[j]
    sums the Poisson pmf at j over intervals (the tail above the largest
    observed count is folded into the last cell, so both tables sum to the
    interval count).  The statistic is computed on cells pooled to an
    expected count of at least 1.
    """

    chi_square: float
    dof: int
    threshold: float
    rejected: bool
    alpha: float
    n_intervals: int
    observed: tuple[int, ...]
    expected: tuple[float, ...]
    pooled_observed: tuple[int, ...]
    pooled_expected: tuple[float, ...]

    def triple(self) -> str:
        return format_triple(self.chi_square, self.dof, self.threshold)


def format_triple(chi_square: float, dof: int, threshold: float) -> str:
    return f"({chi_square:.2f}, {dof}, {threshold:.2f})"


def reject_decision(chi_square: float, threshold: float) -> bool:
    """Standard rejection rule: reject iff the statistic exceeds the quantile."""
    return chi_square > threshold


def _as_rate_function(rate) -> RateFunction:
    if isinstance(rate, RateEstimate):
        return rate.to_rate_function()
    if isinstance(rate, RateFunction):
        return rate
    raise TypeError(f"expected RateFunction or RateEstimate, got {type(rate).__name__}")


def pearson_nhpp_test(
    event_times,
    rate,
    n_intervals: int = 400,
    alpha: float = 0.05,
) -> PearsonTestResult:
    """Pearson chi-square test of the NHPP hypothesis.

    Splits [0, horizon] into n_intervals equal intervals, tabulates how
    many intervals hold j = 0..k events (k the largest count), and compares
    against Poisson expectations under the integrated intensity.  Degrees
    of freedom follow the k - 2 accounting (one fitted parameter), reduced
    when pooling merges cells; a table that pools down to three or fewer
    cells carries no usable degrees of freedom and is rejected as input.
    """
    if n_intervals < 10:
        raise ValueError("need at least 10 intervals")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rf = _as_rate_function(rate)
    t = np.sort(np.asarray(event_times, dtype=float))
    if len(t) == 0:
        raise ValueError("no events to test")
    if t[0] < 0.0 or t[-1] > rf.horizon + 1e-9:
        raise ValueError("events outside [0, horizon]")
    edges = np.linspace(0.0, rf.horizon, n_intervals + 1)
    counts, _ = np.histogram(t, bins=edges)
    k = int(counts.max())
    observed = np.bincount(counts, minlength=k + 1).astype(int)
    mu = np.diff(rf.cumulative(edges))
    j = np.arange(k + 1)
    # the Poisson pmf, P(X >= k) and chi-square quantile below are the
    # formulas scipy.stats evaluates; scipy.special is imported here, not at
    # module level, so that only this test pays for loading scipy
    from scipy import special

    pmf = np.exp(special.xlogy(j[:, None], mu) - special.gammaln(j[:, None] + 1) - mu)
    expected = pmf.sum(axis=1)
    if k >= 1:
        expected[k] = np.sum(special.pdtrc(k - 1, mu))
    else:
        expected[0] = float(n_intervals)

    pooled_o: list[int] = []
    pooled_e: list[float] = []
    acc_o, acc_e = 0, 0.0
    for jj in range(k + 1):
        acc_o += int(observed[jj])
        acc_e += float(expected[jj])
        if acc_e >= 1.0:
            pooled_o.append(acc_o)
            pooled_e.append(acc_e)
            acc_o, acc_e = 0, 0.0
    if acc_e > 0.0 or acc_o > 0:
        if pooled_e:
            pooled_o[-1] += acc_o
            pooled_e[-1] += acc_e
        else:
            pooled_o, pooled_e = [acc_o], [acc_e]

    chi = float(sum((o - e) ** 2 / e for o, e in zip(pooled_o, pooled_e)))
    dof = len(pooled_e) - 3
    if dof < 1:
        raise ValueError("insufficient outcome diversity")
    threshold = float(2.0 * special.gammaincinv(dof / 2, 1.0 - alpha))
    return PearsonTestResult(
        chi_square=chi,
        dof=dof,
        threshold=threshold,
        rejected=reject_decision(chi, threshold),
        alpha=alpha,
        n_intervals=n_intervals,
        observed=tuple(int(x) for x in observed),
        expected=tuple(float(x) for x in expected),
        pooled_observed=tuple(pooled_o),
        pooled_expected=tuple(pooled_e),
    )


def qq_points(event_times, rate) -> tuple[np.ndarray, np.ndarray]:
    """Time-rescaling QQ coordinates (theoretical, empirical).

    Event times are rescaled through the integrated intensity; under a
    correct model the rescaled inter-arrivals are unit exponentials.  The
    empirical side is the sorted rescaled gaps, the theoretical side the
    Exp(1) quantiles at plotting positions (i - 0.5) / n.
    """
    rf = _as_rate_function(rate)
    t = np.sort(np.asarray(event_times, dtype=float))
    n = len(t)
    if n < 10:
        raise ValueError("need at least 10 events")
    if t[0] < 0.0 or t[-1] > rf.horizon + 1e-9:
        raise ValueError("events outside [0, horizon]")
    z = rf.cumulative(t)
    gaps = np.diff(np.concatenate(([0.0], z)))
    empirical = np.sort(gaps)
    p = (np.arange(1, n + 1) - 0.5) / n
    theoretical = -np.log1p(-p)
    return theoretical, empirical


@dataclass(frozen=True, eq=False)
class Reconstruction:
    """Expected simultaneously-failed curve rebuilt from fitted inputs."""

    grid: np.ndarray
    failure_rate: np.ndarray
    recovery_rate: np.ndarray
    expected_out: np.ndarray


def reconstruct(
    rate,
    model: DurationModel,
    grid=None,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> Reconstruction:
    """Rebuild the expected outage curve N(t) from a fitted intensity.

    The failure side is integrated exactly (piecewise-linear cumulative).
    The recovery rate and the expected recoveries come from one lattice
    pass each over the whole grid (recovery_rate_curve, expected_recovered):
    per duration interval, the failure intensity on that interval's cells
    convolved with the interval's duration law on a lattice of step
    quad_step; knots and boundaries off the lattice split their cells.  A
    grid time t off the lattice gets a pass of its own, of step
    t / max(1, round(t / quad_step)).  N is cum_f - cum_r; tiny negative
    excursions from quadrature noise are clamped at zero (with a warning
    beyond CLAMP_WARN_TOL).
    """
    rf = _as_rate_function(rate)
    if grid is None:
        if isinstance(rate, RateEstimate):
            grid = rate.grid
        else:
            n = max(1, int(np.ceil(rf.horizon)))
            grid = np.linspace(0.0, rf.horizon, n + 1)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be increasing with at least two points")
    if grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    if grid[-1] > rf.horizon + 1e-9:
        raise ValueError("grid extends beyond the intensity horizon")
    lam_r = recovery_rate_curve(rf, model, grid, quad_step)
    raw = rf.cumulative(grid) - expected_recovered(rf, model, grid, quad_step)
    if np.any(raw < -CLAMP_WARN_TOL):
        warnings.warn(
            f"expected outage curve dips to {raw.min():.3g} < 0; clamped",
            RuntimeWarning,
            stacklevel=2,
        )
    return Reconstruction(
        grid=grid,
        failure_rate=rf.value(grid),
        recovery_rate=lam_r,
        expected_out=np.maximum(raw, 0.0),
    )
