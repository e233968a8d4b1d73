"""Estimation and goodness-of-fit for the failure process.

estimate_rate turns raw event times into a moving-average intensity: a
RateFunction with a knot at each point of a regular grid.  pearson_nhpp_test
checks Poissonness of interval counts against an intensity, qq_points
supports a time-rescaling diagnostic, and reconstruct rebuilds the expected
simultaneously-failed curve from an intensity plus a duration model.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rates import RateFunction
from .recovery import CLAMP_WARN_TOL, DEFAULT_QUAD_STEP, expected_recovered, recovery_rate_curve
from .weibull import DurationModel

__all__ = [
    "regular_grid",
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


def estimate_rate(
    event_times,
    window: float = 5.0,
    bin_width: float = 1.0,
    horizon: float | None = None,
) -> RateFunction:
    """Centered moving-average intensity from event times.

    At each grid point t the events in (t - window, t + window] are counted
    and divided by the window length; near the edges the window truncates
    to [0, horizon] and the divisor shrinks with it.  The grid runs from 0
    to the horizon in bin_width steps (the horizon defaults to the last
    event time rounded up to a whole bin); see regular_grid for its limits.
    Returns the intensity with a knot at each grid point, on [0, the grid's
    end]; a grid of one point, 0, gives a constant intensity on [0, 1e-9].
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
    if len(grid) == 1:
        return RateFunction.constant(float(rates[0]), max(float(grid[-1]), 1e-9))
    return RateFunction(knots=tuple(zip(grid.tolist(), rates.tolist())), horizon=float(grid[-1]))


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


# The Pearson test's Poisson tail and chi-square quantile, on numpy and math alone: for x
# a float or an array, P(a, x) = x^a e^-x / Γ(a + 1) · a series where x < a + 1, and
# Q(a, x) = 1 - P(a, x) = x^a e^-x / Γ(a) · a continued fraction elsewhere (Numerical
# Recipes, 3rd ed., 6.2); the prefactor's rounding is about eps·a·log x (6e-13 at a = 500)
def _series(a: float, x):
    """Σ x^n / ((a+1)...(a+n)) for x < a + 1, until even the largest x's term is < 2^-55."""
    s = term = bound = 1.0
    xmax, m = float(np.max(x, initial=0.0)), a
    while bound > 2.0**-55:
        m += 1.0
        term = term * x / m
        s = s + term
        bound *= xmax / m
    return s


def _continued_fraction(a: float, x):
    """The continued fraction of Q(a, x) for x >= a + 1, by modified Lentz."""
    converged = np.all if isinstance(x, np.ndarray) else bool
    b, c = x + 1.0 - a, math.inf
    h = d = 1.0 / b
    for i in range(1, 1000):
        an, b = -i * (i - a), b + 2.0
        d, c = 1.0 / (an * d + b), b + an / c
        h = h * (c * d)
        if converged(abs(c * d - 1.0) <= 4e-16):
            break
    return h


def _poisson_pmf(k: int, mu: np.ndarray) -> np.ndarray:
    """Poisson pmfs at j = 0..k (rows) for each mu, with 0·log 0 = 0."""
    j = np.arange(k + 1.0)[:, None]
    lgam = np.array([math.lgamma(i + 1.0) for i in range(k + 1)])[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(np.where(j > 0, j * np.log(mu), 0.0) - lgam - mu)


def _poisson_upper(k: int, mu: np.ndarray) -> np.ndarray:
    """P(X >= k) for X ~ Poisson(mu), k >= 1: the regularized P(k, mu)."""
    with np.errstate(divide="ignore"):
        front = np.exp(k * np.log(mu) - mu - math.lgamma(k + 1.0))  # μ^k e^-μ / k!
    out, series = np.empty_like(mu), mu < k + 1.0
    out[series] = front[series] * _series(k, mu[series])
    if not series.all():
        out[~series] = 1.0 - k * front[~series] * _continued_fraction(k, mu[~series])
    return out


def _chi2_quantile(dof: int, prob: float) -> float:
    """2·P⁻¹(dof/2, prob): Newton on log P, or on log Q from 1 - prob where prob > 1/2,
    from a Wilson–Hilferty start, bisecting the bracket whenever a step leaves it."""
    a, upper = dof / 2.0, prob > 0.5
    tail = 1.0 - prob if upper else prob
    if tail == 0.0:
        return math.inf
    t = math.sqrt(-2.0 * math.log(tail))  # |z| by Abramowitz & Stegun 26.2.23
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    v = 1.0 - 1.0 / (9.0 * a) + math.copysign(z, prob - 0.5) / math.sqrt(9.0 * a)
    x = a * v**3 if v > 0.0 else math.exp((math.log(tail) + math.lgamma(a + 1.0)) / a)
    lo, hi = 0.0, math.inf
    for _ in range(200):
        front, below = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0)), x < a + 1.0
        f = front * _series(a, x) if below else a * front * _continued_fraction(a, x)
        f = 1.0 - f if below == upper else f  # P or Q to the tail wanted
        g = (math.log(f / tail) if f > 0.0 else -math.inf) * (-1.0 if upper else 1.0)
        lo, hi = (x, hi) if g < 0.0 else (lo, x)
        nx = x - g * f * x / (a * front) if front > 0.0 else math.nan
        if abs(nx - x) <= 1e-12 * x:  # converged: the next step is ~(this one)²
            return 2.0 * nx
        x = nx if lo < nx < hi else (0.5 * (lo + hi) if hi < math.inf else 2.0 * x)
    return 2.0 * x


def pearson_nhpp_test(
    event_times,
    rate: RateFunction,
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
    t = np.sort(np.asarray(event_times, dtype=float))
    if len(t) == 0:
        raise ValueError("no events to test")
    if t[0] < 0.0 or t[-1] > rate.horizon + 1e-9:
        raise ValueError("events outside [0, horizon]")
    edges = np.linspace(0.0, rate.horizon, n_intervals + 1)
    counts, _ = np.histogram(t, bins=edges)
    k = int(counts.max())
    observed = np.bincount(counts, minlength=k + 1).astype(int)
    mu = np.diff(rate.cumulative(edges))
    expected = _poisson_pmf(k, mu).sum(axis=1)
    if k >= 1:
        expected[k] = np.sum(_poisson_upper(k, mu))
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
    threshold = _chi2_quantile(dof, 1.0 - alpha)
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


def qq_points(event_times, rate: RateFunction) -> tuple[np.ndarray, np.ndarray]:
    """Time-rescaling QQ coordinates (theoretical, empirical).

    Event times are rescaled through the integrated intensity; under a
    correct model the rescaled inter-arrivals are unit exponentials.  The
    empirical side is the sorted rescaled gaps, the theoretical side the
    Exp(1) quantiles at plotting positions (i - 0.5) / n.
    """
    t = np.sort(np.asarray(event_times, dtype=float))
    n = len(t)
    if n < 10:
        raise ValueError("need at least 10 events")
    if t[0] < 0.0 or t[-1] > rate.horizon + 1e-9:
        raise ValueError("events outside [0, horizon]")
    z = rate.cumulative(t)
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
    rate: RateFunction,
    model: DurationModel,
    grid=None,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> Reconstruction:
    """Rebuild the expected outage curve N(t) from a fitted intensity.

    The grid defaults to ceil(horizon) + 1 points evenly spaced over
    [0, horizon].  The failure side is integrated exactly (piecewise-linear
    cumulative).  The recovery rate and the expected recoveries come from
    one lattice pass each over the whole grid (recovery_rate_curve,
    expected_recovered): per duration interval, the failure intensity on
    that interval's cells convolved with the interval's duration law on a
    lattice of step quad_step; knots and boundaries off the lattice split
    their cells.  A grid time t off the lattice gets a pass of its own, of
    step t / max(1, round(t / quad_step)).  N is cum_f - cum_r; tiny
    negative excursions from quadrature noise are clamped at zero (with a
    warning beyond CLAMP_WARN_TOL).
    """
    if grid is None:
        grid = np.linspace(0.0, rate.horizon, math.ceil(rate.horizon) + 1)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be increasing with at least two points")
    if grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    if grid[-1] > rate.horizon + 1e-9:
        raise ValueError("grid extends beyond the intensity horizon")
    lam_r = recovery_rate_curve(rate, model, grid, quad_step)
    raw = rate.cumulative(grid) - expected_recovered(rate, model, grid, quad_step)
    if np.any(raw < -CLAMP_WARN_TOL):
        warnings.warn(
            f"expected outage curve dips to {raw.min():.3g} < 0; clamped",
            RuntimeWarning,
            stacklevel=2,
        )
    return Reconstruction(
        grid=grid,
        failure_rate=rate.value(grid),
        recovery_rate=lam_r,
        expected_out=np.maximum(raw, 0.0),
    )
