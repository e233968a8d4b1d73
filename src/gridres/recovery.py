"""Recovery intensity and expected-outage curves.

Failures arrive as a nonhomogeneous Poisson process with intensity lf(t);
each failure at time s stays out for a random duration drawn from g(. | s).
The recoveries then arrive with intensity

    lr(t) = integral_0^t lf(s) g(t - s | s) ds,

and the expected number of simultaneously failed entities is the running
integral of lf - lr.  This module evaluates those integrals by composite
trapezoid quadrature and provides the day-to-day and surge closed forms.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .rates import RateFunction
from .weibull import DurationModel

__all__ = [
    "SurgeSpec",
    "recovery_rate",
    "recovery_rate_curve",
    "expected_recovered",
    "expected_in_failure",
    "expected_failed",
    "day_to_day_recovery_rate",
    "day_to_day_expected",
    "surge_recovery_rate",
    "surge_expected",
]

DEFAULT_QUAD_STEP = 0.05


def _cell_edges(rate: RateFunction, model: DurationModel, t: float, quad_step: float,
                lag: bool = False) -> np.ndarray | None:
    """Edges of round(t / quad_step) equal cells on [0, t] (None at t = 0),
    plus the rate's knots and the model's boundaries, or their lags t - c,
    so the intensity is linear and one mixture governs in every cell."""
    if t < 0.0 or t > rate.horizon + 1e-9:
        raise ValueError("t must lie in [0, rate horizon]")
    if quad_step <= 0.0:
        raise ValueError("quad_step must be positive")
    if t == 0.0:
        return None
    grid = np.linspace(0.0, t, max(1, int(round(t / quad_step))) + 1)
    cuts = [kt for kt, _ in rate.knots] + list(model.boundaries)
    if lag:
        cuts = [t - c for c in cuts]
    inner = [c for c in cuts if 0.0 < c < t]
    if not inner:
        return grid
    return np.unique(np.concatenate([grid, np.asarray(inner, dtype=float)]))


def recovery_rate(
    rate: RateFunction,
    model: DurationModel,
    t: float,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> float:
    """Recovery intensity at time t (events/hour).

    Product-integration rule in the lag variable v = t - s: on each cell
    the failure intensity is taken at the cell midpoint and the duration
    density is integrated exactly through its cdf.  Kinks of the failure
    intensity and interval boundaries of the duration model are inserted
    as cell edges, so the intensity is linear and the governing mixture
    constant within every cell.  The rule is exact for a constant
    intensity and, unlike an endpoint rule, untroubled by the density
    blow-up of infant components (shape < 1) at zero lag.
    """
    t = float(t)
    grid = _cell_edges(rate, model, t, quad_step, lag=True)
    if grid is None:
        return 0.0
    s_mid = t - 0.5 * (grid[1:] + grid[:-1])
    lo = model.cdf(grid[:-1], at=s_mid)
    hi = model.cdf(grid[1:], at=s_mid)
    return float(np.sum(rate.value(s_mid) * (hi - lo)))


def recovery_rate_curve(
    rate: RateFunction,
    model: DurationModel,
    times,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> np.ndarray:
    """recovery_rate evaluated at each time in `times`."""
    return np.asarray(
        [recovery_rate(rate, model, t, quad_step) for t in np.asarray(times, dtype=float)]
    )


def _forward_quad(rate, model, t, quad_step, integrand):
    """Trapezoid rule for integrand(s) over the failure time s in [0, t]."""
    grid = _cell_edges(rate, model, t, quad_step)
    if grid is None:
        return 0.0
    return float(np.trapezoid(integrand(grid), grid))


def expected_recovered(
    rate: RateFunction,
    model: DurationModel,
    t: float,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> float:
    """Expected number of recoveries completed by time t.

    Equal to the integral of the recovery intensity from 0 to t, computed
    as a single quadrature of lf(s) G(t - s | s) over the failure time s.
    """
    return _forward_quad(
        rate, model, float(t), quad_step,
        lambda grid: rate.value(grid) * model.cdf(float(t) - grid, at=grid),
    )


def expected_in_failure(
    rate: RateFunction,
    model: DurationModel,
    t: float,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> float:
    """Expected number of entities still failed at time t (exact convolution)."""
    return _forward_quad(
        rate, model, float(t), quad_step,
        lambda grid: rate.value(grid) * (1.0 - model.cdf(float(t) - grid, at=grid)),
    )


def expected_failed(
    rate_f: RateFunction,
    rate_r: RateFunction,
    t: float,
    warn_tol: float = 1e-9,
) -> float:
    """Expected simultaneously-failed count at t from two fitted intensities.

    Integrates rate_f - rate_r over [0, t] exactly (both are piecewise
    linear).  Quadrature noise can push the result slightly negative; the
    value is clamped at 0 and a RuntimeWarning is emitted when the raw
    result falls below -warn_tol.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t > rate_f.horizon + 1e-9 or t > rate_r.horizon + 1e-9:
        raise ValueError("mismatched horizons: both rates must be defined on [0, t]")
    raw = rate_f.cumulative(t) - rate_r.cumulative(t)
    if raw < -warn_tol:
        warnings.warn(
            f"expected failed count at t={t} is {raw:.3g} < 0; clamped to 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return max(raw, 0.0)


def day_to_day_recovery_rate(
    base_rate: float,
    model: DurationModel,
    t: float,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> float:
    """Recovery intensity under a constant failure intensity.

    For a stationary duration model this is exactly base_rate * G(t); the
    piecewise case goes through the general convolution quadrature.  The
    value climbs from 0 toward base_rate as restorations catch up.
    """
    t = float(t)
    if base_rate < 0.0:
        raise ValueError("base_rate must be >= 0")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0 or base_rate == 0.0:
        return 0.0
    if model.is_stationary:
        return base_rate * model.mixtures[0].cdf(t)
    rate = RateFunction.constant(base_rate, t)
    return recovery_rate(rate, model, t, quad_step)


def day_to_day_expected(
    base_rate: float,
    model: DurationModel,
    t: float,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> float:
    """Expected failed count under a constant failure intensity."""
    t = float(t)
    if base_rate < 0.0:
        raise ValueError("base_rate must be >= 0")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0 or base_rate == 0.0:
        return 0.0
    rate = RateFunction.constant(base_rate, t)
    return expected_in_failure(rate, model, t, quad_step)


@dataclass(frozen=True, eq=False)
class SurgeSpec:
    """Failure intensity made of a base rate plus a transient surge.

    The surge intensity applies on [0, surge_end) and drops back to the
    base rate afterwards.  surge_end must not exceed the surge intensity's
    own horizon.
    """

    base_rate: float
    surge_rate: RateFunction
    surge_end: float

    def __post_init__(self):
        if self.base_rate < 0.0 or not np.isfinite(self.base_rate):
            raise ValueError("base_rate must be finite and >= 0")
        if not np.isfinite(self.surge_end) or self.surge_end <= 0.0:
            raise ValueError("surge_end must be positive")
        if self.surge_end > self.surge_rate.horizon + 1e-9:
            raise ValueError("surge_end exceeds the surge intensity horizon")

    def to_rate_function(self, horizon: float, ramp: float = 1e-9) -> RateFunction:
        """Composite piecewise-linear intensity on [0, horizon].

        The drop at surge_end is represented by a ramp of width `ramp`
        (effectively a jump for quadrature and simulation purposes).
        """
        if horizon < self.surge_end:
            raise ValueError("horizon must cover surge_end")
        t1 = float(self.surge_end)
        if t1 <= 2.0 * ramp:
            raise ValueError("surge_end too small for the configured ramp")
        knots = [(0.0, self.base_rate + self.surge_rate.value(0.0))]
        for kt, _ in self.surge_rate.knots:
            if 0.0 < kt < t1 - ramp:
                knots.append((float(kt), self.base_rate + self.surge_rate.value(kt)))
        knots.append((t1 - ramp, self.base_rate + self.surge_rate.value(t1 - ramp)))
        knots.append((t1, self.base_rate))
        return RateFunction(knots=tuple(knots), horizon=float(horizon))


def surge_recovery_rate(
    spec: SurgeSpec,
    model: DurationModel,
    t: float,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> float:
    """Closed-form surge approximation of the recovery intensity.

    Freezes the duration density at the surge onset and treats the surge
    as releasing surge_rate(0) failures per hour for min(t, surge_end)
    hours, on top of the day-to-day recovery intensity of the base rate.
    Accuracy improves as surge_end shrinks relative to typical durations.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    lam_m0 = spec.surge_rate.value(0.0)
    surge_term = lam_m0 * model.pdf(t, at=0.0) * min(t, spec.surge_end)
    return surge_term + day_to_day_recovery_rate(spec.base_rate, model, t, quad_step)


def surge_expected(
    spec: SurgeSpec,
    model: DurationModel,
    t: float,
    regime: str = "general",
    d0: float | None = None,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> float:
    """Closed-form expected failed count under a surge.

    regime selects the approximation branch:

    - "general": surge_rate(0) * (1 - G(t|0)) * min(t, surge_end) plus the
      day-to-day expected count.
    - "infant": recovery dominated by fast restorations; beyond the
      threshold d0 only the day-to-day term remains.
    - "aging": recovery dominated by a characteristic delay d0; before d0
      essentially nothing from the surge has been restored.

    The infant/aging branches require the threshold d0 and are only valid
    when d0 exceeds the surge window.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if regime not in ("general", "infant", "aging"):
        raise ValueError(f"unknown regime {regime!r}")
    lam_m0 = spec.surge_rate.value(0.0)
    t1 = spec.surge_end
    n0 = day_to_day_expected(spec.base_rate, model, t, quad_step)
    if regime == "general":
        surv = 1.0 - model.cdf(t, at=0.0)
        return lam_m0 * surv * min(t, t1) + n0
    if d0 is None:
        raise ValueError(f"regime {regime!r} requires the duration threshold d0")
    if d0 <= t1:
        raise ValueError("closed form requires d0 > t1")
    if regime == "infant":
        if t < d0:
            surv = 1.0 - model.cdf(t, at=0.0)
            return lam_m0 * surv * min(t, t1) + n0
        return n0
    # aging
    if t < d0:
        return lam_m0 * min(t, t1) + n0
    surv = 1.0 - model.cdf(t, at=0.0)
    return lam_m0 * t1 * surv + n0
