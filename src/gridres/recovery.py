"""Recovery intensity and expected-outage curves.

Failures arrive as a nonhomogeneous Poisson process with intensity lf(t);
each failure at time s stays out for a random duration drawn from g(. | s).
The recoveries then arrive with intensity

    lr(t) = integral_0^t lf(s) g(t - s | s) ds,

and the expected number of simultaneously failed entities is the running
integral of lf - lr: the exact cumulative of lf less the expected
recoveries.  This module evaluates each integral in a lattice pass of its
own and provides the day-to-day and surge closed forms.

A pass cuts the failure times [0, t] into cells of step h, split at the
rate's knots and the model's boundaries.  lr takes each cell's intensity
at its midpoint against the duration cdf's exact increment over the cell's
lags, finite even where an infant component (shape < 1) has an infinite
density at zero lag.  The expected recoveries are the trapezoid rule for
lf(s) G(t - s | s); at a node on an inner boundary each adjacent cell takes
its own side's mixture, so the curve does not jump when a boundary moves
onto a node.  Within duration interval i, G_i does not depend on the
failure time, so the sum over the lattice cells is one convolution per
interval (np.convolve, or an rfft product on supports of 500 cells or
more); a cell that a knot or boundary cuts is split and its parts added one
by one.  Times within 1e-12 (relative) of the quad_step lattice share one
pass and take their node's value; any other time t gets a pass of its own,
of step t / max(1, round(t / quad_step)).  Work memory is O(t / quad_step).
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
# most cells one quadrature may hold; the same ceiling as a CLI grid's points
_MAX_CELLS = 10**7
# a time this close to a lattice node, relative to the time, is that node
_ON_LATTICE_RTOL = 1e-12
# np.convolve below this support length, an rfft product from it on; on a
# 2-core x86 host the two cost the same at a support of about 500 cells,
# whatever the kernel's length (100 to 9000)
_FFT_MIN_SUPPORT = 500
# an expected failed count below -CLAMP_WARN_TOL is more than quadrature
# noise: it is clamped at 0 with a RuntimeWarning
CLAMP_WARN_TOL = 1e-9
# width, in hours, of the ramp that stands for a surge's drop to the base rate
_SURGE_RAMP = 1e-9


def check_quad_step(extent: float, quad_step: float) -> None:
    """Raise ValueError unless quad_step is finite and positive and [0, extent]
    needs at most 10^7 cells of it; nothing is allocated before the check."""
    if not (np.isfinite(quad_step) and quad_step > 0.0):
        raise ValueError(f"quadrature step must be finite and positive, got {quad_step!r}")
    if extent / quad_step > _MAX_CELLS:
        raise ValueError(f"a quadrature of {extent / quad_step:.3g} cells exceeds "
                         f"the limit of {_MAX_CELLS:.0e}")


def _evaluate(rate: RateFunction, model: DurationModel, times, quad_step: float,
              lattice_pass) -> np.ndarray:
    """lattice_pass(rate, model, t, n, step) at each time in `times`, t the
    times and n their node indices on the lattice j * step: the times on the
    quad_step lattice in one pass, each other time t in its own, on the
    lattice of step t / n with n = max(1, round(t / quad_step))."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.ndim != 1:
        raise ValueError("times must be a scalar or a 1-d array")
    if not np.all((t >= 0.0) & (t <= rate.horizon + 1e-9)):
        raise ValueError("t must lie in [0, rate horizon]")
    check_quad_step(float(t.max(initial=0.0)), quad_step)
    n = np.rint(t / quad_step)
    on = np.abs(t - n * quad_step) <= _ON_LATTICE_RTOL * t
    out = np.zeros(len(t))
    if on.any():
        out[on] = lattice_pass(rate, model, t[on], n[on].astype(int), quad_step)
    for i in np.flatnonzero(~on):
        k = max(1, int(n[i]))
        out[i] = lattice_pass(rate, model, t[i:i + 1], np.asarray([k]), t[i] / k)[0]
    return out


def _nodes_and_cuts(rate: RateFunction, model: DurationModel, last: int, step: float):
    """The nodes j * step for j up to `last`, and the knots and boundaries
    strictly inside their span that no node hits exactly (the cuts, sorted)."""
    nodes = np.arange(last + 1) * step
    cuts = np.asarray([kt for kt, _ in rate.knots] + list(model.boundaries), dtype=float)
    cuts = np.unique(cuts[(cuts > 0.0) & (cuts < nodes[-1])])
    cuts = cuts[nodes[np.rint(cuts / step).astype(int)] != cuts]
    return nodes, cuts


def _convolve(a: np.ndarray, kernel: np.ndarray, n: int) -> np.ndarray:
    """The first n terms of the convolution of a with kernel (len(kernel) >= n)."""
    kernel = kernel[:n]
    if len(a) < _FFT_MIN_SUPPORT:
        return np.convolve(a, kernel)[:n]
    size = 1 << (len(a) + n - 2).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(kernel, size), size)[:n]
    # both factors are nonnegative, so a negative term is rounding noise
    return np.maximum(out, 0.0)


def _by_interval_convolution(model, interval, coef, nodes, out, shift):
    """out[j + shift] += sum over intervals i of coef restricted to interval i,
    convolved with mixture i's cdf on the lag lattice (differenced when
    shift is 1), each over that interval's trimmed support only."""
    m = len(nodes) - 1
    for i in np.unique(interval):
        a = np.where(interval == i, coef, 0.0)
        nz = np.flatnonzero(a)
        if len(nz) == 0:
            continue
        lo, hi = int(nz[0]), int(nz[-1]) + 1
        g = model.mixtures[i].cdf(nodes[: m - lo + 1])
        kernel = np.diff(g) if shift else g
        out[lo + shift:] += _convolve(a[lo:hi], kernel, m - lo + 1 - shift)


def _rate_pass(rate, model, t, n, step):
    """lr at the times t = n * step: sum over cells j of
    lf((j + 1/2) step) (G_i((n - j) step) - G_i((n - j - 1) step)), i the
    interval of the cell's midpoint, one convolution per interval; a cell
    cut by a knot or boundary is split and its parts added directly."""
    nodes, cuts = _nodes_and_cuts(rate, model, int(n.max()), step)
    mid = (np.arange(len(nodes) - 1) + 0.5) * step
    cell = np.searchsorted(nodes, cuts) - 1  # the cell each cut splits
    coef = rate.value(mid)
    coef[cell] = 0.0
    lam = np.zeros(len(nodes))
    _by_interval_convolution(model, model.interval_index(mid), coef, nodes, lam, 1)
    out = lam[n]
    for j in np.unique(cell):
        # the split cell's parts, at every time past the cell; the lags of
        # its lattice ends are lattice lags
        at = n > j
        edges = np.concatenate(([nodes[j]], cuts[cell == j], [nodes[j + 1]]))
        lags = [nodes[n[at] - j], *(t[at] - c for c in edges[1:-1]), nodes[n[at] - j - 1]]
        for k, s in enumerate(0.5 * (edges[1:] + edges[:-1])):
            out[at] += rate.value(s) * (model.cdf(lags[k], at=s) - model.cdf(lags[k + 1], at=s))
    return out


def recovery_rate_curve(
    rate: RateFunction,
    model: DurationModel,
    times,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> np.ndarray:
    """Recovery intensity lr (events/hour) at each time in `times`."""
    return _evaluate(rate, model, times, quad_step, _rate_pass)


def recovery_rate(
    rate: RateFunction,
    model: DurationModel,
    t: float,
    quad_step: float = DEFAULT_QUAD_STEP,
) -> float:
    """recovery_rate_curve at the one time t."""
    return float(recovery_rate_curve(rate, model, float(t), quad_step)[0])


def _recovered_pass(rate, model, t, n, step):
    """The expected recoveries at the times t = n * step: the lattice nodes'
    part is one convolution per interval of their weighted intensities with
    G_i; each cut adds its own node, and a node on an inner boundary moves
    its left half-weight to the left-hand mixture."""
    nodes, cuts = _nodes_and_cuts(rate, model, int(n.max()), step)
    # trapezoid weights of every node, lattice and cut, over the whole span:
    # at a time t on the lattice they differ from t's own trapezoid only at
    # the node t itself, where G(0) = 0
    s = np.concatenate((nodes, cuts))
    order = np.argsort(s, kind="stable")
    half = 0.5 * np.diff(s[order])
    right, left = np.zeros(len(s)), np.zeros(len(s))
    right[order[:-1]] = half
    left[order[1:]] = half
    w = right + left
    cum = np.zeros(len(nodes))
    coef = w[: len(nodes)] * rate.value(nodes)
    _by_interval_convolution(model, model.interval_index(nodes), coef, nodes, cum, 0)
    out = cum[n]
    for c, wc in zip(cuts, w[len(nodes):]):
        at = t > c
        out[at] += wc * rate.value(c) * model.cdf(t[at] - c, at=c)
    # a node on an inner boundary took the right-hand mixture with its whole
    # weight; its left half takes the left-hand one, from an ulp before it
    for b in model.boundaries[1:-1]:
        if 0.0 < b < nodes[-1]:
            at = t > b
            out[at] += left[np.flatnonzero(s == b)[0]] * rate.value(b) * (
                model.cdf(t[at] - b, at=np.nextafter(b, -np.inf)) - model.cdf(t[at] - b, at=b))
    return out


def expected_recovered(
    rate: RateFunction,
    model: DurationModel,
    t,
    quad_step: float = DEFAULT_QUAD_STEP,
):
    """Expected number of recoveries completed by time(s) t, the integral of
    lr from 0 to t; a float for a scalar t, else an array."""
    out = _evaluate(rate, model, t, quad_step, _recovered_pass)
    return float(out[0]) if np.isscalar(t) else out


def expected_in_failure(
    rate: RateFunction,
    model: DurationModel,
    t,
    quad_step: float = DEFAULT_QUAD_STEP,
):
    """Expected number of entities still failed at time(s) t: the exact
    cumulative failure intensity less expected_recovered, in one lattice
    pass; a float for a scalar t, else an array."""
    if np.ndim(t) == 0:
        t = float(t)
    return rate.cumulative(t) - expected_recovered(rate, model, t, quad_step)


def expected_failed(
    rate_f: RateFunction,
    rate_r: RateFunction,
    t: float,
) -> float:
    """Expected simultaneously-failed count at t from two fitted intensities.

    Integrates rate_f - rate_r over [0, t] exactly (both are piecewise
    linear).  Quadrature noise can push the result slightly negative; the
    value is clamped at 0 and a RuntimeWarning is emitted when the raw
    result falls below -CLAMP_WARN_TOL.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t > rate_f.horizon + 1e-9 or t > rate_r.horizon + 1e-9:
        raise ValueError("mismatched horizons: both rates must be defined on [0, t]")
    raw = rate_f.cumulative(t) - rate_r.cumulative(t)
    if raw < -CLAMP_WARN_TOL:
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

    def to_rate_function(self, horizon: float) -> RateFunction:
        """Composite piecewise-linear intensity on [0, horizon].

        The drop at surge_end is represented by a ramp of width _SURGE_RAMP
        (effectively a jump for quadrature and simulation purposes).
        """
        if horizon < self.surge_end:
            raise ValueError("horizon must cover surge_end")
        t1, ramp = float(self.surge_end), _SURGE_RAMP
        if t1 <= 2.0 * ramp:
            raise ValueError("surge_end too small for the drop's ramp")
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
