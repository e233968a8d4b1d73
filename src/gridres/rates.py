"""Piecewise-linear intensity functions on a finite horizon.

An intensity is defined by knots (time, events/hour) joined linearly,
with constant extrapolation from the first knot back to t=0 and from the
last knot out to the horizon.  All times are hours since the study origin.
Every method reads one table, the intensity and its integral at 0, the
knot times and the horizon, where the constant ends are flat pieces; a
piece is found by one search of the table's inner edges.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["RateFunction", "failure_time_pdf"]


@dataclass(frozen=True, eq=False)
class RateFunction:
    """Nonnegative piecewise-linear intensity on [0, horizon].

    Parameters
    ----------
    knots : tuple of (time, intensity) pairs
        Times strictly increasing, intensities >= 0.
    horizon : float
        End of the definition domain, >= the last knot time.
    """

    knots: tuple[tuple[float, float], ...]
    horizon: float

    def __post_init__(self):
        if len(self.knots) == 0:
            raise ValueError("at least one knot is required")
        t = np.asarray([k[0] for k in self.knots], dtype=float)
        v = np.asarray([k[1] for k in self.knots], dtype=float)
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
            raise ValueError("knots must be finite")
        if np.any(t < 0.0):
            raise ValueError("knot times must be >= 0")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("knot times must be strictly increasing")
        if np.any(v < 0.0):
            raise ValueError("intensities must be >= 0")
        with np.errstate(over="ignore"):
            steep = not np.all(np.isfinite(np.diff(v) / np.diff(t)))
        if steep:
            raise ValueError("knot slopes must be finite: two knots are too close "
                             "for their intensity step")
        horizon = float(self.horizon)
        if not np.isfinite(horizon) or horizon <= 0.0:
            raise ValueError("horizon must be positive and finite")
        if horizon < t[-1]:
            raise ValueError(f"horizon {horizon:g} must cover the last knot at {t[-1]:g}")
        # breakpoints with 0 and horizon folded in; cumulative integral is
        # exact there because the function is linear between breakpoints
        bt = np.unique(np.concatenate(([0.0], t, [horizon])))
        bv = np.interp(bt, t, v)
        # halves, here and in cumulative: the sum of two knots past 8.99e307 overflows
        with np.errstate(over="ignore"):
            cum = np.concatenate(([0.0], np.cumsum((0.5 * bv[1:] + 0.5 * bv[:-1]) * np.diff(bt))))
        if not np.isfinite(cum[-1]):
            raise ValueError(f"the intensity's integral over [0, {horizon:g}] h is not "
                             "finite: it overflows a double")
        # the inverse works in units of a power of two near the peak: exact
        # scaling, so its products neither underflow at tiny intensities nor
        # overflow at huge ones, and are bit for bit the same in between
        unit = 2.0 ** max(int(np.frexp(v.max())[1]) - 1, -1022) if v.max() > 0.0 else 1.0
        with np.errstate(over="ignore"):
            slope_units = np.diff(bv) / np.diff(bt) / unit
        # frozen: the fields are set past the dataclass's __setattr__
        vars(self).update(horizon=horizon, _bt=bt, _bv=bv, _cum=cum, _unit=unit,
                          _bv_units=bv / unit, _slope_units=slope_units)

    @classmethod
    def constant(cls, level: float, horizon: float) -> "RateFunction":
        return cls(knots=((0.0, float(level)),), horizon=horizon)

    def _check_domain(self, t: np.ndarray) -> None:
        if not np.all((t >= -1e-12) & (t <= self.horizon + 1e-9)):
            raise ValueError(f"time outside [0, {self.horizon}]")

    def value(self, t):
        """Intensity at time(s) t, constant-extrapolated at both ends."""
        arr = np.asarray(t, dtype=float)
        self._check_domain(arr)
        out = np.interp(arr, self._bt, self._bv)
        return float(out) if np.ndim(t) == 0 else out

    def cumulative(self, t):
        """Exact integral of the intensity from 0 to t."""
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_domain(arr)
        clipped = np.clip(arr, 0.0, self.horizon)
        idx = np.searchsorted(self._bt[1:-1], clipped, side="right")
        avg = 0.5 * self._bv[idx] + 0.5 * np.interp(clipped, self._bt, self._bv)
        out = self._cum[idx] + (clipped - self._bt[idx]) * avg
        return float(out[0]) if np.ndim(t) == 0 else out

    def inverse_cumulative(self, levels, out=None) -> np.ndarray:
        """Time at which the cumulative intensity reaches each level in
        [0, total], in closed form (the time-rescaling map).  `out`, if
        given, receives the times; it may be `levels` itself.

        Between breakpoints the cumulative intensity is quadratic, so a
        level Delta u past breakpoint k is reached after
        x = 2 Delta u / (b + sqrt(b**2 + 2 slope Delta u)), b the intensity
        at the breakpoint; this form has no cancellation on rising or
        falling segments.  A level at the top of a zero-intensity stretch
        maps to its right end, except the total, which maps into a
        zero-intensity tail.  Times are finite and in [0, horizon]; sorted
        levels give nondecreasing times up to one rounding.
        """
        # in place where it can be: a block of replicas inverts ~10^4-10^5
        # levels at once, and each temporary is one more array that size
        shape = np.shape(levels)
        u = np.atleast_1d(np.asarray(levels, dtype=float))
        # inner breakpoints only: a zero stretch's repeated levels pass to its end
        k = np.searchsorted(self._cum[1:-1], u, side="right")
        du = u - self._cum[k]
        du *= 1.0 / self._unit
        b = self._bv_units[k]
        den = self._slope_units[k]
        den *= 2.0
        den *= du
        den += b * b
        # clamped: on a falling segment rounding can dip a hair below 0
        np.maximum(den, 0.0, out=den)
        np.sqrt(den, out=den)
        den += b
        del b
        du *= 2.0
        # den is 0 only where b = 0 and slope * du = 0: no time to advance
        x = np.divide(du, den, out=np.zeros_like(du), where=den > 0.0)
        del du, den
        start = self._bt[k]
        x += start
        k += 1
        return np.clip(x, start, self._bt[k], out=x if out is None else out).reshape(shape)

    def integral(self, a: float, b: float) -> float:
        """Exact integral of the intensity over [a, b]."""
        if b < a:
            raise ValueError("integration bounds out of order")
        return float(self.cumulative(b) - self.cumulative(a))

    @property
    def total(self) -> float:
        """Integral over the whole [0, horizon] domain."""
        return float(self._cum[-1])

    @property
    def peak(self) -> float:
        """Upper bound of the intensity; attained at a knot."""
        return float(self._bv.max())

    def scaled(self, factor: float) -> "RateFunction":
        if not factor >= 0.0:
            raise ValueError("scale factor must be >= 0")
        return RateFunction(
            knots=tuple((float(t), float(v) * factor) for t, v in self.knots),
            horizon=self.horizon,
        )


def failure_time_pdf(rate: RateFunction) -> RateFunction:
    """Normalize an intensity into the failure-time density on [0, horizon].

    The density of a single failure time is the intensity divided by its
    integral over the horizon.  Raises on a degenerate (identically zero)
    intensity.
    """
    total = rate.total
    if total <= 0.0:
        raise ValueError("degenerate intensity: integral over the horizon is zero")
    return rate.scaled(1.0 / total)
