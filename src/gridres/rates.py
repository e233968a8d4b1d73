"""Piecewise-linear intensity functions on a finite horizon.

An intensity is defined by knots (time, events/hour) joined linearly,
with constant extrapolation from the first knot back to t=0 and from the
last knot out to the horizon.  All times are hours since the study origin.
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
            raise ValueError("horizon must cover the last knot")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "_t", t)
        object.__setattr__(self, "_v", v)
        # breakpoints with 0 and horizon folded in; cumulative integral is
        # exact there because the function is linear between breakpoints
        bt = np.concatenate(([0.0], t, [horizon]))
        bt = np.unique(bt)
        bv = np.interp(bt, t, v)
        with np.errstate(over="ignore"):
            cum = np.concatenate(([0.0], np.cumsum(0.5 * (bv[1:] + bv[:-1]) * np.diff(bt))))
        if not np.isfinite(cum[-1]):
            raise ValueError(f"the intensity's integral over [0, {horizon:g}] h is not "
                             "finite: it overflows a double")
        object.__setattr__(self, "_bt", bt)
        object.__setattr__(self, "_bv", bv)
        object.__setattr__(self, "_cum", cum)
        # the inverse works in units of a power of two near the peak: exact
        # scaling, so its products neither underflow at tiny intensities nor
        # overflow at huge ones, and are bit for bit the same in between
        unit = 2.0 ** max(int(np.frexp(v.max())[1]) - 1, -1022) if v.max() > 0.0 else 1.0
        object.__setattr__(self, "_unit", unit)
        object.__setattr__(self, "_bv_units", bv / unit)
        with np.errstate(over="ignore"):
            object.__setattr__(self, "_slope_units", np.diff(bv) / np.diff(bt) / unit)

    @classmethod
    def constant(cls, level: float, horizon: float) -> "RateFunction":
        return cls(knots=((0.0, float(level)),), horizon=horizon)

    def _check_domain(self, t: np.ndarray) -> None:
        if np.any(t < -1e-12) or np.any(t > self.horizon + 1e-9):
            raise ValueError(f"time outside [0, {self.horizon}]")

    def value(self, t):
        """Intensity at time(s) t, constant-extrapolated at both ends."""
        arr = np.asarray(t, dtype=float)
        self._check_domain(arr)
        out = np.interp(arr, self._t, self._v)
        return float(out) if np.isscalar(t) else out

    def cumulative(self, t):
        """Exact integral of the intensity from 0 to t."""
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_domain(arr)
        clipped = np.clip(arr, 0.0, self.horizon)
        idx = np.clip(np.searchsorted(self._bt, clipped, side="right") - 1, 0, len(self._bt) - 2)
        left = self._bt[idx]
        seg = (clipped - left) * 0.5 * (self._bv[idx] + np.interp(clipped, self._t, self._v))
        out = self._cum[idx] + seg
        return float(out[0]) if np.isscalar(t) else out

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
        k = np.searchsorted(self._cum, u, side="right")
        k -= 1
        np.clip(k, 0, len(self._bt) - 2, out=k)
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
        return float(self._v.max())

    def scaled(self, factor: float) -> "RateFunction":
        if factor < 0.0:
            raise ValueError("scale factor must be >= 0")
        return RateFunction(
            knots=tuple((float(t), float(v * factor)) for t, v in zip(self._t, self._v)),
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
