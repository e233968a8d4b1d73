"""Weibull mixtures and failure-time-conditioned restoration duration models.

Restoration durations are modeled as finite Weibull mixtures.  A mixture
component with shape k < 1 describes infant recovery (mass piling up near
zero), k > 1 describes aging recovery (a characteristic repair delay).
A DurationModel assigns one mixture to each failure-time interval, so the
duration distribution may change over the course of an event.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["WeibullMixture", "DurationModel", "interval_of"]

_WEIGHT_TOL = 1e-9


def interval_of(boundaries, t) -> np.ndarray:
    """Interval index of each failure time t among edges psi_0 < ... < psi_m.

    Interval i covers [psi_i, psi_{i+1}).  The index is the count of inner
    edges psi_1 .. psi_{m-1} at or below t, so times outside [psi_0, psi_m]
    fall into the nearest end interval, and nan into the last.
    """
    b = np.asarray(boundaries, dtype=float)
    return np.searchsorted(b[1:-1], np.atleast_1d(np.asarray(t, dtype=float)), side="right")


@dataclass(frozen=True, eq=False)
class WeibullMixture:
    """Finite mixture of Weibull distributions.

    components holds (weight, scale, shape) triples; weights must sum to 1
    within 1e-9, scales and shapes must be positive.
    """

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("mixture needs at least one component")
        w = np.asarray([c[0] for c in self.components], dtype=float)
        g = np.asarray([c[1] for c in self.components], dtype=float)
        k = np.asarray([c[2] for c in self.components], dtype=float)
        if np.any(~np.isfinite(w)) or np.any(~np.isfinite(g)) or np.any(~np.isfinite(k)):
            raise ValueError("mixture parameters must be finite")
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError("component weights must lie in [0, 1]")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"component weights sum to {w.sum()!r}, expected 1")
        if np.any(g <= 0.0):
            raise ValueError("scales must be positive")
        if np.any(k <= 0.0):
            raise ValueError("shapes must be positive")
        vars(self).update(_w=w, _g=g, _k=k)

    @property
    def n_components(self) -> int:
        return len(self.components)

    def pdf(self, d):
        """Mixture density at duration(s) d >= 0.

        For components with shape k < 1 the density diverges as d -> 0;
        pdf(0) is the mathematical limit (inf when any k < 1 component has
        positive weight, weight/scale for k == 1, 0 otherwise).  A duration
        so small that d / g underflows to 0 gets that component's limit too.
        Components of weight 0 add nothing, even there.
        """
        arr = np.atleast_1d(np.asarray(d, dtype=float))
        if not np.all(arr >= 0.0):
            raise ValueError("durations must be >= 0")
        out = np.zeros_like(arr)
        pos = arr > 0.0
        x = arr[pos]
        acc = np.zeros_like(x)
        live = [(w, g, k) for w, g, k in zip(self._w, self._g, self._k) if w > 0.0]
        for w, g, k in live:
            z = x / g
            # 0 ** (k - 1) for k < 1, or a subnormal z's power past the
            # largest double: inf
            with np.errstate(divide="ignore", over="ignore"):
                acc += w * (k / g) * z ** (k - 1.0) * np.exp(-(z**k))
        out[pos] = acc
        if not pos.all():
            out[~pos] = math.inf if any(k < 1.0 for _, _, k in live) else sum(
                w / g for w, g, k in live if k == 1.0)
        return float(out[0]) if np.ndim(d) == 0 else out

    def cdf(self, d):
        """Mixture distribution function at duration(s) d >= 0."""
        arr = np.atleast_1d(np.asarray(d, dtype=float))
        if not np.all(arr >= 0.0):
            raise ValueError("durations must be >= 0")
        out = np.zeros_like(arr)
        with np.errstate(over="ignore"):  # d / g or its power may be inf: the cdf's limit 1
            for w, g, k in zip(self._w, self._g, self._k):
                out += w * (-np.expm1(-((arr / g) ** k)))
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if np.ndim(d) == 0 else out

    def mean(self) -> float:
        terms = zip(self._w.tolist(), self._g.tolist(), self._k.tolist())
        return sum(w * g * math.gamma(1.0 + 1.0 / k) for w, g, k in terms)

    def quantile(self, q: float) -> float:
        """Inverse cdf by bisection to a relative width of 1e-12 (no closed form exists)."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        hi = float(np.max(self._g))
        while self.cdf(hi) < q:
            hi *= 2.0
            if hi > 1e12:
                raise RuntimeError("quantile bracket expansion failed")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < q:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * hi:
                break
        return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class DurationModel:
    """Piecewise-in-failure-time restoration duration model.

    boundaries are failure-time interval edges psi_0 < ... < psi_m; interval
    i covers [psi_i, psi_{i+1}) and uses mixtures[i].  Failure times outside
    [psi_0, psi_m] fall back to the nearest end interval.
    """

    boundaries: tuple[float, ...]
    mixtures: tuple[WeibullMixture, ...]

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if len(b) < 2:
            raise ValueError("need at least two boundaries (one interval)")
        if np.any(~np.isfinite(b)):
            raise ValueError("boundaries must be finite")
        if np.any(np.diff(b) <= 0.0):
            raise ValueError("boundaries must be strictly increasing")
        if len(self.mixtures) != len(b) - 1:
            raise ValueError(
                f"{len(b) - 1} intervals but {len(self.mixtures)} mixtures"
            )
        # from_uniforms' tables: cw[j, i] is interval i's cumulative weight
        # through component j, +inf from its last component on (a draw past
        # every edge takes the last component); g and 1/k by (interval,
        # component), padded with 1
        c = max(m.n_components for m in self.mixtures)
        cw = np.full((c, len(self.mixtures)), np.inf)
        g, inv_k = np.ones((len(self.mixtures), c)), np.ones((len(self.mixtures), c))
        for i, m in enumerate(self.mixtures):
            cw[:m.n_components - 1, i] = np.cumsum(m._w)[:-1]
            g[i, :m.n_components] = m._g
            with np.errstate(over="ignore"):  # a subnormal shape's 1/k is inf
                inv_k[i, :m.n_components] = 1.0 / m._k
        vars(self).update(_b=b, _cw=cw[:-1], _g=g.ravel(), _inv_k=inv_k.ravel())

    @classmethod
    def stationary(cls, mixture: WeibullMixture, horizon: float) -> "DurationModel":
        return cls(boundaries=(0.0, float(horizon)), mixtures=(mixture,))

    @property
    def n_intervals(self) -> int:
        return len(self.mixtures)

    @property
    def is_stationary(self) -> bool:
        return len(self.mixtures) == 1

    def interval_index(self, t):
        """Index of the interval containing failure time(s) t, tails clamped."""
        idx = interval_of(self._b, t)
        return int(idx[0]) if np.ndim(t) == 0 else idx

    def by_interval(self, fn, at, *values):
        """fn(mixtures[interval_index(at)], *values), elementwise.

        `at` and the values broadcast together; all scalars give a float.
        """
        at_arr, *arrays = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (at, *values))
        )
        idx = self.interval_index(at_arr)
        out = np.empty(at_arr.shape, dtype=float)
        for i in np.flatnonzero(np.bincount(idx.ravel())):
            m = idx == i
            out[m] = fn(self.mixtures[i], *(a[m] for a in arrays))
        return float(out.flat[0]) if all(np.ndim(a) == 0 for a in (at, *values)) else out

    def from_uniforms(self, at, u_comp, u_dur, out=None) -> np.ndarray:
        """Durations of failures at times `at` from paired uniforms on [0, 1),
        in one pass: u_comp picks a component of the time's interval mixture
        by cumulative weight, u_dur inverts its cdf exactly.  1-d arrays of
        one length; `out`, if given, receives the durations."""
        idx = interval_of(self._b, at)
        comp = np.zeros_like(idx)
        for edge in self._cw:
            comp += edge[idx] <= u_comp
        idx *= len(self._cw) + 1
        idx += comp
        x = np.negative(u_dur, out=out)
        np.log1p(x, out=x)
        np.negative(x, out=x)
        with np.errstate(over="ignore"):  # a tiny shape or huge scale: the duration's limit inf
            x **= self._inv_k[idx]
            x *= self._g[idx]
        return x

    def pdf(self, d, at):
        """Duration density g(d | failure at time `at`).

        Both arguments may be arrays of equal shape; `at` selects the
        mixture elementwise.
        """
        return self.by_interval(WeibullMixture.pdf, at, d)

    def cdf(self, d, at):
        """Duration distribution G(d | failure at time `at`)."""
        return self.by_interval(WeibullMixture.cdf, at, d)

    def collapse(self, weights) -> WeibullMixture:
        """Marginal duration mixture under given interval weights.

        The weighted average of per-interval mixtures is itself a Weibull
        mixture (components concatenated, weights multiplied through).
        """
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.n_intervals,):
            raise ValueError("one weight per interval required")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        return WeibullMixture(components=tuple(
            (wi * rho, g, k) for wi, mix in zip(w, self.mixtures) if wi != 0.0
            for rho, g, k in mix.components))
