"""Weibull mixtures and failure-time-conditioned restoration duration models.

Restoration durations are modeled as finite Weibull mixtures.  A mixture
component with shape k < 1 describes infant recovery (mass piling up near
zero), k > 1 describes aging recovery (a characteristic repair delay).
A DurationModel assigns one mixture to each failure-time interval, so the
duration distribution may change over the course of an event.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma_fn

__all__ = ["WeibullMixture", "DurationModel"]

_WEIGHT_TOL = 1e-9


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
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_g", g)
        object.__setattr__(self, "_k", k)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def weights(self) -> np.ndarray:
        return self._w.copy()

    @property
    def scales(self) -> np.ndarray:
        return self._g.copy()

    @property
    def shapes(self) -> np.ndarray:
        return self._k.copy()

    def pdf(self, d):
        """Mixture density at duration(s) d >= 0.

        For components with shape k < 1 the density diverges as d -> 0;
        pdf(0) is the mathematical limit (inf when any k < 1 component has
        positive weight, weight/scale for k == 1, 0 otherwise).
        """
        arr = np.atleast_1d(np.asarray(d, dtype=float))
        if np.any(arr < 0.0):
            raise ValueError("durations must be >= 0")
        out = np.zeros_like(arr)
        pos = arr > 0.0
        x = arr[pos]
        acc = np.zeros_like(x)
        for w, g, k in zip(self._w, self._g, self._k):
            z = x / g
            acc += w * (k / g) * z ** (k - 1.0) * np.exp(-(z**k))
        out[pos] = acc
        if np.any(~pos):
            at0 = 0.0
            for w, g, k in zip(self._w, self._g, self._k):
                if k < 1.0:
                    at0 = math.inf
                    break
                if k == 1.0:
                    at0 += w / g
            out[~pos] = at0
        return float(out[0]) if np.isscalar(d) else out

    def cdf(self, d):
        """Mixture distribution function at duration(s) d >= 0."""
        arr = np.atleast_1d(np.asarray(d, dtype=float))
        if np.any(arr < 0.0):
            raise ValueError("durations must be >= 0")
        out = np.zeros_like(arr)
        for w, g, k in zip(self._w, self._g, self._k):
            out += w * (-np.expm1(-((arr / g) ** k)))
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if np.isscalar(d) else out

    def sf(self, d):
        arr = np.atleast_1d(np.asarray(d, dtype=float))
        out = 1.0 - self.cdf(arr)
        return float(out[0]) if np.isscalar(d) else out

    def mean(self) -> float:
        return float(np.sum(self._w * self._g * _gamma_fn(1.0 + 1.0 / self._k)))

    def quantile(self, q: float) -> float:
        """Inverse cdf by bisection (the mixture has no closed inverse)."""
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
            if hi - lo < 1e-12 * max(1.0, hi):
                break
        return 0.5 * (lo + hi)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n durations by component selection + exact Weibull inverse cdf."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return np.empty(0)
        edges = np.cumsum(self._w)
        comp = np.searchsorted(edges, rng.random(n), side="right")
        comp = np.clip(comp, 0, self.n_components - 1)
        u = rng.random(n)
        return self._g[comp] * (-np.log1p(-u)) ** (1.0 / self._k[comp])


@dataclass(frozen=True, eq=False)
class DurationModel:
    """Piecewise-in-failure-time restoration duration model.

    boundaries are failure-time interval edges psi_0 < ... < psi_m; interval
    i covers [psi_i, psi_{i+1}) and uses mixtures[i].  Failure times outside
    [psi_0, psi_m] fall back to the nearest end interval (tail_policy
    "nearest", the only implemented policy; the field exists for file-format
    stability).
    """

    boundaries: tuple[float, ...]
    mixtures: tuple[WeibullMixture, ...]
    tail_policy: str = "nearest"

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
        if self.tail_policy != "nearest":
            raise ValueError(f"unknown tail policy {self.tail_policy!r}")
        object.__setattr__(self, "_b", b)

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
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self._b, arr, side="right") - 1
        idx = np.clip(idx, 0, self.n_intervals - 1)
        return int(idx[0]) if np.isscalar(t) else idx

    def pdf(self, d, at):
        """Duration density g(d | failure at time `at`).

        Both arguments may be arrays of equal shape; `at` selects the
        mixture elementwise.
        """
        d_arr = np.atleast_1d(np.asarray(d, dtype=float))
        at_arr = np.atleast_1d(np.asarray(at, dtype=float))
        d_arr, at_arr = np.broadcast_arrays(d_arr, at_arr)
        idx = self.interval_index(at_arr)
        out = np.empty(d_arr.shape, dtype=float)
        for i in np.unique(idx):
            m = idx == i
            out[m] = self.mixtures[i].pdf(d_arr[m])
        return float(out.flat[0]) if (np.isscalar(d) and np.isscalar(at)) else out

    def cdf(self, d, at):
        """Duration distribution G(d | failure at time `at`)."""
        d_arr = np.atleast_1d(np.asarray(d, dtype=float))
        at_arr = np.atleast_1d(np.asarray(at, dtype=float))
        d_arr, at_arr = np.broadcast_arrays(d_arr, at_arr)
        idx = self.interval_index(at_arr)
        out = np.empty(d_arr.shape, dtype=float)
        for i in np.unique(idx):
            m = idx == i
            out[m] = self.mixtures[i].cdf(d_arr[m])
        return float(out.flat[0]) if (np.isscalar(d) and np.isscalar(at)) else out

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
        parts = []
        for wi, mix in zip(w, self.mixtures):
            if wi == 0.0:
                continue
            for rho, g, k in mix.components:
                parts.append((wi * rho, g, k))
        return WeibullMixture(components=tuple(parts))
