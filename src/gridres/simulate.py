"""Monte Carlo simulation of outage sample paths.

Failure times are drawn by thinning a dominating homogeneous process (the
dominating constant is the peak knot intensity; the homogeneous candidates
are generated through the order-statistics representation, which is
distributionally equivalent and fully vectorized).  Durations come from the
duration model by exact Weibull inverse-cdf sampling.  Every replica gets
its own generator derived from the root seed and the replica index.
Replicas run inline in index order, in blocks of 32: each replica of a
block makes its own draws in its own order, then the block's durations are
dispatched in one call and its counts taken in one pass, so the result is
bit for bit that of one replica at a time, and memory grows with the block,
not with the replica count.
"""

from dataclasses import dataclass

import numpy as np

from .parallel import run_indexed
from .rates import RateFunction
from .weibull import DurationModel, WeibullMixture

__all__ = [
    "SamplePath",
    "MonteCarloRates",
    "replica_rng",
    "sample_nhpp",
    "sample_durations",
    "simulate_events",
    "build_path",
    "monte_carlo_recovery_rate",
    "mean_paths",
]


# expected thinning candidates per replica (peak x horizon) allowed
_MAX_CANDIDATES = 1e7
# replicas drawn, dispatched and counted together; one run_indexed task each.
# 32 is as fast as 64 on the benchmark's sweep, and 64 raises the storm's
# peak memory by about 0.9 MB
_BLOCK = 32


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Generator for one replica, split off the root seed by index."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replica,))
    return np.random.default_rng(ss)


def sample_nhpp(rate: RateFunction, rng: np.random.Generator) -> np.ndarray:
    """Failure times on [0, horizon] by thinning; strictly increasing."""
    peak = rate.peak
    if peak == 0.0:
        return np.empty(0)
    if peak * rate.horizon > _MAX_CANDIDATES:
        raise ValueError(
            f"thinning would draw about {peak * rate.horizon:.3g} candidates "
            f"(peak {peak:g}/h over {rate.horizon:g} h); the limit is {_MAX_CANDIDATES:g}"
        )
    n_cand = rng.poisson(peak * rate.horizon)
    if n_cand == 0:
        return np.empty(0)
    times = np.sort(rng.random(n_cand)) * rate.horizon
    keep = rng.random(n_cand) * peak < rate.value(times)
    out = times[keep]
    if len(out) > 1:
        # float ties are measure-zero but would break the strictly
        # increasing contract, so drop exact duplicates
        out = out[np.concatenate(([True], np.diff(out) > 0.0))]
    return out


def sample_durations(
    times, model: DurationModel, rng: np.random.Generator
) -> np.ndarray:
    """One duration per failure time, from that time's interval mixture.

    Uniform draws are taken in event order before any grouping, so the
    result is independent of how events split across intervals.
    """
    t = np.asarray(times, dtype=float)
    u_comp = rng.random(len(t))
    u_dur = rng.random(len(t))
    return model.by_interval(WeibullMixture.from_uniforms, t, u_comp, u_dur)


def simulate_events(
    rate: RateFunction,
    model: DurationModel,
    seed: int,
    replica: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """(failure_times, durations) for one replica."""
    rng = replica_rng(seed, replica)
    times = sample_nhpp(rate, rng)
    durations = sample_durations(times, model, rng)
    return times, durations


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Counting processes of one replica.

    n_failed / n_recovered / n_out are right-continuous step functions; a
    jump at exactly t is included in the value at t.  n_out is the exact
    integer difference of the other two at every point.
    """

    failure_times: np.ndarray
    recovery_times: np.ndarray

    def __post_init__(self):
        f = np.sort(np.asarray(self.failure_times, dtype=float))
        r = np.sort(np.asarray(self.recovery_times, dtype=float))
        if len(f) != len(r):
            raise ValueError("every failure needs a recovery time")
        object.__setattr__(self, "failure_times", f)
        object.__setattr__(self, "recovery_times", r)

    def n_failed(self, t):
        return np.searchsorted(self.failure_times, np.asarray(t, dtype=float), side="right")

    def n_recovered(self, t):
        return np.searchsorted(self.recovery_times, np.asarray(t, dtype=float), side="right")

    def n_out(self, t):
        return self.n_failed(t) - self.n_recovered(t)

    @property
    def jump_times(self) -> np.ndarray:
        return np.sort(np.concatenate([self.failure_times, self.recovery_times]))


def build_path(times, durations) -> SamplePath:
    t = np.asarray(times, dtype=float)
    d = np.asarray(durations, dtype=float)
    if t.shape != d.shape:
        raise ValueError("times and durations must have matching lengths")
    if np.any(d < 0.0):
        raise ValueError("durations must be >= 0")
    return SamplePath(failure_times=t, recovery_times=t + d)


def _block_events(rate: RateFunction, model: DurationModel, seed: int, first: int,
                  stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Failure times and durations of replicas first..stop-1, concatenated in
    replica order, and each replica's event count.

    Each replica draws from its own generator what simulate_events draws:
    its failure times, then its component uniforms, then its duration
    uniforms.  The duration dispatch then runs once for the whole block.
    """
    times, u_comp, u_dur = [], [], []
    for i in range(first, stop):
        rng = replica_rng(seed, i)
        t = sample_nhpp(rate, rng)
        times.append(t)
        u_comp.append(rng.random(len(t)))
        u_dur.append(rng.random(len(t)))
    t = np.concatenate(times)
    durations = model.by_interval(WeibullMixture.from_uniforms, t,
                                  np.concatenate(u_comp), np.concatenate(u_dur))
    return t, durations, np.asarray([len(x) for x in times])


def _per_replica_bincount(sizes: np.ndarray, col: np.ndarray, width: int) -> np.ndarray:
    """(replicas, width): row r counts each column in [0, width) among replica
    r's values (sizes[r] consecutive entries of col); other columns drop."""
    row = np.repeat(np.arange(len(sizes)), sizes)
    keep = (col >= 0) & (col < width)
    flat = np.bincount(row[keep] * width + col[keep], minlength=len(sizes) * width)
    return flat.reshape(len(sizes), width)


def _in_blocks(replicas: int, task) -> list:
    """[task(first, stop) for each block of _BLOCK replicas], in order, each
    block one run_indexed task, run inline."""
    return run_indexed(-(-replicas // _BLOCK),
                       lambda b: task(b * _BLOCK, min(replicas, (b + 1) * _BLOCK)), 1)


def _path_counts(rate: RateFunction, model: DurationModel, grid: np.ndarray,
                 replicas: int, seed: int) -> np.ndarray:
    """(replicas, 2, len(grid)): N_f and N_r of every replica at the grid
    times, counted as SamplePath counts them (a jump at t included)."""
    order = np.argsort(grid, kind="stable")

    def upto(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        # a value counts at the first grid time at or after it, and on
        col = np.searchsorted(grid[order], values, side="left")
        out = np.empty((len(sizes), len(grid)))
        out[:, order] = _per_replica_bincount(sizes, col, len(grid)).cumsum(axis=1)
        return out

    def block(first: int, stop: int) -> np.ndarray:
        times, durations, sizes = _block_events(rate, model, seed, first, stop)
        return np.stack([upto(times, sizes), upto(times + durations, sizes)], axis=1)

    return np.concatenate(_in_blocks(replicas, block))


@dataclass(frozen=True, eq=False)
class MonteCarloRates:
    """Binned recovery-rate estimates across replicas."""

    edges: np.ndarray
    mean_rate: np.ndarray
    se_rate: np.ndarray
    replicas: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def monte_carlo_recovery_rate(
    rate: RateFunction,
    model: DurationModel,
    edges,
    replicas: int,
    seed: int,
) -> MonteCarloRates:
    """Empirical recovery intensity, binned on `edges`, across replicas.

    At least 100 replicas are required for the standard errors to mean
    anything.  Replicas run inline in index order, in blocks;
    GRIDRES_THREADS does not apply, and output is reproducible bit for bit.
    """
    edges = np.asarray(edges, dtype=float)
    if len(edges) < 2 or np.any(np.diff(edges) <= 0.0):
        raise ValueError("edges must be increasing with at least one bin")
    if replicas < 100:
        raise ValueError("need at least 100 replicas")
    bins = len(edges) - 1

    def block(first: int, stop: int) -> np.ndarray:
        # np.histogram's bins: [e_k, e_k+1), the last one closed
        times, durations, sizes = _block_events(rate, model, seed, first, stop)
        recovered = times + durations
        col = np.searchsorted(edges, recovered, side="right") - 1
        col[recovered == edges[-1]] = bins - 1
        return _per_replica_bincount(sizes, col, bins).astype(float)

    counts = np.concatenate(_in_blocks(replicas, block))
    widths = np.diff(edges)
    mean = counts.mean(axis=0) / widths
    se = counts.std(axis=0, ddof=1) / np.sqrt(replicas) / widths
    return MonteCarloRates(edges=edges, mean_rate=mean, se_rate=se, replicas=replicas)


def mean_paths(
    rate: RateFunction,
    model: DurationModel,
    grid,
    replicas: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """Mean and standard error of N_f, N_r, N over replicas at grid times."""
    grid = np.asarray(grid, dtype=float)
    if replicas < 1:
        raise ValueError("need at least one replica")
    stack = _path_counts(rate, model, grid, replicas, seed)
    nf, nr = stack[:, 0, :], stack[:, 1, :]
    n = nf - nr
    denom = np.sqrt(replicas)
    ddof = 1 if replicas > 1 else 0

    def se(a):
        return a.std(axis=0, ddof=ddof) / denom

    return {
        "grid": grid,
        "nf_mean": nf.mean(axis=0), "nf_se": se(nf),
        "nr_mean": nr.mean(axis=0), "nr_se": se(nr),
        "n_mean": n.mean(axis=0), "n_se": se(n),
    }
