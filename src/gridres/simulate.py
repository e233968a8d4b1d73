"""Monte Carlo simulation of outage sample paths.

Failure times are drawn by exact time-rescaling (Cinlar 1975): a Poisson
count with mean the integrated intensity, sorted arrival levels on
[0, integral] from normalised cumulative sums of exponentials, each mapped
through the closed-form inverse of the piecewise-quadratic cumulative
intensity.  Durations come from the duration model by exact Weibull
inverse-cdf sampling.  Every replica gets its own generator derived from
the root seed and the replica index.  Replicas run inline in index order,
in blocks of 32: each replica of a block makes its own draws in its own
order, then the block's levels are inverted and its durations dispatched
in one call each, and every replica's counts are taken by a search on its
own sorted times.  So the result is bit for bit that of one replica at a
time, and memory grows with the block, not with the replica count.
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


# expected events per replica (the integrated intensity) allowed
_MAX_EXPECTED = 1e7
# replicas drawn, dispatched and counted together; one run_indexed task each.
# 32 is as fast as 64 on the benchmark's sweep, and 64 raises the storm's
# peak memory by about 0.9 MB
_BLOCK = 32


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Generator for one replica, split off the root seed by index."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replica,))
    return np.random.default_rng(ss)


def _check_expected(rate: RateFunction) -> None:
    """Raise ValueError, before any draw, if a replica would expect more
    than 10^7 events."""
    if rate.total > _MAX_EXPECTED:
        raise ValueError(
            f"a replica would expect {rate.total:.3g} events (the intensity's "
            f"integral over {rate.horizon:g} h); the limit is {_MAX_EXPECTED:g} expected events"
        )


def _unit_levels(total: float, rng: np.random.Generator) -> np.ndarray:
    """The count n ~ Poisson(total), then n sorted uniforms on [0, 1] as the
    first n of n + 1 normalised cumulative exponential sums: no sort."""
    n = rng.poisson(total)
    c = np.cumsum(rng.standard_exponential(n + 1))
    return c[:n] / c[n]


def _first_of_ties(times: np.ndarray, sizes) -> np.ndarray | None:
    """None if each replica's run of times (sizes[r] consecutive entries) is
    strictly increasing, else the mask that keeps each time above all
    earlier ones of its replica: it drops exact ties, and the rare pair that
    the inverse's rounding reversed."""
    ends = np.cumsum(sizes)
    bad = np.diff(times) <= 0.0
    joins = ends[:-1]
    bad[joins[(joins > 0) & (joins < len(times))] - 1] = False  # pairs across replicas
    if not bad.any():
        return None
    keep = np.ones(len(times), dtype=bool)
    for lo, hi in zip(ends - sizes, ends):
        top = np.maximum.accumulate(times[lo:hi])
        keep[lo + 1:hi] = top[1:] > top[:-1]
    return keep


def sample_nhpp(rate: RateFunction, rng: np.random.Generator) -> np.ndarray:
    """Failure times on [0, horizon] by inverting the cumulative intensity at
    sorted uniform levels; strictly increasing.

    Draws the count, then n + 1 exponentials.  Raises ValueError before any
    draw if the intensity's integral exceeds 10^7 expected events.
    """
    _check_expected(rate)
    times = rate.inverse_cumulative(_unit_levels(rate.total, rng) * rate.total)
    keep = _first_of_ties(times, [len(times)])
    return times if keep is None else times[keep]


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
    """(failure_times, durations) for one replica: the block route run on
    that replica alone."""
    times, durations, _sizes = _block_events(rate, model, seed, replica, replica + 1)
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
                  stop: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Failure times and durations of replicas first..stop-1, concatenated in
    replica order, and each replica's event count.

    Each replica draws from its own generator, in this order: its count and
    n + 1 exponentials (sample_nhpp's draws), then n component uniforms and
    n duration uniforms (sample_durations' draws).  The block's levels are
    then inverted in one pass, ties dropped with their uniforms, and the
    duration dispatch run once.
    """
    _check_expected(rate)
    total = rate.total
    levels, uniforms = [], []
    for i in range(first, stop):
        rng = replica_rng(seed, i)
        unit = _unit_levels(total, rng)
        levels.append(unit)
        uniforms.append(rng.random((2, len(unit))))  # row 0 component, row 1 duration
    sizes = np.fromiter(map(len, levels), dtype=np.int64, count=len(levels))
    u = np.concatenate(uniforms, axis=1)
    del uniforms
    levels = np.concatenate(levels)
    levels *= total
    times = rate.inverse_cumulative(levels)
    del levels
    keep = _first_of_ties(times, sizes)
    if keep is not None:
        times, u = times[keep], u[:, keep]
        kept = np.concatenate(([0], np.cumsum(keep)))
        ends = np.cumsum(sizes)
        sizes = kept[ends] - kept[ends - sizes]
    durations = model.by_interval(WeibullMixture.from_uniforms, times, u[0], u[1])
    return times, durations, sizes.tolist()


def _runs(sizes: list[int], first: int):
    """(replica, slice) of each replica's run of a block's concatenated
    events, the block starting at replica `first`."""
    lo = 0
    for row, n in enumerate(sizes, first):
        yield row, slice(lo, lo + n)
        lo += n


def _in_blocks(replicas: int, task) -> None:
    """task(first, stop) for each block of _BLOCK replicas, in order, each
    block one run_indexed task, run inline."""
    run_indexed(-(-replicas // _BLOCK),
                lambda b: task(b * _BLOCK, min(replicas, (b + 1) * _BLOCK)), 1)


def _path_counts(rate: RateFunction, model: DurationModel, grid: np.ndarray,
                 replicas: int, seed: int) -> np.ndarray:
    """(replicas, 2, len(grid)): N_f and N_r of every replica at the grid
    times, counted as SamplePath counts them (a jump at t included), each
    by a search of the grid in that replica's own sorted times."""
    out = np.empty((replicas, 2, len(grid)))

    def block(first: int, stop: int) -> None:
        times, durations, sizes = _block_events(rate, model, seed, first, stop)
        recovered = times + durations
        for row, run in _runs(sizes, first):
            out[row, 0] = np.searchsorted(times[run], grid, side="right")
            out[row, 1] = np.searchsorted(np.sort(recovered[run]), grid, side="right")

    _in_blocks(replicas, block)
    return out


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

    counts = np.empty((replicas, len(edges) - 1))

    def block(first: int, stop: int) -> None:
        times, durations, sizes = _block_events(rate, model, seed, first, stop)
        recovered = times + durations
        for row, run in _runs(sizes, first):
            r = np.sort(recovered[run])
            # np.histogram's bins: [e_k, e_k+1), the last one closed
            below = np.searchsorted(r, edges, side="left")
            below[-1] = np.searchsorted(r, edges[-1], side="right")
            counts[row] = np.diff(below)

    _in_blocks(replicas, block)
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
