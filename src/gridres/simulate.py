"""Monte Carlo simulation of outage sample paths.

Failure times are drawn by exact time-rescaling (Cinlar 1975): a Poisson
count with mean the integrated intensity, sorted arrival levels on
[0, integral] from normalised cumulative sums of exponentials, each mapped
through the closed-form inverse of the piecewise-quadratic cumulative
intensity.  Durations come from the duration model by exact Weibull
inverse-cdf sampling.  Every replica gets its own generator derived from
the root seed and the replica index.  Replicas run in index order, in
blocks sized by their expected events and grid points: each replica of
a block makes its own draws, in its own order, into buffers that a call
allocates once; the block's levels are then inverted and its durations
dispatched in one call each, and every replica is counted by a search of
the grid in its own sorted times.  So every event is bit for bit that of
one replica at a time.  Each block's counts are folded into exact integer
sums and sums of squares, so a mean or a standard error is a correctly
rounded quotient of exact integers, the same under any block size, and
memory is O(grid) plus one block, whatever the replica count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .parallel import run_indexed
from .rates import RateFunction
from .weibull import DurationModel

__all__ = [
    "MonteCarloRates",
    "replica_rng",
    "simulate_events",
    "monte_carlo_recovery_rate",
    "mean_paths",
]


# expected events per replica (the integrated intensity) allowed
_MAX_EXPECTED = 1e7
# cells, a replica's expected events plus its grid points, that one block
# draws and counts at once: a block holds max(1, _BLOCK_CELLS // cells)
# replicas, so its buffers grow neither with the intensity nor the grid
_BLOCK_CELLS = 2**14


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


def _unit_levels(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """out[:n], n = len(out) - 1, as n sorted uniforms on [0, 1]: the first
    n of n + 1 normalised cumulative exponential sums, no sort."""
    rng.standard_exponential(out=out)
    np.cumsum(out, out=out)
    head = out[:-1]
    head /= out[-1]
    return head


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


def simulate_events(
    rate: RateFunction,
    model: DurationModel,
    seed: int,
    replica: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """(failure_times, durations) for one replica: the block route run on
    that replica alone."""
    times, durations, _, _ = _Draws(rate, model, seed, 1).block(replica, replica + 1)
    return times, durations


class _Draws:
    """One call's event buffers, allocated once and grown only when a block
    draws more events than they hold."""

    def __init__(self, rate: RateFunction, model: DurationModel, seed: int, block: int):
        _check_expected(rate)
        self.rate, self.model, self.seed = rate, model, seed
        mean = block * rate.total
        # rows: levels, then times; component uniforms, then recovery
        # times; duration uniforms; durations
        self._buf = np.empty((4, int(mean + 6.0 * math.sqrt(mean)) + 16))

    def block(self, first: int, stop: int):
        """Failure times, durations and recovery times of replicas
        first..stop-1, concatenated in replica order, and each replica's
        event count.

        Each replica draws from its own generator, in this order: its count
        and n + 1 exponentials, then n component uniforms and n duration
        uniforms.  The block's levels are then inverted in one pass, ties
        dropped with their uniforms, and the duration dispatch run once.
        The arrays are views of the buffers, valid until the next block.
        """
        total = self.rate.total
        sizes = np.empty(stop - first, dtype=np.int64)
        lo = 0
        for row, i in enumerate(range(first, stop)):
            rng = replica_rng(self.seed, i)
            n = rng.poisson(total)
            if lo + n + 1 > self._buf.shape[1]:
                grown = np.empty((4, max(lo + n + 1, 2 * self._buf.shape[1])))
                grown[:, :lo] = self._buf[:, :lo]
                self._buf = grown
            _unit_levels(rng, self._buf[0, lo:lo + n + 1])
            rng.random(out=self._buf[1, lo:lo + n])
            rng.random(out=self._buf[2, lo:lo + n])
            sizes[row] = n
            lo += n
        levels, u_comp, u_dur, durations = self._buf[:, :lo]
        levels *= total
        times = self.rate.inverse_cumulative(levels, out=levels)
        keep = _first_of_ties(times, sizes)
        if keep is not None:
            times, u_comp, u_dur = times[keep], u_comp[keep], u_dur[keep]
            durations = durations[:len(times)]
            kept = np.concatenate(([0], np.cumsum(keep)))
            ends = np.cumsum(sizes)
            sizes = kept[ends] - kept[ends - sizes]
        self.model.from_uniforms(times, u_comp, u_dur, out=durations)
        recovered = np.add(times, durations, out=self._buf[1, :len(times)])
        return times, durations, recovered, sizes


def _runs(sizes):
    """Slice of each replica's run of a block's concatenated events."""
    lo = 0
    for n in sizes.tolist():
        yield slice(lo, lo + n)
        lo += n


def _block_size(rate: RateFunction, points: int) -> int:
    """Replicas per block: _BLOCK_CELLS over a replica's expected events and
    grid points, at least one."""
    return max(1, _BLOCK_CELLS // (math.ceil(rate.total) + points))


def _replica_counts(rate: RateFunction, model: DurationModel, replicas: int, seed: int,
                    shape: tuple[int, ...], count, fold) -> None:
    """count(times, recovered, row) for every replica, block by block, into
    one int64 (block, *shape) buffer, then fold(counts, events) with each
    block's counts and event total.  count may sort `recovered` in place.
    Each block is one run_indexed task."""
    size = min(replicas, _block_size(rate, shape[-1]))
    draws = _Draws(rate, model, seed, size)
    counts = np.empty((size, *shape), dtype=np.int64)

    def block(b: int) -> None:
        first, stop = b * size, min(replicas, (b + 1) * size)
        times, _durations, recovered, sizes = draws.block(first, stop)
        for row, run in zip(counts, _runs(sizes)):
            count(times[run], recovered[run], row)
        fold(counts[:stop - first], len(times))

    run_indexed(-(-replicas // size), block)


class _Moments:
    """Exact sums and sums of squares, over replicas, of integer counts of
    one shape: in int64 while overflow is ruled out, in Python integers
    past that."""

    def __init__(self, shape: tuple[int, ...]):
        self.replicas = 0
        self._sums = np.zeros((2, *shape), dtype=np.int64)  # sums, sums of squares
        self._block = np.empty_like(self._sums)
        self._bound = 0  # no entry of _sums exceeds it
        self._exact = None  # what has left _sums, in Python integers

    def fold(self, counts: np.ndarray, events: int) -> None:
        """Add a block of replicas' counts, (replicas, *shape), whose
        magnitudes sum to at most `events` in every entry; counts is left
        squared."""
        self.replicas += len(counts)
        # a block's sums are at most events, its sums of squares events**2
        bound = events * events
        if self._bound + bound >= 2**63:
            self._exact = self._sums.astype(object) + (0 if self._exact is None else self._exact)
            self._sums[...] = 0
            self._bound = 0
        if bound >= 2**63:
            big = counts.astype(object)
            self._exact = self._exact + np.stack([big.sum(axis=0), (big * big).sum(axis=0)])
            return
        np.add.reduce(counts, axis=0, out=self._block[0])
        np.multiply(counts, counts, out=counts)
        np.add.reduce(counts, axis=0, out=self._block[1])
        self._sums += self._block
        self._bound += bound

    def mean_se(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean S / R and standard error sqrt((R SS - S^2) / (R^2 (R - 1)))
        of every entry, 0 at R = 1: each quotient one correctly rounded
        division of exact integers, in int64 where every integer involved is
        below 2^53 and so exact in float64, else in Python integers."""
        r = self.replicas
        s, ss = self._sums
        # S^2 <= R SS, so R SS bounds every integer but R^2 (R - 1)
        if self._exact is not None or r**3 >= 2**53 or r * int(ss.max(initial=0)) >= 2**53:
            s, ss = self._sums.astype(object) + (0 if self._exact is None else self._exact)
        # at R = 1, R SS - S^2 = 0
        var = (r * ss - s * s) / (r * r * max(r - 1, 1))
        return (s / r).astype(float), np.sqrt(var.astype(float))


def _moments(rate, model, replicas, seed, shape, count) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over replicas of the counts count() takes."""
    moments = _Moments(shape)
    _replica_counts(rate, model, replicas, seed, shape, count, moments.fold)
    return moments.mean_se()


def _count_paths(grid: np.ndarray, times, recovered, row) -> None:
    """N_f, N_r and N = N_f - N_r of one replica at the grid times, each a
    right-continuous count: a jump at exactly t is included at t."""
    row[0] = np.searchsorted(times, grid, side="right")
    recovered.sort()
    row[1] = np.searchsorted(recovered, grid, side="right")
    np.subtract(row[0], row[1], out=row[2])


def _count_bins(edges: np.ndarray, times, recovered, row) -> None:
    """One replica's recoveries in np.histogram's bins: [e_k, e_k+1), the
    last one closed."""
    recovered.sort()
    below = np.searchsorted(recovered, edges, side="left")
    below[-1] = np.searchsorted(recovered, edges[-1], side="right")
    np.subtract(below[1:], below[:-1], out=row[0])


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
    anything.  Replicas run in index order, in blocks, and output is
    reproducible bit for bit.
    """
    edges = np.asarray(edges, dtype=float)
    if len(edges) < 2 or np.any(np.diff(edges) <= 0.0):
        raise ValueError("edges must be increasing with at least one bin")
    if replicas < 100:
        raise ValueError("need at least 100 replicas")

    mean, se = _moments(rate, model, replicas, seed, (1, len(edges) - 1),
                        partial(_count_bins, edges))
    widths = np.diff(edges)
    mean, se = mean[0] / widths, se[0] / widths
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
    mean, se = _moments(rate, model, replicas, seed, (3, len(grid)),
                        partial(_count_paths, grid))
    return {
        "grid": grid,
        "nf_mean": mean[0], "nf_se": se[0],
        "nr_mean": mean[1], "nr_se": se[1],
        "n_mean": mean[2], "n_se": se[2],
    }
