"""Deterministic fan-out for a duration fit's component-count groups.

A fit runs all its starts with one component count in one task, so it
has one task per distinct count; only a fit with mixed counts fans
out.  Monte Carlo replicas run inline (``run_indexed(n, fn, 1)``).
Results are collected in index order, never completion order, so the
thread count cannot change any output.
"""

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["max_threads", "run_indexed"]


def max_threads() -> int:
    """Parallelism cap from GRIDRES_THREADS (default 1)."""
    raw = os.environ.get("GRIDRES_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"GRIDRES_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError("GRIDRES_THREADS must be >= 1")
    return n


def run_indexed(n: int, fn, threads: int | None = None) -> list:
    """[fn(0), ..., fn(n-1)] on `threads` (default GRIDRES_THREADS); inline at 1."""
    threads = max_threads() if threads is None else threads
    if threads <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=min(threads, n)) as pool:
        return list(pool.map(fn, range(n)))
