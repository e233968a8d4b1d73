"""In-order task loop for a fit's lock-step batches and Monte Carlo
blocks, on the calling thread.

It stays a named function because the benchmark's tracer
(``bench/tracer.py``) wraps ``gridres.fitting.run_indexed`` and
``gridres.simulate.run_indexed`` by name and calls the original as
``fn(n, task, threads)``; the seam goes once the program owns its trace.
"""

__all__ = ["run_indexed"]


def run_indexed(n: int, fn, threads=None) -> list:
    """[fn(0), ..., fn(n-1)], in order; `threads` is ignored."""
    return [fn(i) for i in range(n)]
