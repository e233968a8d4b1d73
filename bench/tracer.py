"""Spans and counters recorded from the benchmark's side of the program.

The program has no tracing of its own, so the benchmark replaces selected
functions with timing wrappers, each at the name its caller looks up (for
example ``gridres.cli.fit_duration_model``, which ``cmd_fit`` calls, and
``gridres.fitting.run_indexed``, which ``fit_weibull_mixture`` calls).
Nothing under ``src/`` is edited; ``uninstall`` puts every name back.

A span is ``[id, parent, name, start, end]``; the name's first dotted part
is its layer.  Spans stay in memory and are written out once at the end.
"""

import itertools
import os
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "ingest", "fitting", "parallel", "simulate", "recovery",
          "estimate", "weibull", "resilience", "fileio", "other")
ROOT = "other.pass"


class Recorder:
    """Spans with parents, kept per pass, plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent=None) -> list:
        """Start a span under `parent`, or under this thread's open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        span = [next(self._ids), parent, name, time.perf_counter(), None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, value: float) -> None:
        """Add to a counter; pool threads call this concurrently."""
        with self._lock:
            self.counts[name] += value

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)


def _timed(rec: Recorder, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            after(rec, args, out)
        return out

    return wrapper


def _pooled(rec: Recorder, task_name: str, fn):
    """Wrap run_indexed: one pool span, one child span per task."""

    def wrapper(n, task, threads=None):
        pool = rec.open("parallel.run_indexed")
        cpu0 = time.process_time()

        def traced(i):
            span = rec.open(task_name, parent=pool[0])
            try:
                return task(i)
            finally:
                rec.close(span)

        try:
            return fn(n, traced, threads)
        finally:
            rec.close(pool)
            rec.add("parallel.cpu_s", time.process_time() - cpu0)
            rec.add("parallel.tasks", n)

    return wrapper


# hooks that read counts off a wrapped call's arguments and result

def _fits(rec, args, out):
    _model, fits = out
    rec.add("fitting.em_iterations", sum(f.iterations for f in fits))
    rec.add("fitting.converged", sum(bool(f.converged) for f in fits))
    rec.add("fitting.intervals", len(fits))


def _ingested(rec, args, out):
    prov = out[0].provenance
    rec.add("ingest.rows", prov.raw)
    rec.add("ingest.emitted", prov.emitted)


def _events(rec, args, out):
    rec.add("simulate.events", len(out[0]))


def _thinning(rec, args, out):
    # computed, not counted: the expected share of thinning candidates kept
    rate, replicas = args[0], args[3]
    rec.add("simulate.accepted_expected", rate.total * replicas)
    rec.add("simulate.candidates_expected", rate.peak * rate.horizon * replicas)


def _quad_cells(rec, args, out):
    # computed from the grid and quad_step: one recovery_rate and one
    # expected_recovered quadrature per grid point, before cut insertion
    grid, quad_step = args[2], args[3]
    cells = sum(max(1, int(round(t / quad_step))) for t in grid if t > 0.0)
    rec.add("recovery.quad_cells", 2 * cells)


def _cdf_call(rec, args, out):
    rec.add("weibull.cdf_calls", 1)


def _written(rec, args, out):
    rec.add("fileio.bytes_written", os.path.getsize(args[0]))


def install(rec: Recorder):
    """Wrap the program's public entry points; returns the undo list."""
    import gridres.cli as cli
    import gridres.estimate as estimate
    import gridres.fitting as fitting
    import gridres.ingest as ingest
    import gridres.simulate as simulate
    import gridres.weibull as weibull

    plan = [
        (cli, "cmd_ingest", "cli.ingest", None),
        (cli, "cmd_fit", "cli.fit", None),
        (cli, "cmd_test", "cli.test", None),
        (cli, "cmd_simulate", "cli.simulate", None),
        (cli, "cmd_resilience", "cli.resilience", None),
        (cli, "cmd_reconstruct", "cli.reconstruct", None),
        (cli, "ingest_pipeline", "ingest.pipeline", _ingested),
        (ingest, "parse_records", "ingest.parse", None),
        (cli, "fit_duration_model", "fitting.fit", _fits),
        (fitting, "fit_weibull_mixture", "fitting.interval", None),
        (cli, "estimate_rate", "estimate.rate", None),
        (cli, "pearson_nhpp_test", "estimate.pearson", None),
        (cli, "qq_points", "estimate.qq", None),
        (cli, "reconstruct", "estimate.reconstruct", _quad_cells),
        (estimate, "recovery_rate_curve", "recovery.rate_curve", None),
        (estimate, "expected_recovered", "recovery.expected_recovered", None),
        (cli, "mean_paths", "simulate.mean_paths", _thinning),
        (simulate, "simulate_events", "simulate.replica_events", _events),
        (cli, "simulate_events", "simulate.save_events", None),
        (cli, "resilience_curve", "resilience.curve", None),
        (cli, "interval_weights", "resilience.weights", None),
        (cli, "infant_aging_split", "resilience.split", None),
        (cli, "read_dataset", "fileio.read", None),
        (cli, "load_model", "fileio.load_model", None),
        (cli, "write_table", "fileio.write", _written),
        (cli, "write_report", "fileio.write", _written),
        (cli, "write_dataset", "fileio.write", _written),
        (cli, "save_model", "fileio.write", _written),
        (weibull.DurationModel, "cdf", "weibull.model_cdf", None),
        (weibull.WeibullMixture, "cdf", "weibull.cdf", _cdf_call),
        (weibull.WeibullMixture, "quantile", "weibull.quantile", None),
    ]
    undo = []
    for owner, attr, name, after in plan:
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, _timed(rec, name, original, after))
    for owner, task_name in ((fitting, "fitting.start"), (simulate, "simulate.replica")):
        undo.append((owner, "run_indexed", owner.run_indexed))
        owner.run_indexed = _pooled(rec, task_name, owner.run_indexed)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def check_spans(spans: list[list], root: list) -> list[str]:
    """Problems with the span tree of one traced pass.

    Every span is closed, ``root`` is the only span without a parent, and
    every other span's parent was recorded and is open over the whole of
    the child.
    """
    by_id = {s[0]: s for s in spans}
    problems = []
    for s in spans:
        sid, parent, name, start, end = s
        if end is None:
            problems.append(f"span {name} was never closed")
        elif parent is None:
            if s is not root:
                problems.append(f"span {name} has no parent")
        elif parent not in by_id:
            problems.append(f"span {name} has an unknown parent {parent}")
        else:
            p = by_id[parent]
            if p[4] is None or start < p[3] or end > p[4]:
                problems.append(f"span {name} is not inside its parent {p[2]}")
    return problems[:5]


def self_times(spans: list[list]) -> dict[str, float]:
    """Wall time per layer that no child span covers.

    A sweep over span boundaries hands each instant to the open spans that
    have no open child, split evenly when threads run several at once.
    While the root span is open some span is always a leaf, so on a tree
    that check_spans accepts the layers add up to the root span's wall
    time by construction.
    """
    by_id = {s[0]: s for s in spans}
    events = sorted(
        [(s[3], 1, s[0]) for s in spans] + [(s[4], 0, s[0]) for s in spans]
    )
    open_children: defaultdict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    out = dict.fromkeys(LAYERS, 0.0)
    prev = None
    for t, starting, sid in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[by_id[leaf][2].split(".")[0]] += share
        prev = t
        parent = by_id[sid][1]
        if starting:
            leaves.add(sid)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            leaves.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out
