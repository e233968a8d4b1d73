"""One workload in one fresh process: passes back to back, checked.

run.py starts this with the generated inputs already on disk and reads the
JSON it writes.  A pass runs the workload's ``gridres.cli.main`` commands
in-process; only the commands are timed.  The first pass is a warm-up:
its products are checked for correctness and become the reference every
later pass must match byte for byte.  In an untraced run, each pass is
followed by a fresh interpreter timed for ``setup_s``, so set-up is sampled
over the same stretch of time as the passes.  In a traced run, traced and
untraced passes alternate so the tracing overhead can be read off the
difference.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import tracer as tracing

# relative tolerance on each storm interval's log-likelihood against the
# recorded inputs.STORM_LOGLIK
LOGLIK_RTOL = 1e-4
# bulk feed: the fitted log-likelihood minus that of the generating mixture
# on the same sample must lie in this band (nats, per interval).  Maximum
# likelihood cannot fall below the generating mixture; EM at the program's
# tolerance stops within 0.01 nats of its optimum, and the model-size gain
# is about chi2(8)/2, 0.5 to 12.4 nats over seeds 0-39.
LOGLIK_BAND = (-0.1, 40.0)
# at least this many timed passes, however short --seconds is
MIN_PASSES = 3
# past --seconds plus this grace, stop as soon as there is one timed pass
# (one of each kind in a traced run), so that a slow program is still measured
GRACE_S = 60.0


def _storm_commands(w: Path, seed: int) -> list[list[str]]:
    from inputs import STORM_BOUNDARIES, STORM_COMPONENTS, STORM_WINDOW

    run, model, data = str(w / "run"), str(w / "run" / "model.json"), str(w / "run" / "dataset.csv")
    return [
        ["--out", run, "ingest", "--input", str(w / "raw.csv"),
         "--window-start", STORM_WINDOW[0], "--window-end", STORM_WINDOW[1]],
        ["--seed", "11", "--out", run, "fit", "--dataset", data,
         "--boundaries", STORM_BOUNDARIES, "--components", STORM_COMPONENTS],
        ["--out", run, "test", "--dataset", data, "--model", model],
        ["--seed", str(seed), "--out", run, "simulate", "--model", model, "--replicas", "100"],
        ["--out", run, "resilience", "--model", model, "--dataset", data],
        ["--out", run, "reconstruct", "--model", model],
    ]


def _bulk_commands(w: Path, seed: int) -> list[list[str]]:
    from inputs import BULK_BOUNDARIES, BULK_COMPONENTS, BULK_WINDOW

    run = str(w / "run")
    return [
        ["--out", run, "ingest", "--input", str(w / "raw.csv"),
         "--window-start", BULK_WINDOW[0], "--window-end", BULK_WINDOW[1]],
        ["--seed", "11", "--out", run, "fit", "--dataset", str(w / "run" / "dataset.csv"),
         "--boundaries", BULK_BOUNDARIES, "--components", BULK_COMPONENTS],
    ]


def _scenario_commands(w: Path, seed: int) -> list[list[str]]:
    model, run = str(w / "model.json"), w / "run"
    return [
        ["--seed", str(seed), "--out", str(run / "plain"), "simulate", "--model", model,
         "--replicas", "1000"],
        ["--seed", str(seed), "--out", str(run / "surge"), "simulate", "--model", model,
         "--replicas", "1000", "--surge-base", "3", "--surge-peak", "40", "--surge-end", "12"],
        ["--out", str(run / "resilience"), "resilience", "--model", model],
        ["--out", str(run / "reconstruct"), "reconstruct", "--model", model, "--mode", "both"],
    ]


COMMANDS = {
    "storm_pipeline": _storm_commands,
    "bulk_feed": _bulk_commands,
    "scenario_sweep": _scenario_commands,
}


def _table(path: Path) -> dict[str, list[float]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cols = list(zip(*(map(float, line.split(",")) for line in lines[1:])))
    return dict(zip(header, cols))


def check_products(workload: str, w: Path, expected: dict) -> list[str]:
    """Correctness of one pass's products; returns the failed checks."""
    run = w / "run"
    problems = []
    if workload in ("storm_pipeline", "bulk_feed"):
        prov = json.loads((run / "provenance.json").read_text())
        counts = prov["counts"]
        total = sum(counts[k] for k in ("malformed", "window_dropped", "merged",
                                        "negative_dropped", "emitted"))
        if total != counts["raw"] or not prov["consistent"]:
            problems.append(f"provenance identity broken: {counts}")
        if counts != expected["provenance"]:
            problems.append(f"provenance {counts} != generated {expected['provenance']}")
        mixtures = json.loads((run / "model.json").read_text())["durations"]["mixtures"]
        got = [m["log_likelihood"] for m in mixtures]
        if not all(m["converged"] for m in mixtures):
            problems.append("fit did not converge")
        if workload == "storm_pipeline":
            ref = expected["loglik"]
            if len(ref) != len(got) or any(
                abs(g - r) > LOGLIK_RTOL * abs(r) for g, r in zip(got, ref)
            ):
                problems.append(f"log-likelihoods {got} differ from recorded {ref}")
        else:
            floor = expected["loglik_generating"]
            lo, hi = LOGLIK_BAND
            if len(floor) != len(got) or any(
                not lo <= g - f <= hi for g, f in zip(got, floor)
            ):
                problems.append(f"log-likelihoods {got} not within {LOGLIK_BAND} of "
                                f"the generating mixtures' {floor}")
    paths = {"storm_pipeline": [run / "paths.csv"],
             "scenario_sweep": [run / "plain" / "paths.csv", run / "surge" / "paths.csv"]}
    for path in paths.get(workload, []):
        t = _table(path)
        for nf, nr, n in zip(t["nf_mean"], t["nr_mean"], t["n_mean"]):
            if abs(n - (nf - nr)) > 1e-8 * (abs(nf) + abs(nr)) + 1e-12:
                problems.append(f"{path.parent.name}: n_mean != nf_mean - nr_mean")
                break
    if workload == "scenario_sweep":
        # Monte Carlo against the reconstruct quadrature: the simulated mean
        # number out must sit within 6 standard errors plus 1% of the peak
        sim = _table(run / "plain" / "paths.csv")
        rec = _table(run / "reconstruct" / "nhat.csv")
        peak = max(rec["expected_out_piecewise"])
        for n, se, e in zip(sim["n_mean"], sim["n_se"], rec["expected_out_piecewise"]):
            if abs(n - e) > 6.0 * se + 0.01 * peak:
                problems.append(f"simulated N(t)={n} vs reconstructed {e}")
                break
    return problems


def digest(run: Path) -> dict[str, str]:
    return {
        str(p.relative_to(run)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run.rglob("*")) if p.is_file()
    }


def time_setup() -> float:
    """Wall time of a fresh interpreter importing gridres.cli.

    No timeout: with one, the wait polls and rounds each sample up to the
    next 50 ms poll.  run.py kills this process group if the run overruns.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gridres.cli"], check=True)
    return time.perf_counter() - t0


def run_pass(main, commands) -> tuple[float, float, list[str]]:
    """Run the commands; returns wall, CPU and any command failures."""
    errors = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cpu0, t0 = time.process_time(), time.perf_counter()
        for argv in commands:
            command = argv[argv.index("--out") + 2]
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects a command line this way
                rc = exc.code
            except Exception:  # a traceback is a failed command, not a dead run
                errors.append(f"{command} raised:\n{traceback.format_exc(limit=5)}")
                continue
            if rc != 0:
                errors.append(f"{command} exited {rc}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if errors:
        errors.append(sink.getvalue()[-2000:])
    return wall, cpu, errors


def layer_metrics(rec: tracing.Recorder, root: list) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    incl: defaultdict[str, float] = defaultdict(float)
    longest: defaultdict[str, float] = defaultdict(float)
    for s in rec.spans:
        d = s[4] - s[3]
        incl[s[2]] += d
        longest[s[2]] = max(longest[s[2]], d)
    c = rec.counts

    def ratio(a, b):
        return a / b if b > 0.0 else 0.0

    m = {f"cli.{stage}_s": incl[f"cli.{stage}"]
         for stage in ("ingest", "fit", "test", "simulate", "resilience", "reconstruct")}
    m.update({
        "fitting.fit_s": incl["fitting.fit"],
        "fitting.interval_s_max": longest["fitting.interval"],
        "fitting.em_iterations": c["fitting.em_iterations"],
        "fitting.converged_frac": ratio(c["fitting.converged"], c["fitting.intervals"]),
        "ingest.pipeline_s": incl["ingest.pipeline"],
        "ingest.parse_s": incl["ingest.parse"],
        "ingest.rows": c["ingest.rows"],
        "ingest.rows_per_s": ratio(c["ingest.rows"], incl["ingest.pipeline"]),
        "ingest.emitted_frac": ratio(c["ingest.emitted"], c["ingest.rows"]),
        "parallel.pool_s": incl["parallel.run_indexed"],
        "parallel.tasks": c["parallel.tasks"],
        "parallel.cpu_over_wall": ratio(c["parallel.cpu_s"], incl["parallel.run_indexed"]),
        "simulate.mean_paths_s": incl["simulate.mean_paths"],
        "simulate.events": c["simulate.events"],
        "simulate.events_per_s": ratio(c["simulate.events"], incl["simulate.mean_paths"]),
        "simulate.save_events_s": incl["simulate.save_events"],
        "simulate.thinning_accept": ratio(c["simulate.accepted_expected"],
                                          c["simulate.candidates_expected"]),
        "recovery.rate_curve_s": incl["recovery.rate_curve"],
        "recovery.expected_recovered_s": incl["recovery.expected_recovered"],
        "recovery.quad_cells": c["recovery.quad_cells"],
        "recovery.cells_per_s": ratio(c["recovery.quad_cells"],
                                      incl["recovery.rate_curve"]
                                      + incl["recovery.expected_recovered"]),
        "estimate.reconstruct_s": incl["estimate.reconstruct"],
        "estimate.rate_s": incl["estimate.rate"],
        "estimate.pearson_s": incl["estimate.pearson"],
        "estimate.qq_s": incl["estimate.qq"],
        "weibull.cdf_calls": c["weibull.cdf_calls"],
        "weibull.quantile_s": incl["weibull.quantile"],
        "resilience.curve_s": incl["resilience.curve"],
        "resilience.weights_s": incl["resilience.weights"],
        "resilience.split_s": incl["resilience.split"],
        "fileio.read_s": incl["fileio.read"],
        "fileio.write_s": incl["fileio.write"],
        "fileio.load_model_s": incl["fileio.load_model"],
        "fileio.bytes_written": c["fileio.bytes_written"],
        "trace.spans": float(len(rec.spans)),
        "trace.wall_s": root[4] - root[3],
    })
    m.update({f"self.{layer}_s": v for layer, v in tracing.self_times(rec.spans).items()})
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="directory holding the generated inputs")
    p.add_argument("--result", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    w = Path(args.work)
    expected = json.loads((w / "expected.json").read_text())

    t0 = time.perf_counter()
    from gridres.cli import main as cli_main
    import_s = time.perf_counter() - t0
    commands = COMMANDS[args.workload](w, args.seed)
    run = w / "run"

    attempted = failed = 0
    problems: list[str] = []
    walls, cpus, traced, setups = [], [], [], []
    rec = tracing.Recorder()
    spans_out: list[list] = []
    ref_digest, ref_problems = None, []
    start = time.perf_counter()
    passes = 0
    while True:
        timed = passes > 0
        elapsed = time.perf_counter() - start
        if passes > MIN_PASSES and elapsed >= args.seconds:
            break
        if passes > 1 + args.trace and elapsed >= args.seconds + GRACE_S:
            break
        traced_pass = bool(args.trace) and timed and passes % 2 == 0
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir(parents=True)
        if traced_pass:
            rec.reset()
            undo = tracing.install(rec)
            root = rec.open(tracing.ROOT)
            try:
                wall, cpu, errors = run_pass(cli_main, commands)
            finally:
                rec.close(root)
                tracing.uninstall(undo)
        else:
            wall, cpu, errors = run_pass(cli_main, commands)
        passes += 1
        attempted += 1
        pass_problems = list(errors)
        if traced_pass:
            pass_problems += tracing.check_spans(rec.spans, root)
            layers = layer_metrics(rec, root)
        if not errors:
            got = digest(run)
            if ref_digest is None:
                ref_digest = got
                try:
                    ref_problems = check_products(args.workload, w, expected)
                except (OSError, KeyError, ValueError) as exc:
                    ref_problems = [f"products missing or malformed: {exc!r}"]
                pass_problems += ref_problems
            elif got != ref_digest:
                changed = sorted(k for k in set(got) | set(ref_digest) if got.get(k) != ref_digest.get(k))
                pass_problems.append(f"products differ from the first pass: {changed}")
            elif ref_problems:
                pass_problems.append("same products as the first pass, which failed its checks")
        if pass_problems:
            failed += 1
            problems += pass_problems
        if not args.trace:
            # one fresh interpreter per pass: it finds the bytecode cache
            # this process's import wrote; more would leave fewer passes
            setups.append(time_setup())
        if not timed:
            continue
        if traced_pass:
            traced.append((wall, layers))
            spans_out.extend(rec.spans)
        else:
            walls.append(wall)
            cpus.append(cpu)

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "passes_timed": len(walls) + len(traced), "import_s": import_s,
        "wall_s": walls, "cpu_s": cpus, "setup_s": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        traced.sort(key=lambda x: x[0])
        layers = traced[(len(traced) - 1) // 2][1]  # the lower-median pass
        layers["trace.untraced_wall_s"] = statistics.median(walls)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        result["layers"] = layers
        (w / "spans.json").write_text(
            json.dumps({"fields": ["id", "parent", "name", "start", "end"], "spans": spans_out})
        )
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
