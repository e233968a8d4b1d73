"""gridres benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload storm_pipeline --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The script generates the workload's inputs from the seed and
starts one fresh worker process that runs the workload's passes back to
back and, between them, times ``setup_s`` over fresh interpreters (see
worker.py).  The last line of standard output is the JSON result: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Inputs, products,
the full result and the spans of a traced run stay in ``bench/.work/``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# workload -> GRIDRES_THREADS
THREADS = {"storm_pipeline": 1, "bulk_feed": 2, "scenario_sweep": 2}
# the worker stops by --seconds plus its grace period and one more pass;
# past this, run.py gives up on it
WORKER_MARGIN_S = 120


def program_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["GRIDRES_THREADS"] = str(threads)
    # the workload's own thread count is the only parallelism: BLAS pools
    # would add threads beyond the two cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs; returns what the checks expect."""
    import inputs

    if workload == "scenario_sweep":
        (work / "model.json").write_text(inputs.scenario_model_json())
        return {"input_bytes": (work / "model.json").stat().st_size}
    if workload == "storm_pipeline":
        text, provenance = inputs.storm_raw_csv(seed)
        loglik = {"loglik": list(inputs.STORM_LOGLIK)}
    else:
        text, provenance, floor = inputs.bulk_raw_csv(seed)
        loglik = {"loglik_generating": floor}
    (work / "raw.csv").write_text(text)
    return {"provenance": provenance, "input_rows": provenance["raw"], "input_bytes": len(text),
            **loglik}


def host_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        try:
            facts[mod] = __import__(mod).__version__
        except ImportError:
            facts[mod] = None
    return facts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(THREADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "gridres" / "cli.py").is_file():
        print(f"error: no gridres sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    threads = THREADS[args.workload]
    env = program_env(threads)
    expected = prepare(args.workload, args.seed, work)
    (work / "expected.json").write_text(json.dumps(expected))

    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), "--result", str(result_path)]
    timeout = args.seconds + WORKER_MARGIN_S
    # the worker leads its own process group, so that stopping it early
    # also stops a set-up interpreter it is timing
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {timeout} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())

    # names and units come from BENCHMARK.json, the one list of metrics
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = res["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(res["setup_s"]),
            "wall_s": statistics.median(res["wall_s"]),
            "cpu_s": statistics.median(res["cpu_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "gridres_threads": threads,
        "input_rows": expected.get("input_rows"), "input_bytes": expected["input_bytes"],
        "passes_timed": res["passes_timed"], "setup_samples": len(res["setup_s"]),
        "fail_frac": res["failed"] / res["attempted"],
        "problems": res["problems"], "host": host_facts(), "metrics": metrics,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1))
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# " + " ".join(f"{k}={record[k]}" for k in (
        "workload", "seed", "gridres_threads", "input_rows", "input_bytes",
        "passes_timed", "setup_samples", "fail_frac")) + " " + " ".join(f"{k}={v}" for k, v in record["host"].items()))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
