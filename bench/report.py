"""Run every workload once and print its metrics, one row per workload.

    python3 bench/report.py --seed 1            # end-to-end metrics
    python3 bench/report.py --seed 1 --trace 1  # per-layer metrics

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

Each row names the workload, its seed, GRIDRES_THREADS, input size and
fail_frac (failed passes / attempted passes; a pass fails when a command
exits non-zero or a correctness check fails), then every metric as
``name=value unit``.  Exits 1 if any workload fails a check.
"""

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, THREADS


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    ok = True
    host = None
    for workload in THREADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        record = json.loads((HERE / ".work" / workload / "record.json").read_text())
        host = record["host"]
        ok &= record["fail_frac"] == 0.0
        head = (f"{workload:<15} seed={record['seed']} threads={record['gridres_threads']} "
                f"input_rows={record['input_rows']} input_bytes={record['input_bytes']} "
                f"passes={record['passes_timed']} setup_samples={record['setup_samples']} fail_frac={record['fail_frac']:.3g}")
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in record["metrics"].items()]
        print(head + " | " + "  ".join(cells))
        for problem in record["problems"]:
            print(f"  check failed: {problem}")
    if host:
        print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
