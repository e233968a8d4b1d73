"""Command line interface.

gridres <ingest|fit|test|simulate|resilience|reconstruct> with global
--seed/--config/--out, each option declared once in OPTIONS.  Precedence
is flags, then the JSON config file (per-command section first, then top
level), then built-in defaults; a config value passes its flag's checks.
Every option's resolved value is echoed into the command's JSON report.
Outputs are byte-identical across reruns with the same inputs and seed;
every command runs on the calling thread, in index order.

Exit codes: 0 success, 2 invalid input or configuration, 3 numerical
non-convergence (partial results are still written, flagged).
"""

import argparse
import dataclasses
import json
import sys
from collections.abc import Callable
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .estimate import estimate_rate, pearson_nhpp_test, qq_points, reconstruct, regular_grid
from .fileio import (
    load_model,
    read_dataset,
    save_model,
    write_dataset,
    write_report,
    write_table,
)
from .fitting import fit_duration_model
from .ingest import DEFAULT_ZONE, ingest_pipeline, normalize_ts
from .rates import RateFunction
from .recovery import SurgeSpec, check_quad_step
from .resilience import (
    infant_aging_split,
    interval_weights,
    resilience_at,
    resilience_curve,
)
from .simulate import mean_paths, simulate_events
from .weibull import DurationModel


class CliError(Exception):
    """Invalid input or configuration; maps to exit code 2."""


def _parse_zone(text: str) -> timezone:
    s = text.strip()
    if s.upper() in ("Z", "UTC"):
        return timezone.utc
    sign = 1
    if s.startswith(("+", "-")):
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    try:
        hh, mm = s.split(":")
        return timezone(sign * timedelta(hours=int(hh), minutes=int(mm)))
    except ValueError:
        raise CliError(f"bad zone {text!r}; expected +HH:MM or -HH:MM") from None


def _parse_when(text: str, zone: timezone) -> datetime:
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise CliError(f"bad timestamp {text!r}; expected ISO-8601") from None
    return normalize_ts(ts, zone)


def _parse_list(text: str, name: str, kind: type = float) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"bad {name} {text!r}; expected comma-separated {kind.__name__}s") from None


class Opt(NamedTuple):
    """One option: flag ``--name`` (dashes for underscores), config key ``name``."""

    name: str
    type: Callable[[str], object] = str
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


GLOBAL_OPTIONS = (
    Opt("seed", int, 0, help="root random seed"),
    Opt("out", str, ".", help="output directory"),
)
# each command's options; comma lists stay text and are parsed by the command
OPTIONS = {
    "ingest": (
        Opt("input", required=True, help="raw outage records, delimited text"),
        Opt("window_start", required=True, help="window start, ISO-8601, inclusive"),
        Opt("window_end", required=True, help="window end, ISO-8601, exclusive"),
        Opt("resolution", int, 1, help="dependent-failure bucket, minutes"),
        Opt("group_rule", str, "max", choices=("max", "first", "mean"),
            help="duration kept for a bucket"),
        Opt("zone", str, DEFAULT_ZONE.tzname(None).removeprefix("UTC"),
            help="zone of naive timestamps, +HH:MM"),
        Opt("delimiter", help="field separator (default tab if the header has one, else comma)"),
    ),
    "fit": (
        Opt("dataset", required=True, help="dataset.csv from ingest"),
        Opt("boundaries", required=True, help="failure-time interval edges, hours, comma list"),
        Opt("components", required=True, help="mixture components per interval, comma list"),
        Opt("tau", float, 5.0, help="moving-average half-width, hours"),
        Opt("bin", float, 1.0, help="rate grid step, hours"),
        Opt("tol", float, 1e-6, help="EM log-likelihood tolerance"),
        Opt("max_iter", int, 200, help="EM iterations per start"),
        Opt("starts", int, 5, help="EM starts per interval"),
    ),
    "test": (
        Opt("dataset", required=True, help="dataset.csv from ingest"),
        Opt("model", required=True, help="model.json from fit"),
        Opt("intervals", int, 400, help="Pearson test cells"),
        Opt("alpha", float, 0.05, help="test level"),
    ),
    "simulate": (
        Opt("model", required=True, help="model.json from fit"),
        Opt("replicas", int, 100, help="Monte Carlo replicas"),
        Opt("horizon", float, help="run length, hours (default the fitted horizon)"),
        Opt("grid_step", float, 1.0, help="paths.csv grid step, hours"),
        Opt("save_events", int, 1, help="replicas written to events.csv"),
        Opt("surge_base", float, help="base failure rate under a surge, per hour"),
        Opt("surge_peak", float, help="surge failure rate, per hour"),
        Opt("surge_end", float, help="end of the surge, hours"),
    ),
    "resilience": (
        Opt("model", required=True, help="model.json from fit"),
        Opt("dataset", help="dataset.csv whose failure times weight the intervals"),
        Opt("weights", help="interval weights, comma list"),
        Opt("grid_step", float, 0.25, help="curve grid step, hours"),
        Opt("grid_max", float, help="curve extent, hours (default 1.2 x the longest duration)"),
        Opt("smoothing", int, 5, help="moving-average width of the curve"),
        Opt("d0", float, help="threshold override, skips the knee search"),
    ),
    "reconstruct": (
        Opt("model", required=True, help="model.json from fit"),
        Opt("mode", str, "both", choices=("piecewise", "stationary", "both"),
            help="duration model behind the curve"),
        Opt("grid_step", float, 1.0, help="nhat.csv grid step, hours"),
        Opt("quad_step", float, 0.05, help="quadrature cell, hours"),
    ),
}
SUMMARIES = {
    "ingest": "parse raw outage records into a dataset",
    "fit": "estimate the failure intensity and duration mixtures",
    "test": "Pearson NHPP test plus QQ diagnostics",
    "simulate": "Monte Carlo outage sample paths",
    "resilience": "resilience curve and threshold",
    "reconstruct": "rebuild the expected outage curve",
}


def load_config(path: str | None) -> dict:
    """The JSON config file, with every key checked against the option table."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    names = {o.name for opts in (GLOBAL_OPTIONS, *OPTIONS.values()) for o in opts}
    for key, value in cfg.items():
        if key in OPTIONS:
            if not isinstance(value, dict):
                raise CliError(f"config section {key!r} must be an object")
            bad = sorted(set(value) - {o.name for o in OPTIONS[key]})
            if bad:
                raise CliError(
                    f"unknown config keys in section {key!r}: {', '.join(bad)}"
                )
        elif key not in names:
            raise CliError(f"unknown config key {key!r}")
    return cfg


def resolve_options(opts: tuple[Opt, ...], args: argparse.Namespace, cfg: dict) -> dict:
    """Flag > config file (per-command section, then top level) > default.

    A config value passes the same type and choice checks as the flag.
    """
    section = cfg.get(args.command, {})
    values = {}
    for opt in opts:
        raw = next((v for v in (getattr(args, opt.name), section.get(opt.name),
                                cfg.get(opt.name)) if v is not None), None)
        if raw is None:
            if opt.required:
                raise CliError(f"{opt.flag} is required")
            values[opt.name] = opt.default
            continue
        if isinstance(raw, (dict, list)):
            raise CliError(f"bad {opt.flag} value {raw!r}; expected a string or number")
        try:
            value = opt.type(str(raw))
        except ValueError:
            raise CliError(f"bad {opt.flag} value {raw!r}") from None
        if opt.choices is not None and value not in opt.choices:
            raise CliError(
                f"bad {opt.flag} value {raw!r}; expected one of {', '.join(opt.choices)}"
            )
        values[opt.name] = value
    return values


def _grid(limit: float, step: float, flags: str) -> np.ndarray:
    """regular_grid(limit, step); `flags` name step and limit in errors."""
    try:
        return regular_grid(limit, step)
    except ValueError as exc:
        raise CliError(f"{flags}: {exc}") from None


def cmd_ingest(o: dict, out: Path) -> int:
    zone = _parse_zone(o["zone"])
    start = _parse_when(o["window_start"], zone)
    end = _parse_when(o["window_end"], zone)
    try:
        text = Path(o["input"]).read_text()
    except OSError as exc:
        raise CliError(f"cannot read input: {exc}") from None
    dataset, issues = ingest_pipeline(
        text, start, end, resolution_minutes=o["resolution"], rule=o["group_rule"],
        zone=zone, delimiter=o["delimiter"],
    )
    prov = dataset.provenance
    if prov.raw == 0:
        raise CliError("empty input: no data rows")
    write_dataset(out / "dataset.csv", dataset)
    write_report(out / "provenance.json", {
        "counts": dataclasses.asdict(prov),
        "consistent": prov.consistent(),
        "issues": [{"line": i.line, "reason": i.reason} for i in issues],
        "origin": start.isoformat(),
        "effective_config": {**o, "window_start": start.isoformat(),
                             "window_end": end.isoformat()},
    })
    print(
        f"ingest: raw={prov.raw} window_dropped={prov.window_dropped} "
        f"merged={prov.merged} negative_dropped={prov.negative_dropped} "
        f"emitted={prov.emitted}"
    )
    return 0


def cmd_fit(o: dict, out: Path) -> int:
    dataset = read_dataset(o["dataset"])
    boundaries = _parse_list(o["boundaries"], "boundaries")
    components = _parse_list(o["components"], "components", int)
    times = dataset.times
    durations = dataset.durations
    try:
        rate = estimate_rate(times, window=o["tau"], bin_width=o["bin"], horizon=boundaries[-1])
    except ValueError as exc:
        raise CliError(f"--tau/--bin/--boundaries: {exc}") from None
    model, fits = fit_duration_model(
        times, durations, boundaries, components,
        seed=o["seed"], tol=o["tol"], max_iter=o["max_iter"], n_starts=o["starts"],
    )
    partial = not all(f.converged for f in fits)
    effective = {**o, "boundaries": list(boundaries), "components": list(components),
                 "partial": partial}
    save_model(out / "model.json", rate, model, fits=fits, config=effective)
    for i, f in enumerate(fits):
        state = "converged" if f.converged else "NOT CONVERGED"
        print(
            f"fit: interval {i} loglik={f.log_likelihood:.6g} "
            f"iterations={f.iterations} {state}"
        )
    if partial:
        print("fit: non-convergence in at least one interval; model flagged partial",
              file=sys.stderr)
        return 3
    return 0


def cmd_test(o: dict, out: Path) -> int:
    dataset = read_dataset(o["dataset"])
    rate, _model, _payload = load_model(o["model"])
    times = dataset.times
    result = pearson_nhpp_test(times, rate, n_intervals=o["intervals"], alpha=o["alpha"])
    theo, emp = qq_points(times, rate)
    write_report(out / "gof.json", {
        "chi_square": result.chi_square,
        "dof": result.dof,
        "threshold": result.threshold,
        "rejected": result.rejected,
        "alpha": result.alpha,
        "triple": result.triple(),
        "n_intervals": result.n_intervals,
        "observed": list(result.observed),
        "expected": list(result.expected),
        "pooled_observed": list(result.pooled_observed),
        "pooled_expected": list(result.pooled_expected),
        "effective_config": o,
    })
    write_table(out / "qq.csv", ["exp1_quantile", "rescaled_gap"], [theo, emp])
    verdict = "rejected" if result.rejected else "not rejected"
    print(f"test: {result.triple()} -> NHPP hypothesis {verdict} at alpha={o['alpha']:g}")
    return 0


def cmd_simulate(o: dict, out: Path) -> int:
    rate, model, _payload = load_model(o["model"])
    replicas = o["replicas"]
    if replicas < 1:
        raise CliError("replicas must be >= 1")
    if o["save_events"] < 0:
        raise CliError("--save-events must be >= 0")
    surge_args = [o["surge_base"], o["surge_peak"], o["surge_end"]]
    horizon = o["horizon"] if o["horizon"] is not None else rate.horizon
    if any(a is not None for a in surge_args):
        if any(a is None for a in surge_args):
            raise CliError("--surge-base, --surge-peak and --surge-end go together")
        base, peak, t1 = surge_args
        spec = SurgeSpec(
            base_rate=base,
            surge_rate=RateFunction.constant(peak, max(t1, horizon)),
            surge_end=t1,
        )
        rate = spec.to_rate_function(horizon)
    elif horizon != rate.horizon:
        last_knot = rate.knots[-1][0]
        if horizon < last_knot:
            raise CliError(f"horizon {horizon} cannot truncate the fitted rate (last knot {last_knot})")
        rate = RateFunction(knots=rate.knots, horizon=horizon)
    grid = _grid(horizon, o["grid_step"], "--horizon/--grid-step")
    summary = mean_paths(rate, model, grid, replicas, o["seed"])
    write_table(
        out / "paths.csv",
        ["t_hours", "nf_mean", "nf_se", "nr_mean", "nr_se", "n_mean", "n_se"],
        [grid, summary["nf_mean"], summary["nf_se"], summary["nr_mean"],
         summary["nr_se"], summary["n_mean"], summary["n_se"]],
    )
    draws = [simulate_events(rate, model, o["seed"], i)
             for i in range(min(o["save_events"], replicas))]
    replica = np.repeat(np.arange(len(draws)), [len(t) for t, _ in draws])
    # np.concatenate needs one array: the empty heads serve --save-events 0
    times = np.concatenate([np.empty(0), *(t for t, _ in draws)])
    durations = np.concatenate([np.empty(0), *(d for _, d in draws)])
    write_table(
        out / "events.csv",
        ["replica", "failure_time_hours", "duration_hours", "recovery_time_hours"],
        [replica, times, durations, times + durations],
    )
    write_report(out / "summary.json", {
        "mean_total_failures": float(summary["nf_mean"][-1]),
        "mean_total_recoveries": float(summary["nr_mean"][-1]),
        "mean_peak_out": float(summary["n_mean"].max()),
        "effective_config": {**o, "horizon": horizon},
    })
    print(f"simulate: {replicas} replicas, mean total failures "
          f"{summary['nf_mean'][-1]:.6g}")
    return 0


def cmd_resilience(o: dict, out: Path) -> int:
    rate, model, _payload = load_model(o["model"])
    dataset = None
    if o["dataset"] is not None and (o["weights"] is None or o["grid_max"] is None):
        dataset = read_dataset(o["dataset"])
    if o["weights"] is not None:
        weights = np.asarray(_parse_list(o["weights"], "weights"))
        source = "explicit"
    elif dataset is not None:
        weights = interval_weights(dataset.times, model.boundaries)
        source = "dataset"
    else:
        weights = interval_weights(rate, model.boundaries)
        source = "rate"
    grid_max = o["grid_max"]
    if grid_max is None and dataset is not None:
        grid_max = 1.2 * float(dataset.durations.max())
    elif grid_max is None:
        try:
            grid_max = 1.2 * max(m.quantile(0.999) for m in model.mixtures)
        except RuntimeError as exc:
            raise CliError(f"cannot size the curve from the model ({exc}); "
                           "give --grid-max") from None
    grid = _grid(grid_max, o["grid_step"], "--grid-max/--grid-step")
    curve = resilience_curve(weights, model, grid, o["smoothing"])
    sdd = np.concatenate(([np.nan], curve.second_derivative, [np.nan]))
    write_table(
        out / "curve.csv",
        ["duration_hours", "restored_fraction", "second_derivative"],
        [curve.grid, curve.values, sdd],
    )
    if o["d0"] is not None:
        d0 = o["d0"]
        s_at_d0 = resilience_at(curve.grid, curve.values, d0)
        d0_source = "override"
    else:
        d0, s_at_d0, d0_source = curve.d0, curve.s_at_d0, "curve"
    split = infant_aging_split(model, d0)
    write_report(out / "resilience.json", {
        "weights": list(weights),
        "weight_source": source,
        "d0_hours": d0,
        "d0_source": d0_source,
        "s_at_d0": s_at_d0,
        "shape": curve.shape,
        "candidates": {"concave": curve.candidates[0], "convex": curve.candidates[1]},
        "intervals": [
            {"interval": i, "within_d0": w, "beyond_d0": b}
            for i, (w, b) in enumerate(split)
        ],
        "effective_config": {**o, "grid_max": grid_max},
    })
    print(f"resilience: d0={d0:g} h s(d0)={s_at_d0:.4f} shape={curve.shape}")
    return 0


def cmd_reconstruct(o: dict, out: Path) -> int:
    rate, model, _payload = load_model(o["model"])
    mode = o["mode"]
    grid = _grid(rate.horizon, o["grid_step"], "--grid-step")
    try:
        check_quad_step(rate.horizon, o["quad_step"])
    except ValueError as exc:
        raise CliError(f"--quad-step: {exc}") from None
    header = ["t_hours", "failure_rate"]
    cols = [grid, rate.value(grid)]
    weights = None
    if mode in ("piecewise", "both"):
        rec = reconstruct(rate, model, grid, o["quad_step"])
        header += ["recovery_rate_piecewise", "expected_out_piecewise"]
        cols += [rec.recovery_rate, rec.expected_out]
    if mode in ("stationary", "both"):
        weights = interval_weights(rate, model.boundaries)
        flat = DurationModel.stationary(model.collapse(weights), horizon=model.boundaries[-1])
        rec = reconstruct(rate, flat, grid, o["quad_step"])
        header += ["recovery_rate_stationary", "expected_out_stationary"]
        cols += [rec.recovery_rate, rec.expected_out]
    write_table(out / "nhat.csv", header, cols)
    write_report(out / "reconstruct.json", {
        "mode": mode,
        "stationary_weights": None if weights is None else list(weights),
        "effective_config": o,
    })
    print(f"reconstruct: mode={mode} grid=[0, {rate.horizon:g}] step={o['grid_step']:g}")
    return 0


def _add_options(parser: argparse.ArgumentParser, opts: tuple[Opt, ...]) -> None:
    for opt in opts:
        note = (" (required)" if opt.required
                else "" if opt.default is None else f" (default {opt.default})")
        parser.add_argument(opt.flag, dest=opt.name, type=opt.type,
                            choices=opt.choices, help=opt.help + note)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridres",
        description="Outage lifecycle modeling: ingest, fit, test, simulate, "
                    "resilience, reconstruct.",
    )
    _add_options(p, GLOBAL_OPTIONS)
    p.add_argument("--config", default=None, help="JSON config file")
    sub = p.add_subparsers(dest="command", required=True)
    for command, opts in OPTIONS.items():
        _add_options(sub.add_parser(command, help=SUMMARIES[command]), opts)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        top = resolve_options(GLOBAL_OPTIONS, args, cfg)
        out = Path(top["out"])
        # the command's resolved options, echoed as its effective configuration
        o = {"command": args.command, "out": str(out),
             **resolve_options(OPTIONS[args.command], args, cfg)}
        if args.command in ("fit", "simulate"):  # the commands that draw random numbers
            o["seed"] = top["seed"]
        out.mkdir(parents=True, exist_ok=True)
        # looked up at call time, so a wrapper set on this module's cmd_* applies
        return globals()[f"cmd_{args.command}"](o, out)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
