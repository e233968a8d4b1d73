"""Command line runs end to end: pipeline products, determinism, exit codes."""

import argparse
import contextlib
import copy
import csv
import importlib
import io
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridres
from gridres import DurationModel, RateFunction, WeibullMixture
from gridres import cli
from gridres.cli import build_parser, main
from gridres.fileio import load_model, save_model

from conftest import REFERENCE_BOUNDARIES, REFERENCE_COMPONENTS, WINDOW_END, WINDOW_START, make_raw_csv

BOUNDARIES = "0,12,20,28,36,45"
COMMANDS = ("ingest", "fit", "test", "simulate", "resilience", "reconstruct")


def assert_lists_commands(help_text):
    """Every subcommand is among the choices that `--help` offers."""
    choices = re.search(r"\{([\w,]+)\}", help_text)
    assert choices is not None, help_text
    missing = set(COMMANDS) - set(choices.group(1).split(","))
    assert not missing, help_text


def checkout_env():
    """The environment with the imported gridres package first on PYTHONPATH."""
    package_root = str(Path(gridres.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def read_csv_columns(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, cell in zip(header, line.split(",")):
            cols[h].append(float(cell) if cell != "nan" else np.nan)
    return {h: np.asarray(v) for h, v in cols.items()}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "raw.csv").write_text(make_raw_csv())
    return root


@pytest.fixture(scope="module")
def pipeline(workspace):
    """Run all six commands once, in dependency order, into one directory."""
    out = workspace / "run"
    commands = [
        ["--out", str(out), "ingest",
         "--input", str(workspace / "raw.csv"),
         "--window-start", WINDOW_START, "--window-end", WINDOW_END],
        ["--seed", "11", "--out", str(out), "fit",
         "--dataset", str(out / "dataset.csv"),
         "--boundaries", BOUNDARIES, "--components", "2,2,2,2,2",
         "--starts", "2", "--max-iter", "500"],
        ["--out", str(out), "test",
         "--dataset", str(out / "dataset.csv"),
         "--model", str(out / "model.json")],
        ["--seed", "11", "--out", str(out), "simulate",
         "--model", str(out / "model.json"),
         "--replicas", "30", "--grid-step", "1", "--save-events", "2"],
        ["--out", str(out), "resilience",
         "--model", str(out / "model.json"),
         "--dataset", str(out / "dataset.csv"),
         "--grid-max", "60", "--grid-step", "0.5"],
        ["--out", str(out), "reconstruct",
         "--model", str(out / "model.json"),
         "--grid-step", "5", "--quad-step", "0.1"],
    ]
    for argv in commands:
        assert main(argv) == 0, f"command failed: {argv}"
    return out, commands


EXPECTED_FILES = (
    "dataset.csv", "provenance.json", "model.json", "gof.json", "qq.csv",
    "paths.csv", "events.csv", "summary.json", "curve.csv", "resilience.json",
    "nhat.csv", "reconstruct.json",
)
# each command's JSON report and the key its effective configuration sits under
REPORTS = {
    "ingest": ("provenance.json", "effective_config"),
    "fit": ("model.json", "config"),
    "test": ("gof.json", "effective_config"),
    "simulate": ("summary.json", "effective_config"),
    "resilience": ("resilience.json", "effective_config"),
    "reconstruct": ("reconstruct.json", "effective_config"),
}


class TestPipeline:
    def test_all_products_written(self, pipeline):
        out, _ = pipeline
        for name in EXPECTED_FILES:
            assert (out / name).exists(), name

    def test_provenance_report(self, pipeline):
        out, _ = pipeline
        report = json.loads((out / "provenance.json").read_text())
        assert report["counts"] == {
            "raw": 5152, "malformed": 0, "window_dropped": 3147,
            "merged": 1540, "negative_dropped": 2, "emitted": 463,
        }
        assert report["consistent"] is True
        assert report["issues"] == []
        assert report["effective_config"]["group_rule"] == "max"

    def test_model_file_contents(self, pipeline):
        out, _ = pipeline
        payload = json.loads((out / "model.json").read_text())
        assert payload["rate"]["horizon"] == 45.0
        assert len(payload["rate"]["knots"]) >= 2
        mixtures = payload["durations"]["mixtures"]
        assert len(mixtures) == 5
        for m in mixtures:
            assert m["converged"] is True
            weights = [c[0] for c in m["components"]]
            assert sum(weights) == pytest.approx(1.0, abs=1e-6)
        assert payload["config"]["seed"] == 11

    def test_gof_report_shape(self, pipeline):
        out, _ = pipeline
        report = json.loads((out / "gof.json").read_text())
        assert re.fullmatch(r"\(\d+\.\d{2}, \d+, \d+\.\d{2}\)", report["triple"])
        assert isinstance(report["rejected"], bool)
        assert report["dof"] >= 1
        # the observed table counts time cells by outcome count, so it
        # sums to the number of cells, not the number of events
        assert sum(report["pooled_observed"]) == report["n_intervals"] == 400
        qq_rows = (out / "qq.csv").read_text().strip().splitlines()
        assert len(qq_rows) == 1 + 463

    def test_paths_identity_and_se(self, pipeline):
        out, _ = pipeline
        cols = read_csv_columns(out / "paths.csv")
        np.testing.assert_allclose(
            cols["n_mean"], cols["nf_mean"] - cols["nr_mean"], atol=1e-6
        )
        assert cols["nf_mean"][0] == 0.0
        assert np.all(np.diff(cols["nf_mean"]) >= 0.0)
        assert np.all(cols["nf_se"] >= 0.0)

    def test_events_table(self, pipeline):
        out, _ = pipeline
        cols = read_csv_columns(out / "events.csv")
        assert set(np.unique(cols["replica"])) == {0.0, 1.0}
        np.testing.assert_allclose(
            cols["recovery_time_hours"],
            cols["failure_time_hours"] + cols["duration_hours"],
            rtol=1e-8,
        )

    def test_resilience_report(self, pipeline):
        out, _ = pipeline
        report = json.loads((out / "resilience.json").read_text())
        assert report["weight_source"] == "dataset"
        # report cells carry 9 significant digits, so the sum is only as exact
        assert sum(report["weights"]) == pytest.approx(1.0, abs=1e-6)
        assert 0.0 < report["d0_hours"] <= 60.0
        assert 0.0 < report["s_at_d0"] < 1.0
        assert len(report["intervals"]) == 5
        curve = read_csv_columns(out / "curve.csv")
        s = curve["restored_fraction"]
        assert np.all(np.diff(s) >= -1e-12)
        assert s[0] == 0.0

    def test_reconstruct_columns(self, pipeline):
        out, _ = pipeline
        cols = read_csv_columns(out / "nhat.csv")
        for name in (
            "t_hours", "failure_rate",
            "recovery_rate_piecewise", "expected_out_piecewise",
            "recovery_rate_stationary", "expected_out_stationary",
        ):
            assert name in cols, name
        assert cols["expected_out_piecewise"][0] == 0.0
        assert np.all(cols["expected_out_piecewise"] >= 0.0)
        assert np.all(cols["expected_out_stationary"] >= 0.0)

    def test_every_option_echoed(self, pipeline):
        out, _ = pipeline
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command, (name, key) in REPORTS.items():
            dests = {a.dest for a in sub.choices[command]._actions} - {"help"}
            echoed = json.loads((out / name).read_text())[key]
            assert dests <= set(echoed), (command, sorted(dests - set(echoed)))

    def test_rerun_is_byte_identical(self, pipeline):
        out, commands = pipeline
        before = {name: (out / name).read_bytes() for name in EXPECTED_FILES}
        for argv in commands:
            assert main(argv) == 0
        for name in EXPECTED_FILES:
            assert (out / name).read_bytes() == before[name], name


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "model.json"
    rate = RateFunction.constant(3.0, 12.0)
    mix = WeibullMixture(components=((1.0, 2.0, 1.0),))
    save_model(path, rate, DurationModel.stationary(mix, horizon=12.0))
    return path


class TestDeterminism:
    def test_seed_changes_events(self, tiny_model, tmp_path):
        outs = {}
        for seed, name in ((1, "a"), (2, "b"), (1, "c")):
            out = tmp_path / name
            rc = main(["--seed", str(seed), "--out", str(out), "simulate",
                       "--model", str(tiny_model), "--replicas", "3",
                       "--grid-step", "1"])
            assert rc == 0
            outs[name] = (out / "events.csv").read_bytes()
        assert outs["a"] != outs["b"]
        assert outs["a"] == outs["c"]

    def test_out_directory_created(self, tiny_model, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        rc = main(["--out", str(out), "reconstruct", "--model", str(tiny_model),
                   "--grid-step", "3"])
        assert rc == 0
        assert (out / "nhat.csv").exists()


class TestConfigPrecedence:
    def grid_spacing(self, out):
        cols = read_csv_columns(out / "paths.csv")
        return float(np.diff(cols["t_hours"])[0])

    def test_flag_beats_section_beats_top_level(self, tiny_model, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_step": 4.0,
            "simulate": {"grid_step": 2.0, "replicas": 2},
        }))
        base = ["--config", str(cfg), "simulate", "--model", str(tiny_model)]

        out_flag = tmp_path / "flag"
        assert main(["--out", str(out_flag)] + base + ["--grid-step", "1.0"]) == 0
        assert self.grid_spacing(out_flag) == 1.0

        out_section = tmp_path / "section"
        assert main(["--out", str(out_section)] + base) == 0
        assert self.grid_spacing(out_section) == 2.0

        cfg.write_text(json.dumps({"grid_step": 4.0, "simulate": {"replicas": 2}}))
        out_top = tmp_path / "top"
        assert main(["--out", str(out_top)] + base) == 0
        assert self.grid_spacing(out_top) == 4.0

    def test_effective_config_echoed(self, tiny_model, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"replicas": 2, "grid_step": 3.0}}))
        out = tmp_path / "echo"
        assert main(["--config", str(cfg), "--out", str(out), "simulate",
                     "--model", str(tiny_model)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["effective_config"]["grid_step"] == 3.0
        assert summary["effective_config"]["replicas"] == 2

    def test_unknown_top_level_key_rejected(self, tiny_model, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_stepp": 1.0}))
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                   "simulate", "--model", str(tiny_model)])
        assert rc == 2

    def test_unknown_section_key_rejected(self, tiny_model, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"replica_count": 5}}))
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                   "simulate", "--model", str(tiny_model)])
        assert rc == 2

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "replicas", 2.7),
        ("ingest", "group_rule", "median"),
    ])
    def test_config_value_checked_like_flag(self, command, key, value, tiny_model,
                                            workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({command: {key: value}}))
        required = {
            "simulate": ["--model", str(tiny_model)],
            "ingest": ["--input", str(workspace / "raw.csv"),
                       "--window-start", WINDOW_START, "--window-end", WINDOW_END],
        }[command]
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "x"), command] + required)
        assert rc == 2
        assert "--" + key.replace("_", "-") in capsys.readouterr().err

    def test_config_must_be_json(self, tiny_model, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("grid_step: 4")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                   "simulate", "--model", str(tiny_model)])
        assert rc == 2


class TestExitCodes:
    def test_missing_required_flag(self, tmp_path):
        assert main(["--out", str(tmp_path), "fit", "--boundaries", "0,1"]) == 2

    def test_missing_input_file(self, tmp_path):
        rc = main(["--out", str(tmp_path), "ingest",
                   "--input", str(tmp_path / "nope.csv"),
                   "--window-start", WINDOW_START, "--window-end", WINDOW_END])
        assert rc == 2

    def test_empty_input(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("id,timestamp,duration_hours\n")
        rc = main(["--out", str(tmp_path), "ingest", "--input", str(raw),
                   "--window-start", WINDOW_START, "--window-end", WINDOW_END])
        assert rc == 2

    def test_bad_zone(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("id,timestamp,duration_hours\na,2008-09-12T08:00,1.0\n")
        rc = main(["--out", str(tmp_path), "ingest", "--input", str(raw),
                   "--window-start", WINDOW_START, "--window-end", WINDOW_END,
                   "--zone", "central"])
        assert rc == 2

    def test_bad_reconstruct_mode_flag(self, tiny_model, tmp_path):
        # argparse rejects values outside choices= with usage + exit 2
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "reconstruct",
                  "--model", str(tiny_model), "--mode", "sideways"])
        assert exc.value.code == 2

    def test_bad_reconstruct_mode_config(self, tiny_model, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reconstruct": {"mode": "sideways"}}))
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                   "reconstruct", "--model", str(tiny_model)])
        assert rc == 2

    def test_unbracketed_quantile_asks_for_grid_max(self, tmp_path, capsys):
        # shape 0.05 puts the 0.999 quantile past the bracket search's reach
        path = tmp_path / "m.json"
        mix = WeibullMixture(components=((1.0, 1.0, 0.05),))
        save_model(path, RateFunction.constant(3.0, 12.0),
                   DurationModel.stationary(mix, horizon=12.0))
        rc = main(["--out", str(tmp_path / "x"), "resilience", "--model", str(path)])
        assert rc == 2
        assert "--grid-max" in capsys.readouterr().err

    @pytest.fixture
    def no_big_arange(self, monkeypatch):
        """numpy.arange that refuses non-finite or above-ceiling sizes."""
        real = np.arange

        def guarded(*args, **kwargs):
            for x in args:
                if isinstance(x, (int, float)) and not abs(x) <= 10**7:
                    raise AssertionError(f"np.arange asked for {x!r}")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "arange", guarded)

    @pytest.mark.parametrize("mixture, flags", [
        ((1.0, 1.0, 0.8), ["--grid-max", "inf"]),
        ((1.0, 1.0, 0.8), ["--grid-step", "nan"]),
        # shape 0.1 puts the 0.999 quantile at 2.47e8 h: a 1.19e9-point grid
        ((1.0, 1.0, 0.1), []),
    ], ids=["grid-max-inf", "grid-step-nan", "shape-0.1-quantile"])
    def test_grid_bounded(self, tmp_path, capsys, no_big_arange, mixture, flags):
        path = tmp_path / "m.json"
        save_model(path, RateFunction.constant(3.0, 12.0),
                   DurationModel.stationary(WeibullMixture(components=(mixture,)),
                                            horizon=12.0))
        rc = main(["--out", str(tmp_path / "x"), "resilience", "--model", str(path), *flags])
        assert rc == 2
        assert "--grid-max/--grid-step" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["inf", "-inf", "nan", "0", "1e-9"])
    def test_quad_step_bounded(self, tiny_model, tmp_path, capsys, no_big_arange, step):
        # a non-finite or non-positive step, and 12 h / 1e-9 = 1.2e10 cells,
        # are refused before any lattice is built
        rc = main(["--out", str(tmp_path / "x"), "reconstruct", "--model", str(tiny_model),
                   f"--quad-step={step}"])
        assert rc == 2
        assert "--quad-step" in capsys.readouterr().err

    def test_field_over_csv_limit_ingest(self, tmp_path, capsys):
        # the csv module refuses fields over 131072 characters with csv.Error
        raw = tmp_path / "raw.csv"
        raw.write_text("id,timestamp,duration_hours\n"
                       "a,2008-09-12T08:00,1.5\n"
                       + "x" * 140_000 + ",2008-09-12T09:00,2.0\n")
        rc = main(["--out", str(tmp_path / "x"), "ingest", "--input", str(raw),
                   "--window-start", "2008-09-12T07:00", "--window-end", "2008-09-14T04:00"])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err
        assert csv.field_size_limit() == 131072

    def test_field_over_csv_limit_fit(self, tmp_path, capsys, small_dataset):
        with small_dataset.open("a") as fh:
            fh.write("10.5," + "1" * 140_000 + "\n")
        rc = main(["--out", str(tmp_path / "x"), "fit", "--dataset", str(small_dataset),
                   "--boundaries", "0,5,10", "--components", "1,1"])
        assert rc == 2
        assert "line 42" in capsys.readouterr().err
        assert csv.field_size_limit() == 131072

    @pytest.fixture
    def small_dataset(self, tmp_path):
        path = tmp_path / "small.csv"
        rows = "".join(f"{0.25 * i:.2f},{1.0 + i % 7}\n" for i in range(40))
        path.write_text("t_hours,duration_hours\n" + rows)
        return path

    @pytest.mark.parametrize("flags", [
        ["--boundaries", "0,10", "--bin", "1e-9"],
        ["--boundaries", "0,1e12"],
    ], ids=["bin-1e-9", "boundaries-1e12"])
    def test_fit_rate_grid_bounded(self, tmp_path, capsys, no_big_arange,
                                   small_dataset, flags):
        rc = main(["--out", str(tmp_path / "x"), "fit", "--dataset", str(small_dataset),
                   "--components", "1", *flags])
        assert rc == 2
        assert "--bin" in capsys.readouterr().err

    @pytest.fixture
    def nan_dataset(self, small_dataset):
        with small_dataset.open("a") as fh:
            fh.write("nan,3.0\nnan,4.0\n")
        return small_dataset

    def test_fit_rejects_non_finite_times(self, tmp_path, capsys, nan_dataset):
        rc = main(["--out", str(tmp_path / "x"), "fit", "--dataset", str(nan_dataset),
                   "--boundaries", "0,5,10", "--components", "1,1"])
        assert rc == 2
        assert "line 42" in capsys.readouterr().err

    def test_resilience_rejects_non_finite_times(self, tmp_path, tiny_model, nan_dataset):
        rc = main(["--out", str(tmp_path / "x"), "resilience", "--model", str(tiny_model),
                   "--dataset", str(nan_dataset), "--grid-max", "60"])
        assert rc == 2

    def test_thinning_ceiling(self, tiny_model, tmp_path):
        rc = main(["--out", str(tmp_path), "simulate", "--model", str(tiny_model),
                   "--replicas", "1", "--surge-base", "1", "--surge-peak", "1e9",
                   "--surge-end", "12"])
        assert rc == 2

    def test_non_finite_rate_slope(self, tiny_model, tmp_path, capsys):
        # a step of 1/h over 2.2e-313 h: its slope overflows to inf
        payload = json.loads(tiny_model.read_text())
        payload["rate"] = {"knots": [[0.0, 0.0], [2.2250738585e-313, 1.0]], "horizon": 0.05}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        for command in ("simulate", "reconstruct"):
            assert main(["--out", str(tmp_path / command), command, "--model", str(path)]) == 2
        assert "slopes must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "resilience", "reconstruct"])
    def test_overflowing_rate_integral(self, tiny_model, tmp_path, capsys, command):
        # finite knots whose integral overflows: a replica would expect inf
        # events, and every quantity of the rate is inf or nan
        payload = json.loads(tiny_model.read_text())
        payload["rate"] = {"knots": [[0.0, 2.0], [4.0, 1.7e308], [12.0, 1.7e308]],
                           "horizon": 12.0}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        assert main(["--out", str(tmp_path / "out"), command, "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "integral over [0, 12] h is not finite" in err

    @pytest.mark.parametrize("interval, leaf, value", [
        (0, 2, 1e300), (0, 1, 5e-324), (1, 2, 5e-324), (1, 2, 1e-300), (2, 1, 1.7e308),
    ], ids=["shape-1e300", "scale-5e-324", "shape-5e-324", "shape-1e-300", "scale-1.7e308"])
    def test_extreme_mixture_leaf_warns_nothing(self, tmp_path, interval, leaf, value):
        # at these valid parameters d / g, (d / g)**k, 1/k or a drawn duration
        # overflows to inf, which is its limit: no command may warn of it
        components = [list(map(list, c)) for c in REFERENCE_COMPONENTS]
        components[interval][0][leaf] = value
        model = DurationModel(
            boundaries=REFERENCE_BOUNDARIES,
            mixtures=tuple(WeibullMixture(components=tuple(map(tuple, c))) for c in components))
        path = tmp_path / "m.json"
        save_model(path, RateFunction.constant(3.0, 45.0), model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # reconstruct's own warning that it clamped a dip below 0
            warnings.filterwarnings("ignore", r".*; clamped", RuntimeWarning)
            for command, flags in (("simulate", ["--replicas", "20"]), ("resilience", []),
                                   ("reconstruct", ["--quad-step", "0.25"])):
                rc = main(["--out", str(tmp_path / command), command, "--model", str(path), *flags])
                assert rc in (0, 2), command

    def test_insufficient_samples(self, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text(
            "t_hours,duration_hours\n1.0,2.0\n2.0,3.0\n3.0,1.0\n"
        )
        rc = main(["--out", str(tmp_path), "fit", "--dataset", str(data),
                   "--boundaries", "0,10", "--components", "2"])
        assert rc == 2

    def test_non_convergence_writes_flagged_partial_model(self, pipeline, tmp_path):
        out = tmp_path / "partial"
        rc = main(["--seed", "3", "--out", str(out), "fit",
                   "--dataset", str(pipeline[0] / "dataset.csv"),
                   "--boundaries", BOUNDARIES, "--components", "2,2,2,2,2",
                   "--starts", "1", "--max-iter", "1"])
        assert rc == 3
        payload = json.loads((out / "model.json").read_text())
        assert payload["config"]["partial"] is True
        assert any(not m["converged"] for m in payload["durations"]["mixtures"])

    def test_overflowing_starts_exit_3_with_valid_model(self, pipeline, tmp_path, monkeypatch):
        # every start's scales sit 20 e-folds below the largest duration at
        # shape 100, so every component's (d/g)**k overflows there
        import gridres.fitting as fitting

        real = fitting._moment_start

        def overflowing(logd, labels, c):
            w, _, _ = real(logd, labels, c)
            return w, np.full(c, np.exp(logd.max() - 20.0)), np.full(c, 100.0)

        monkeypatch.setattr(fitting, "_moment_start", overflowing)
        out = tmp_path / "overflow"
        rc = main(["--out", str(out), "fit", "--dataset", str(pipeline[0] / "dataset.csv"),
                   "--boundaries", BOUNDARIES, "--components", "2,2,2,2,2"])
        assert rc == 3

        def reject(name):
            raise ValueError(f"{name} in model.json")

        payload = json.loads((out / "model.json").read_text(), parse_constant=reject)
        assert payload["config"]["partial"] is True
        for m in payload["durations"]["mixtures"]:
            assert m["log_likelihood"] is None
            assert "non-finite log-likelihood" in m["flags"]
        _, model, _ = load_model(out / "model.json")
        assert model.n_intervals == 5

    def test_negative_save_events_refused(self, tiny_model, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["--out", str(out), "simulate", "--model", str(tiny_model),
                   "--save-events", "-1"])
        assert rc == 2
        assert "error: --save-events must be >= 0" in capsys.readouterr().err
        assert not (out / "events.csv").exists()

    def test_zero_starts_refused(self, tmp_path, capsys, small_dataset):
        # no start would be run: the fit has nothing to choose from
        out = tmp_path / "x"
        rc = main(["--out", str(out), "fit", "--dataset", str(small_dataset),
                   "--boundaries", "0,5,10", "--components", "1,1", "--starts", "0"])
        assert rc == 2
        assert "error: n_starts must be >= 1" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_surge_flags_must_come_together(self, tiny_model, tmp_path):
        rc = main(["--out", str(tmp_path), "simulate", "--model", str(tiny_model),
                   "--replicas", "2", "--surge-base", "1.0", "--surge-peak", "9.0"])
        assert rc == 2


class TestCommandExtras:
    def test_group_rule_changes_dataset(self, workspace, tmp_path):
        outs = {}
        for rule in ("max", "first"):
            out = tmp_path / rule
            rc = main(["--out", str(out), "ingest",
                       "--input", str(workspace / "raw.csv"),
                       "--window-start", WINDOW_START, "--window-end", WINDOW_END,
                       "--group-rule", rule])
            assert rc == 0
            outs[rule] = (out / "dataset.csv").read_bytes()
        assert outs["max"] != outs["first"]

    def test_padded_header_same_products(self, pipeline, workspace, tmp_path):
        # "id, timestamp, duration_hours" names the same columns
        run_out, _ = pipeline
        header, body = (workspace / "raw.csv").read_text().split("\n", 1)
        (tmp_path / "padded.csv").write_text(header.replace(",", ", ") + "\n" + body)
        rc = main(["--out", str(tmp_path), "ingest", "--input", str(tmp_path / "padded.csv"),
                   "--window-start", WINDOW_START, "--window-end", WINDOW_END])
        assert rc == 0
        assert (tmp_path / "dataset.csv").read_bytes() == (run_out / "dataset.csv").read_bytes()
        report = json.loads((tmp_path / "provenance.json").read_text())
        assert report["counts"]["emitted"] == 463 and report["issues"] == []

    def test_aware_stamp_past_the_calendar(self, tmp_path, capsys):
        # its wall time at -05:00 falls in year 0: out of the window, not a
        # traceback
        (tmp_path / "raw.csv").write_text(
            "id,timestamp,duration_hours\n"
            "a,2008-09-12T12:00+00:00,1.5\n"
            "b,0001-01-01T00:00+01:00,2.0\n"
        )
        rc = main(["--out", str(tmp_path), "ingest", "--input", str(tmp_path / "raw.csv"),
                   "--window-start", WINDOW_START, "--window-end", WINDOW_END])
        assert rc == 0
        counts = json.loads((tmp_path / "provenance.json").read_text())["counts"]
        assert counts["window_dropped"] == 1 and counts["emitted"] == 1
        assert (tmp_path / "dataset.csv").read_text() == "t_hours,duration_hours\n0,1.5\n"

    def test_d0_override_honored(self, pipeline, tmp_path):
        run_out, _ = pipeline
        out = tmp_path / "fixed"
        rc = main(["--out", str(out), "resilience",
                   "--model", str(run_out / "model.json"),
                   "--weights", "0.2,0.2,0.2,0.2,0.2",
                   "--grid-max", "60", "--grid-step", "0.5", "--d0", "13"])
        assert rc == 0
        report = json.loads((out / "resilience.json").read_text())
        assert report["d0_hours"] == 13.0
        assert report["d0_source"] == "override"
        assert len(report["intervals"]) == 5
        for row in report["intervals"]:
            assert row["within_d0"] + row["beyond_d0"] == pytest.approx(1.0)

    def test_resilience_reads_dataset_once(self, pipeline, tmp_path, monkeypatch):
        run_out, _ = pipeline
        read, calls = cli.read_dataset, []

        def counted(path):
            calls.append(path)
            return read(path)

        monkeypatch.setattr(cli, "read_dataset", counted)
        rc = main(["--out", str(tmp_path), "resilience",
                   "--model", str(run_out / "model.json"),
                   "--dataset", str(run_out / "dataset.csv")])
        assert rc == 0
        assert len(calls) == 1

    def test_surge_simulation(self, tiny_model, tmp_path):
        out = tmp_path / "surge"
        rc = main(["--seed", "2", "--out", str(out), "simulate",
                   "--model", str(tiny_model), "--replicas", "5",
                   "--horizon", "30", "--grid-step", "1",
                   "--surge-base", "0.5", "--surge-peak", "12.0",
                   "--surge-end", "3.0"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        # roughly base*30 + peak*3 failures on average
        assert 20.0 < summary["mean_total_failures"] < 80.0

    @pytest.mark.parametrize("saved", [0, 3])
    def test_saved_events_by_replica(self, tiny_model, tmp_path, saved):
        out = tmp_path / "sim"
        rc = main(["--seed", "4", "--out", str(out), "simulate",
                   "--model", str(tiny_model), "--replicas", "4",
                   "--save-events", str(saved)])
        assert rc == 0
        header, *rows = (out / "events.csv").read_text().splitlines()
        assert header == "replica,failure_time_hours,duration_hours,recovery_time_hours"
        replicas = [row.split(",")[0] for row in rows]
        # replica indices written as integers, one block of rows per replica in order
        assert replicas == sorted(replicas, key=int)
        assert set(replicas) == {str(i) for i in range(saved)}

    def test_reconstruct_single_mode(self, tiny_model, tmp_path):
        out = tmp_path / "pw"
        rc = main(["--out", str(out), "reconstruct", "--model", str(tiny_model),
                   "--mode", "piecewise", "--grid-step", "2"])
        assert rc == 0
        cols = read_csv_columns(out / "nhat.csv")
        assert "recovery_rate_piecewise" in cols
        assert "recovery_rate_stationary" not in cols

    def test_package_import_skips_scipy(self):
        """No command needs scipy; importing the package loads none of it, and
        nothing of concurrent: every command runs on the calling thread."""
        code = ("import sys, gridres, gridres.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'concurrent')))")
        proc = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_skips_numpy_random(self):
        """Only fit and simulate draw random numbers, and they load
        numpy.random when they run: importing the CLI does not."""
        code = "import sys, gridres.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_pearson_test_loads_no_scipy(self, pipeline, tmp_path):
        """`gridres test` takes its Poisson tail and chi-square quantile from
        numpy and math: after it runs, the interpreter holds no scipy module."""
        out, _ = pipeline
        code = ("import sys\n"
                "from gridres.cli import main\n"
                "rc = main(sys.argv[1:])\n"
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        argv = ["--out", str(tmp_path / "gof"), "test",
                "--dataset", str(out / "dataset.csv"), "--model", str(out / "model.json")]
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=checkout_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "0 []"

    def test_commands_run_without_scipy(self, workspace, tmp_path, monkeypatch):
        """Every README command runs, byte for byte, with scipy blocked."""
        # relative paths, so that the echoed options match between the two runs
        (tmp_path / "raw.csv").write_bytes((workspace / "raw.csv").read_bytes())
        commands = [
            ["--out", "run", "ingest", "--input", "../raw.csv",
             "--window-start", WINDOW_START, "--window-end", WINDOW_END],
            ["--seed", "11", "--out", "run", "fit", "--dataset", "run/dataset.csv",
             "--boundaries", BOUNDARIES, "--components", "2,2,2,2,2",
             "--starts", "2", "--max-iter", "500"],
            ["--out", "run", "test", "--dataset", "run/dataset.csv", "--model", "run/model.json"],
            ["--seed", "11", "--out", "run", "simulate", "--model", "run/model.json",
             "--replicas", "30", "--grid-step", "1", "--save-events", "2"],
            ["--out", "run", "resilience", "--model", "run/model.json",
             "--dataset", "run/dataset.csv", "--grid-max", "60", "--grid-step", "0.5"],
            ["--out", "run", "reconstruct", "--model", "run/model.json",
             "--grid-step", "5", "--quad-step", "0.1"],
        ]
        blocked, normal = tmp_path / "blocked", tmp_path / "normal"
        blocked.mkdir()
        normal.mkdir()
        # a None entry makes every `import scipy...` raise ImportError
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from gridres.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    rc = main(argv)\n"
            "    if rc:\n"
            "        sys.exit(f'exit {rc}: {argv}')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                              cwd=blocked, env=checkout_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

        monkeypatch.chdir(normal)
        for argv in commands:
            assert main(argv) == 0, argv
        products = sorted(p.name for p in (normal / "run").iterdir())
        assert len(products) == 12, products
        assert sorted(p.name for p in (blocked / "run").iterdir()) == products
        for name in products:
            assert ((blocked / "run" / name).read_bytes()
                    == (normal / "run" / name).read_bytes()), name

    def test_console_entry_point(self):
        """The declared `gridres` script target runs as its wrapper would."""
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
        assert "gridres" in scripts, "[project.scripts] declares no gridres"
        target = scripts["gridres"]
        assert re.fullmatch(r"[\w.]+:\w+", target), target
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), target

        package_root = str(Path(gridres.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run([sys.executable, "-c", code, "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert_lists_commands(proc.stdout)

    def test_every_exported_name_resolves(self):
        """Each name in the package's __all__ and in each module's is defined there."""
        modules = [gridres] + [importlib.import_module(f"gridres.{m.name}")
                               for m in pkgutil.iter_modules(gridres.__path__)]
        for module in modules:
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert not missing, (module.__name__, missing)

    @pytest.mark.skipif(shutil.which("gridres") is None,
                        reason="gridres console script not installed")
    def test_installed_console_script(self):
        proc = subprocess.run([shutil.which("gridres"), "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert_lists_commands(proc.stdout)


# The CLI contract on mutated model files: exit 0, 2 or 3, an `error:` line
# on 2, no exception out of main (the suite turns a RuntimeWarning into
# one), and a rerun of a run that exits 0 writes the same bytes.
LEAF_VALUES = (0.0, -0.0, 5e-324, 1e-300, 1e300, -1e300, 1.7e308, math.inf, -math.inf,
               math.nan, -1.0, 1e-9, 1e9, 2.0**53)
MODEL_COMMANDS = {
    "simulate": ["--replicas", "3", "--grid-step", "2"],
    "resilience": ["--grid-step", "0.5"],
    "reconstruct": ["--grid-step", "3", "--quad-step", "0.5"],
    "test": ["--intervals", "12"],
}


def _base_model_payload() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(path,
                   RateFunction(knots=((0.0, 2.0), (4.0, 6.0), (9.0, 0.0)), horizon=12.0),
                   DurationModel(boundaries=(0.0, 5.0, 12.0), mixtures=(
                       WeibullMixture(components=((0.4, 0.7, 0.8), (0.6, 5.0, 2.5))),
                       WeibullMixture(components=((1.0, 3.0, 1.4),)))))
        return json.loads(path.read_text())


BASE_MODEL = _base_model_payload()


def _nodes(node, path=()):
    """(path, node) of every dict and list in a JSON tree and of every number leaf."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        if isinstance(child, (dict, list)) or type(child) in (int, float):
            yield from _nodes(child, path + (key,))


@st.composite
def mutated_models(draw):
    """The base model with 1-3 edits: a number leaf set to an extreme value,
    a key dropped, or a list reversed."""
    payload = copy.deepcopy(BASE_MODEL)
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(payload))[1:]))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(node, list) and draw(st.booleans()):
            node.reverse()
        elif isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[path[-1]]
        elif not isinstance(node, (dict, list)):
            parent[path[-1]] = draw(st.sampled_from(LEAF_VALUES))
    return payload


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "dataset.csv"
    rows = "".join(f"{0.2 * i + 0.05:.2f},{0.5 + i % 5}\n" for i in range(55))
    path.write_text("t_hours,duration_hours\n" + rows)
    return path


@settings(max_examples=50)
@given(command=st.sampled_from(sorted(MODEL_COMMANDS)), payload=mutated_models())
def test_mutated_model_files_keep_the_contract(fuzz_dataset, command, payload):
    with tempfile.TemporaryDirectory() as tmp:
        model, out = Path(tmp) / "model.json", Path(tmp) / "out"
        model.write_text(json.dumps(payload))
        argv = ["--out", str(out), command, "--model", str(model), *MODEL_COMMANDS[command]]
        if command == "test":
            argv += ["--dataset", str(fuzz_dataset)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3), (rc, err.getvalue())
        if rc == 2:
            assert err.getvalue().startswith("error: "), err.getvalue()
        if rc == 0:
            first = {p.name: p.read_bytes() for p in out.iterdir()}
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            assert {p.name: p.read_bytes() for p in out.iterdir()} == first
