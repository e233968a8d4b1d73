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
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridres
from gridres import DurationModel, RateFunction, WeibullMixture, mean_paths, regular_grid
from gridres import cli
from gridres.cli import build_parser, main
from gridres.fileio import load_model, save_model

from conftest import (
    REFERENCE_BOUNDARIES, REFERENCE_COMPONENTS, WINDOW_END, WINDOW_START, make_raw_csv, strict_json,
)

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


@pytest.fixture(scope="module")
def knotted_model(tmp_path_factory):
    """A rate whose last knot, at 8 h, sits inside its 12 h horizon."""
    path = tmp_path_factory.mktemp("knotted") / "model.json"
    rate = RateFunction(knots=((0.0, 2.0), (8.0, 5.0)), horizon=12.0)
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

    @pytest.mark.parametrize("text, message", [
        (None, "error: cannot read config:"),
        ("[1, 2]", "error: config must be a JSON object"),
        ('{"simulate": 3}', "error: config section 'simulate' must be an object"),
    ])
    def test_config_shape_refused(self, tiny_model, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        if text is not None:  # None: no file to read
            cfg.write_text(text)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                   "simulate", "--model", str(tiny_model)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(message)

    def test_config_takes_json_lists(self, pipeline, tmp_path):
        # the comma lists as an effective_config echoes them: same fit as the flags
        out, commands = pipeline
        flags = commands[1][commands[1].index("fit") + 1:]
        section = _section(flags)
        section.update(boundaries=[0, 12, 20, 28, 36, 45], components=[2, 2, 2, 2, 2])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit": section}))
        assert main(["--config", str(cfg), "--seed", "11", "--out", str(tmp_path / "x"), "fit"]) == 0
        rate, model = load_model(tmp_path / "x" / "model.json")
        want_rate, want_model = load_model(out / "model.json")
        assert rate.knots == want_rate.knots and rate.horizon == want_rate.horizon
        assert [m.components for m in model.mixtures] == [m.components for m in want_model.mixtures]
        echoed = json.loads((tmp_path / "x" / "model.json").read_text())["config"]
        assert echoed["boundaries"] == section["boundaries"]

    @pytest.mark.parametrize("key, value", [
        ("components", [2.0, 2]), ("components", []), ("boundaries", [0, "x"]),
        ("boundaries", [[0, 12]]), ("tau", [5.0]), ("dataset", ["a.csv"]),
    ])
    def test_config_list_checked_like_flag(self, pipeline, tmp_path, capsys, key, value):
        # a list passes the comma-list check of its text; other options refuse one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit": {"dataset": str(pipeline[0] / "dataset.csv"),
                                           "boundaries": "0,45", "components": "1", key: value}}))
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "x"), "fit"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: bad --{key} value {value!r}")
        assert not (tmp_path / "x" / "model.json").exists()


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

    def test_bad_reconstruct_mode_flag(self, tiny_model, tmp_path, capsys):
        # the flag's text passes the config value's check: no usage dump
        rc = main(["--out", str(tmp_path), "reconstruct",
                   "--model", str(tiny_model), "--mode", "sideways"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad --mode value 'sideways'")

    def test_bad_list_flag_refused_before_any_input(self, tmp_path, capsys):
        # the dataset does not exist: the list is checked before it is read
        rc = main(["--out", str(tmp_path), "fit", "--dataset", str(tmp_path / "none.csv"),
                   "--boundaries", "0,x", "--components", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad --boundaries value '0,x'")

    def test_d0_nan_refused(self, tiny_model, tmp_path, capsys):
        # NaN is no JSON token: it must not reach resilience.json
        out = tmp_path / "x"
        rc = main(["--out", str(out), "resilience", "--model", str(tiny_model),
                   "--grid-max", "10", "--d0", "nan"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --d0:")
        assert not (out / "resilience.json").exists()

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
        _, model = load_model(out / "model.json")
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

    @pytest.mark.parametrize("tol", ["-inf", "nan", "inf", "-1e-9"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, small_dataset, tol):
        # -inf warned of inf * 0 and exited 3; nan ran every start to max_iter
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["--out", str(out), "fit", "--dataset", str(small_dataset),
                       "--boundaries", "0,5,10", "--components", "1,1", f"--tol={tol}"])
        assert rc == 2
        assert "error: tol must be finite and >= 0" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("max_iter", ["0", "-5"])
    def test_max_iter_below_one_refused(self, tmp_path, capsys, small_dataset, max_iter):
        # -5 printed NOT CONVERGED for every interval and exited 3
        out = tmp_path / "x"
        rc = main(["--out", str(out), "fit", "--dataset", str(small_dataset),
                   "--boundaries", "0,5,10", "--components", "1,1", f"--max-iter={max_iter}"])
        assert rc == 2
        assert "error: max_iter must be >= 1" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_starts_ceiling_before_any_start(self, tmp_path, capsys, small_dataset, monkeypatch):
        def no_start(*args):
            raise AssertionError("a start was drawn")

        monkeypatch.setattr(gridres.fitting, "_start_labels", no_start)
        rc = main(["--out", str(tmp_path / "x"), "fit", "--dataset", str(small_dataset),
                   "--boundaries", "0,5,10", "--components", "1,1", "--starts", str(2**53)])
        assert rc == 2
        assert "starts exceed the limit of 1e+04" in capsys.readouterr().err

    def test_replicas_ceiling_before_any_draw(self, tiny_model, tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a replica was drawn")

        monkeypatch.setattr(gridres.simulate, "_Draws", no_draw)
        rc = main(["--out", str(tmp_path / "x"), "simulate", "--model", str(tiny_model),
                   "--replicas", str(2**53)])
        assert rc == 2
        assert "replicas exceed the limit of 1e+07" in capsys.readouterr().err

    def test_replicas_below_one_refused(self, tiny_model, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["--out", str(out), "simulate", "--model", str(tiny_model), "--replicas", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: need at least one replica\n"
        assert not (out / "paths.csv").exists()

    def test_horizon_below_the_last_knot_refused(self, knotted_model, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "x"), "simulate", "--model", str(knotted_model),
                   "--replicas", "3", "--horizon", "6"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --horizon: horizon 6 must cover the last knot at 8\n")

    def test_tau_must_be_finite(self, tmp_path, capsys, small_dataset):
        # inf wrote "tau": Infinity into model.json, a token JSON does not allow
        out = tmp_path / "x"
        rc = main(["--out", str(out), "fit", "--dataset", str(small_dataset),
                   "--boundaries", "0,5,10", "--components", "1,1", "--tau", "inf"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --tau/--bin/--boundaries: window must be finite")
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("alpha", ["1e-17", "5e-324"])
    def test_alpha_with_no_finite_threshold_refused(self, tmp_path, capsys, alpha):
        # 1 - alpha rounds to 1, so the chi-square threshold was inf and
        # gof.json held "threshold": Infinity; checked before the inputs are read
        missing = tmp_path / "missing"
        rc = main(["--out", str(tmp_path / "x"), "test", "--dataset", str(missing / "dataset.csv"),
                   "--model", str(missing / "model.json"), "--alpha", alpha])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --alpha: ")

    @pytest.mark.parametrize("intervals", ["5", str(2**53)])
    def test_intervals_checked_before_reading_inputs(self, tmp_path, capsys, intervals):
        missing = tmp_path / "missing"
        rc = main(["--out", str(tmp_path / "x"), "test", "--dataset", str(missing / "dataset.csv"),
                   "--model", str(missing / "model.json"), "--intervals", intervals])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --intervals: ")

    def test_smoothing_checked_before_the_curve(self, tiny_model, tmp_path, capsys, monkeypatch):
        def no_curve(*args):
            raise AssertionError("the curve was evaluated")

        # weights and extent given, so the missing dataset is never read
        monkeypatch.setattr(cli, "resilience_curve", no_curve)
        rc = main(["--out", str(tmp_path / "x"), "resilience", "--model", str(tiny_model),
                   "--dataset", str(tmp_path / "missing.csv"), "--weights", "1",
                   "--grid-max", "10", "--smoothing", str(2**53)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --smoothing: ")

    @pytest.mark.parametrize("delimiter", [",,", ""])
    def test_delimiter_must_be_one_character(self, workspace, tmp_path, capsys, delimiter):
        out = tmp_path / "x"
        rc = main(["--out", str(out), "ingest", "--input", str(workspace / "raw.csv"),
                   "--window-start", WINDOW_START, "--window-end", WINDOW_END,
                   f"--delimiter={delimiter}"])
        assert rc == 2
        assert "error: delimiter must be one character" in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()

    @pytest.mark.parametrize("flag, when", [
        ("--window-start", "0001-01-01T00:00+01:00"),
        ("--window-end", "9999-12-31T23:59-01:00"),
    ])
    def test_window_off_the_calendar_refused(self, workspace, tmp_path, capsys, flag, when):
        # at the default -05:00 these instants' wall times fall before year 1
        # or after year 9999
        bounds = {"--window-start": WINDOW_START, "--window-end": WINDOW_END, flag: when}
        rc = main(["--out", str(tmp_path / "x"), "ingest", "--input", str(workspace / "raw.csv"),
                   *(x for item in bounds.items() for x in item)])
        assert rc == 2
        assert f"error: bad {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("intervals", [str(2**53), str(10**20)])
    def test_intervals_over_grid_ceiling_refused(self, pipeline, tmp_path, capsys, intervals):
        out = tmp_path / "x"
        rc = main(["--out", str(out), "test", "--dataset", str(pipeline[0] / "dataset.csv"),
                   "--model", str(pipeline[0] / "model.json"), "--intervals", intervals])
        assert rc == 2
        assert "intervals exceed the limit of 1e+07" in capsys.readouterr().err
        assert not (out / "gof.json").exists()

    @pytest.mark.parametrize("smoothing", [str(2**53), str(10**20)])
    def test_smoothing_over_point_count_refused(self, tiny_model, tmp_path, capsys, smoothing):
        out = tmp_path / "x"
        rc = main(["--out", str(out), "resilience", "--model", str(tiny_model),
                   "--smoothing", smoothing])
        assert rc == 2
        assert "error: --smoothing: smoothing window" in capsys.readouterr().err
        assert not (out / "resilience.json").exists()

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

    def test_utc_zone_names(self, workspace, tmp_path):
        products = {}
        for zone in ("Z", "UTC", "+00:00"):
            out = tmp_path / zone
            assert main(["--out", str(out), "ingest", "--input", str(workspace / "raw.csv"),
                         "--window-start", WINDOW_START, "--window-end", WINDOW_END,
                         "--zone", zone]) == 0
            products[zone] = (out / "dataset.csv").read_bytes()
        assert products["Z"] == products["UTC"] == products["+00:00"]

    @pytest.mark.parametrize("command, choices", [
        ("reconstruct", "--mode {piecewise,stationary,both}"),
        ("ingest", "--group-rule {max,first,mean}"),
    ])
    def test_help_lists_choices(self, capsys, command, choices):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert choices in capsys.readouterr().out

    def test_weights_echoed_as_a_list(self, pipeline, tmp_path):
        run_out, _ = pipeline
        rc = main(["--out", str(tmp_path), "resilience", "--model", str(run_out / "model.json"),
                   "--weights", "0.5,0.5,0,0,0", "--grid-max", "60"])
        assert rc == 0
        report = json.loads((tmp_path / "resilience.json").read_text())
        assert report["effective_config"]["weights"] == report["weights"] == [0.5, 0.5, 0, 0, 0]

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

    def test_horizon_past_the_fitted_window(self, knotted_model, tmp_path):
        # the rate holds its last knot's level out to the longer horizon
        out = tmp_path / "long"
        rc = main(["--seed", "3", "--out", str(out), "simulate", "--model", str(knotted_model),
                   "--replicas", "20", "--horizon", "20", "--grid-step", "2"])
        assert rc == 0
        rate, model = load_model(knotted_model)
        want = mean_paths(RateFunction(knots=rate.knots, horizon=20.0), model,
                          regular_grid(20.0, 2.0), 20, 3)
        cols = read_csv_columns(out / "paths.csv")
        assert cols["t_hours"][-1] == 20.0
        for name in ("nf_mean", "nr_mean", "n_mean"):
            np.testing.assert_allclose(cols[name], want[name], rtol=1e-8, atol=0.0)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["effective_config"]["horizon"] == 20.0

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
        # each public name is declared once: the package exports the model
        # modules' __all__ concatenated, and its own file names none of them
        declared = [name for m in ("estimate", "fitting", "ingest", "rates", "recovery",
                                   "resilience", "simulate", "weibull")
                    for name in importlib.import_module(f"gridres.{m}").__all__]
        assert gridres.__all__ == declared
        assert len(set(declared)) == len(declared)
        source = Path(gridres.__file__).read_text()
        assert not [n for n in declared if re.search(rf"\b{n}\b", source)]

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


class Overran(Exception):
    """A run on the contract's small inputs outlived RUN_LIMIT_S."""


RUN_LIMIT_S = 10.0


@contextlib.contextmanager
def run_limit():
    """Raise Overran in the running code once RUN_LIMIT_S have passed."""
    def overran(signum, frame):
        raise Overran(f"still running after {RUN_LIMIT_S:g} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, RUN_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def assert_keeps_contract(argv, out):
    """Exit 0, 2 or 3 within RUN_LIMIT_S; an `error:` line on 2; no
    exception or warning out of main; and after 0 every JSON product free
    of NaN and infinities, and a rerun that writes the same bytes."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), run_limit():
            rc = main(argv)
        assert rc in (0, 2, 3), (rc, err.getvalue())
        if rc == 2:
            assert err.getvalue().startswith("error: "), err.getvalue()
        if rc == 0:
            for path in out.glob("*.json"):
                strict_json(path.read_text())
            first = {p.name: p.read_bytes() for p in out.iterdir()}
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            assert {p.name: p.read_bytes() for p in out.iterdir()} == first


@settings(max_examples=50)
@given(command=st.sampled_from(sorted(MODEL_COMMANDS)), payload=mutated_models())
def test_mutated_model_files_keep_the_contract(fuzz_dataset, command, payload):
    with tempfile.TemporaryDirectory() as tmp:
        model, out = Path(tmp) / "model.json", Path(tmp) / "out"
        model.write_text(json.dumps(payload))
        argv = ["--out", str(out), command, "--model", str(model), *MODEL_COMMANDS[command]]
        if command == "test":
            argv += ["--dataset", str(fuzz_dataset)]
        assert_keeps_contract(argv, out)


CELL_VALUES = ("0", "-0", "5e-324", "1e300", "-1e300", "1.7e308", "inf", "-inf", "nan", "-1", "",
               '"2.5"', " 2.5 ", "1_0")
DATASET_COMMANDS = {
    "fit": ["--boundaries", "0,6,12", "--components", "1,1", "--starts", "2", "--max-iter", "40"],
    "test": ["--intervals", "12"],
    "resilience": ["--grid-step", "0.5"],
}


@st.composite
def mutated_datasets(draw):
    """The fuzz dataset's text with 1-3 edits: a cell set to an extreme or
    malformed value, or a stretch of rows dropped (down to none)."""
    rows = [[f"{0.2 * i + 0.05:.2f}", f"{0.5 + i % 5}"] for i in range(55)]
    for _ in range(draw(st.integers(1, 3))):
        if rows and draw(st.booleans()):
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, 1))] = draw(st.sampled_from(CELL_VALUES))
        else:
            a = draw(st.integers(0, len(rows)))
            del rows[a:draw(st.integers(a, len(rows)))]
    return "".join(",".join(row) + "\n" for row in [["t_hours", "duration_hours"], *rows])


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text(json.dumps(BASE_MODEL))
    return path


@settings(max_examples=50)
@example(command="fit", text="t_hours,duration_hours\n")
@example(command="test", text="t_hours,duration_hours\n")
@example(command="resilience", text="t_hours,duration_hours\n")
@given(command=st.sampled_from(sorted(DATASET_COMMANDS)), text=mutated_datasets())
def test_mutated_datasets_keep_the_contract(fuzz_model, command, text):
    with tempfile.TemporaryDirectory() as tmp:
        dataset, out = Path(tmp) / "dataset.csv", Path(tmp) / "out"
        dataset.write_text(text)
        argv = ["--out", str(out), command, "--dataset", str(dataset), *DATASET_COMMANDS[command]]
        if command != "fit":
            argv += ["--model", str(fuzz_model)]
        assert_keeps_contract(argv, out)


# The CLI contract on config files: 1-3 option values, each in the
# command's section or at top level, over a config that runs the command on
# small inputs.  A top-level value loses to the same key in the section.
CONFIG_VALUES = (0, -1, 5e-324, 1e300, -1e300, 2**53, 10**30, "nan", "-inf", "", "1,2", True, [],
                 "Z", "+25:00", "-00:30", "14", "0001-01-01T00:00+01:00", "9999-12-31T23:59-01:00",
                 "2008-02-29T12:00", "2007-02-29T12:00", "2008-09-12T24:00")
RAW_WINDOW = ("2008-09-12T07:00", "2008-09-13T07:00")
RAW_ROWS = tuple((f"E{i:03d}", f"2008-09-12T{7 + i // 2:02d}:{17 * i % 60:02d}", f"{0.25 + i % 7}")
                 for i in range(30))


@pytest.fixture(scope="module")
def fuzz_raw(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "raw.csv"
    path.write_text("".join(",".join(row) + "\n" for row in [("id", "timestamp", "duration_hours"),
                                                              *RAW_ROWS]))
    return path


def _section(argv) -> dict:
    """The config section that sets the options of a `--flag value` list."""
    return {flag[2:].replace("-", "_"): value for flag, value in zip(argv[::2], argv[1::2])}


@pytest.fixture(scope="module")
def config_bases(fuzz_dataset, fuzz_model, fuzz_raw):
    """Each command's config section: its inputs and small sizes."""
    model, dataset = str(fuzz_model), str(fuzz_dataset)
    return {
        "ingest": {"input": str(fuzz_raw), "window_start": RAW_WINDOW[0],
                   "window_end": RAW_WINDOW[1]},
        "fit": {"dataset": dataset, **_section(DATASET_COMMANDS["fit"])},
        "test": {"dataset": dataset, "model": model, **_section(MODEL_COMMANDS["test"])},
        **{c: {"model": model, **_section(MODEL_COMMANDS[c])}
           for c in ("simulate", "resilience", "reconstruct")},
    }


@st.composite
def config_cases(draw):
    """A command and 1-3 edits (option, value, whether in its section)."""
    command = draw(st.sampled_from(COMMANDS))
    names = [o.name for o in cli.OPTIONS[command]] + ["seed"]
    edit = st.tuples(st.sampled_from(names), st.sampled_from(CONFIG_VALUES), st.booleans())
    return command, tuple(draw(st.lists(edit, min_size=1, max_size=3)))


@settings(max_examples=50, deadline=None)
@example(case=("ingest", (("delimiter", ",,", False),)))
@example(case=("ingest", (("delimiter", "", True),)))
@example(case=("ingest", (("window_end", "9999-12-31T23:59-01:00", True),)))
@example(case=("test", (("intervals", 10**9, True),)))
@example(case=("test", (("intervals", 2**53, True),)))
@example(case=("resilience", (("smoothing", 2**53, False),)))
@example(case=("resilience", (("smoothing", 10**30, True),)))
@example(case=("fit", (("tol", "-inf", False),)))
@example(case=("fit", (("tol", "nan", True),)))
@example(case=("fit", (("starts", 2**53, True),)))
@example(case=("fit", (("max_iter", -1, True),)))
@example(case=("fit", (("max_iter", 0, True),)))
@example(case=("simulate", (("replicas", 2**53, True),)))
@given(case=config_cases())
def test_config_values_keep_the_contract(config_bases, case):
    command, edits = case
    cfg = {command: dict(config_bases[command])}
    for key, value, in_section in edits:
        (cfg[command] if in_section else cfg)[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(cfg))
        assert_keeps_contract(["--config", str(config), "--out", str(out), command], out)


@settings(max_examples=50, deadline=None)
@example(case=("reconstruct", (("mode", "sideways", True),)), spaced=False)
@example(case=("simulate", (("replicas", "x", True),)), spaced=False)
@example(case=("fit", (("boundaries", "0,x", True),)), spaced=False)
@example(case=("fit", (("tau", "inf", True),)), spaced=False)
@example(case=("test", (("alpha", "1e-17", True),)), spaced=False)
@example(case=("fit", (("tol", "1e308", True),)), spaced=False)
@example(case=("fit", (("tau", "-inf", True),)), spaced=True)
@example(case=("fit", (("tol", "-1e-3", True),)), spaced=True)
@given(case=config_cases(), spaced=st.booleans())
def test_flag_values_keep_the_contract(config_bases, case, spaced):
    # the config edits as `--name=value` or `--name value` flags: flag text
    # passes the same check as a config value, so a bad one is exit 2, not
    # a SystemExit, even where it starts with "-"
    command, edits = case

    def flag(name, value):
        name = "--" + name.replace("_", "-")
        return [name, str(value)] if spaced else [f"{name}={value}"]

    section = {**config_bases[command], **{k: v for k, v, _ in edits if k != "seed"}}
    seeds = [arg for k, v, _ in edits if k == "seed" for arg in flag(k, v)]
    flags = [arg for k, v in section.items() for arg in flag(k, v)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert_keeps_contract([*seeds, "--out", str(out), command, *flags], out)


# The CLI contract on raw files for `ingest`: the small raw file with 1-3
# edits, read with an odd --delimiter or --zone now and then.
RAW_CELLS = ("", " ", "nan", "inf", "-1", "1e300", "5e-324", "soon", '"E001"', '"1.5"', '"1,5"',
             '"2008-09-12T09:00"', '"unclosed', 'a"b', "E001", "2008-09-12T09:00+14:00",
             "2008-09-12T09:00-12:00", "2008-09-12T09:00Z", "2008-09-12T09:00:00.000001",
             "2008-02-29T00:00", "2007-02-29T00:00", "2008-09-12T24:00", "0001-01-01T00:00",
             "9999-12-31T23:59", "0001-01-01T00:00+01:00", "9999-12-31T23:59:59-01:00",
             '"E,001"', "E0\x0001", "1.5\x0b", "\x0c1.5", "E\x1c001", "2008-09-12T09:00\x85",
             "E\u2028001")


@st.composite
def raw_cases(draw):
    """Raw text with 1-3 edits (a cell set to a bad, quoted or calendar-edge
    value, or one holding a NUL or a character that str.splitlines breaks
    at, or a stretch of rows dropped), lines that end in \\n, \\r\\n or a
    lone \\r, and extra ingest flags."""
    rows = [list(row) for row in RAW_ROWS]
    for _ in range(draw(st.integers(1, 3))):
        if rows and draw(st.booleans()):
            draw(st.sampled_from(rows))[draw(st.integers(0, 2))] = draw(st.sampled_from(RAW_CELLS))
        else:
            a = draw(st.integers(0, len(rows)))
            del rows[a:draw(st.integers(a, len(rows)))]
    text = "".join(",".join(row) + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
                   for row in [["id", "timestamp", "duration_hours"], *rows])
    delimiters = (",", "\t", ";", ",,", "", '"', " ")
    flag = draw(st.sampled_from([None, None, *(f"--delimiter={d}" for d in delimiters),
                                 *(f"--zone={z}" for z in ("Z", "+14:00", "+25:00", "-00:30"))]))
    return text, [] if flag is None else [flag]


@settings(max_examples=50, deadline=None)
@example(raw=("", []))
@example(raw=("id,timestamp,duration_hours", []))
@example(raw=("id,timestamp,duration_hours\n", []))
@example(raw=("id,timestamp,duration_hours\nE001,2008-09-12T09:00,1.5\n", ["--delimiter=,,"]))
@example(raw=("id,timestamp,duration_hours\nE001,2008-09-12T09:00,1.5\n", ["--delimiter="]))
@example(raw=("id,timestamp,duration_hours\nE001,0001-01-01T00:00+01:00,1.5\n", []))
@example(raw=("id,timestamp,duration_hours\nE001,9999-12-31T23:59:59-01:00,1.5\n", []))
@given(raw=raw_cases())
def test_raw_files_keep_the_contract(raw):
    text, flags = raw
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "raw.csv", Path(tmp) / "out"
        path.write_text(text)
        assert_keeps_contract(["--out", str(out), "ingest", "--input", str(path),
                               "--window-start", RAW_WINDOW[0], "--window-end", RAW_WINDOW[1],
                               *flags], out)
