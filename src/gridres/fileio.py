"""Deterministic on-disk formats: datasets, model files, tables, reports.

Table columns of an integer dtype are written exactly, every other number
(table cell or JSON value) at 9 significant digits (`NINE_DIGITS`), JSON
keys are sorted, and nothing time- or host-dependent is emitted, so reruns
with the same inputs produce byte-identical files.
"""

import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .fitting import FitResult
from .ingest import OutageDataset, plain_text
from .rates import RateFunction
from .weibull import DurationModel, WeibullMixture

__all__ = [
    "round9",
    "write_table",
    "write_report",
    "write_dataset",
    "read_dataset",
    "save_model",
    "load_model",
]


NINE_DIGITS = "%.9g"  # `%` formats as format(x, ".9g"): inf, nan and -0 included


def round9(obj):
    """Recursively round floats to 9 significant digits for JSON output."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(NINE_DIGITS % obj)
    if isinstance(obj, dict):
        return {str(k): round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [round9(v) for v in obj.tolist()]
    return obj


def write_table(path, header, columns) -> None:
    """Comma-separated table with a self-describing header row, one array per
    column: an integer column written exactly, any other at 9 significant digits."""
    row = ",".join("%d" if c.dtype.kind in "iu" else NINE_DIGITS for c in columns) + "\n"
    body = "".join(map(row.__mod__, zip(*(c.tolist() for c in columns))))
    Path(path).write_text(",".join(header) + "\n" + body)


def write_report(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(round9(payload), sort_keys=True, indent=2) + "\n")


def write_dataset(path, dataset: OutageDataset) -> None:
    write_table(path, ["t_hours", "duration_hours"], [dataset.times, dataset.durations])


def _loadtxt_columns(path, text: str, encoding: str, columns: tuple[int, int]):
    """The two columns by np.loadtxt, (2, n); None where it may part from the
    rows: a quote (split at its commas), a NUL or a U+001C-U+001F (float() refuses
    them), a line over the csv field limit, a refused cell, no rows, a non-finite value."""
    if not plain_text(text, '"\0\x1c\x1d\x1e\x1f'):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, usecols=columns,
                               ndmin=2, encoding=encoding)
    except (ValueError, Warning):
        return None
    return table.T.copy() if len(table) and np.isfinite(table).all() else None


def read_dataset(path) -> OutageDataset:
    """The t_hours and duration_hours columns, found by name; blank lines are
    skipped, and a cell that is missing or not a finite float() is an error
    naming its line.  Read by columns (np.loadtxt) where that gives the same
    numbers, else row by row."""
    with open(path, newline="") as fh:
        text = fh.read()
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        column = {name: i for i, name in enumerate(next(reader, []))}
        if not {"t_hours", "duration_hours"} <= column.keys():
            raise ValueError(f"{path}: expected columns t_hours, duration_hours")
        i_t, i_d = column["t_hours"], column["duration_hours"]
        table = _loadtxt_columns(path, text, fh.encoding, (i_t, i_d))
        if table is not None:
            return OutageDataset(times=table[0], durations=table[1])
        times, durations = [], []
        for row in reader:
            if not row:  # blank line
                continue
            try:
                t, d = float(row[i_t]), float(row[i_d])
            except (IndexError, ValueError):  # IndexError: a short row's missing cell
                t = d = math.nan
            if not (math.isfinite(t) and math.isfinite(d)):
                raise ValueError(f"{path}: line {reader.line_num}: t_hours and duration_hours "
                                 "must be finite numbers")
            times.append(t)
            durations.append(d)
    except csv.Error as exc:  # a field over the csv module's size limit
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return OutageDataset(times=np.array(times, dtype=np.float64),
                         durations=np.array(durations, dtype=np.float64))


def _mixture_payload(mix: WeibullMixture, fit: FitResult | None) -> dict:
    out = {"components": [list(c) for c in mix.components]}
    if fit is not None:
        # JSON has no -Infinity: a fit that never reached a finite
        # log-likelihood (flagged, so never converged) records null
        ll = fit.log_likelihood
        out.update(
            log_likelihood=ll if math.isfinite(ll) else None,
            iterations=fit.iterations,
            converged=fit.converged,
            flags=list(fit.flags),
        )
    return out


def save_model(
    path,
    rate: RateFunction,
    model: DurationModel,
    fits: tuple[FitResult, ...] | None = None,
    config: dict | None = None,
) -> None:
    """Write the model file: rate knots plus the duration model."""
    if fits is not None and len(fits) != model.n_intervals:
        raise ValueError("one fit result per interval required")
    payload = {
        "rate": {"knots": [list(k) for k in rate.knots], "horizon": rate.horizon},
        "durations": {
            "boundaries": list(model.boundaries),
            "mixtures": [
                _mixture_payload(m, fits[i] if fits else None)
                for i, m in enumerate(model.mixtures)
            ],
        },
        "config": config or {},
    }
    write_report(path, payload)


def load_model(path) -> tuple[RateFunction, DurationModel]:
    """The rate and duration model of a model file."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        rate = RateFunction(
            knots=tuple((float(t), float(v)) for t, v in payload["rate"]["knots"]),
            horizon=float(payload["rate"]["horizon"]),
        )
        dur = payload["durations"]
        # files from before the key was dropped carry its one value
        if dur.get("tail_policy", "nearest") != "nearest":
            raise ValueError(f"{path}: unknown tail policy {dur['tail_policy']!r}")
        model = DurationModel(
            boundaries=tuple(float(b) for b in dur["boundaries"]),
            mixtures=tuple(
                WeibullMixture(
                    components=tuple((float(w), float(g), float(k)) for w, g, k in m["components"])
                )
                for m in dur["mixtures"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from None
    return rate, model
