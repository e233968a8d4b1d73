"""Deterministic file formats: table cells, dataset and model roundtrips."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import RateFunction
from gridres import fileio
from gridres.fitting import FitResult
from gridres.fileio import (
    load_model,
    read_dataset,
    round9,
    save_model,
    write_dataset,
    write_report,
    write_table,
)
from gridres.ingest import OutageDataset

from conftest import reference_model


def table_text(tmp_path, *columns) -> str:
    path = tmp_path / "t.csv"
    write_table(path, [f"c{i}" for i in range(len(columns))], list(columns))
    return path.read_text()


EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7e308)


@st.composite
def int_and_float_columns(draw):
    n_rows = draw(st.integers(0, 12))
    columns = []
    for is_int in draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        cells = (st.integers(-(2**63), 2**63 - 1) if is_int
                 else st.floats() | st.sampled_from(EDGE_FLOATS))
        values = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        columns.append(np.array(values, dtype=np.int64 if is_int else np.float64))
    return columns


class TestWriteTable:
    def test_nine_significant_digits(self, tmp_path):
        column = np.array([1.0 / 3.0, 123456789.123, 0.000123456789123])
        assert table_text(tmp_path, column) == "c0\n0.333333333\n123456789\n0.000123456789\n"

    def test_short_floats_stay_short(self, tmp_path):
        assert table_text(tmp_path, np.array([2.5, 0.0])) == "c0\n2.5\n0\n"

    def test_ints_exactly(self, tmp_path):
        column = np.array([463, 5, -(2**63), 2**63 - 1], dtype=np.int64)
        assert table_text(tmp_path, column) == (
            "c0\n463\n5\n-9223372036854775808\n9223372036854775807\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(columns=int_and_float_columns())
    def test_cells_are_format_9g_or_str(self, tmp_path_factory, columns):
        # the row format's %.9g and %d against format(x, ".9g") and str, cell by cell
        rows = zip(*([str(int(x)) if c.dtype == np.int64 else format(float(x), ".9g")
                      for x in c] for c in columns))
        want = "".join(",".join(row) + "\n" for row in rows)
        header = ",".join(f"c{i}" for i in range(len(columns)))
        assert table_text(tmp_path_factory.mktemp("t"), *columns) == header + "\n" + want


class TestRound9:
    def test_nested_structures(self):
        payload = {
            "a": 1.0 / 3.0,
            "b": [np.float64(2.0 / 3.0), {"c": (1, 2.5)}],
            "d": np.asarray([0.1, 0.2]),
            "flag": np.bool_(True),
        }
        out = round9(payload)
        assert out["a"] == 0.333333333
        assert out["b"][0] == 0.666666667
        assert out["b"][1]["c"] == [1, 2.5]
        assert out["d"] == [0.1, 0.2]
        assert out["flag"] is True
        # everything left is JSON-native
        json.dumps(out)

    def test_repeated_rounding_is_stable(self):
        vals = np.random.default_rng(3).gamma(2.0, 20.0, size=50).tolist()
        once = round9(vals)
        assert round9(once) == once


def test_write_table_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [np.array([1.0 / 3.0, 0.5]), np.array([2, 7])])
    assert path.read_text() == "a,b\n0.333333333,2\n0.5,7\n"


def test_write_report_sorted_and_stable(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report(p1, {"z": 1.0, "a": {"y": 2, "b": [3.0]}})
    write_report(p2, {"a": {"b": [3.0], "y": 2}, "z": 1.0})
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == {"z": 1.0, "a": {"y": 2, "b": [3.0]}}


class TestDatasetRoundtrip:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        times = np.sort(rng.uniform(0.0, 45.0, size=30))
        durations = rng.gamma(2.0, 20.0, size=30)
        path = tmp_path / "events.csv"
        write_dataset(path, OutageDataset(times=times, durations=durations))
        back = read_dataset(path)
        np.testing.assert_allclose(back.times, times, rtol=1e-8)
        np.testing.assert_allclose(back.durations, durations, rtol=1e-8)

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "events.csv"
        write_dataset(path, OutageDataset(times=np.empty(0), durations=np.empty(0)))
        assert len(read_dataset(path)) == 0

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_hours,minutes\n1.0,3\n")
        with pytest.raises(ValueError, match="duration_hours"):
            read_dataset(path)

    @pytest.mark.parametrize("row", ["nan,2.0", "1.0,inf", "1.0,", "1.0"])
    def test_non_finite_row_named(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"t_hours,duration_hours\n1.0,2.0\n{row}\n")
        with pytest.raises(ValueError, match="line 3"):
            read_dataset(path)

    def test_rewrite_is_byte_identical(self, tmp_path):
        dataset = OutageDataset(times=np.array([1.0 / 3.0]), durations=np.array([2.0 / 7.0]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(p1, dataset)
        write_dataset(p2, read_dataset(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_columns_by_name_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "swapped.csv"
        path.write_text("duration_hours,extra,t_hours\n2.5,x,1.0\n\n4.0,y,3.0\n")
        back = read_dataset(path)
        np.testing.assert_array_equal(back.times, [1.0, 3.0])
        np.testing.assert_array_equal(back.durations, [2.5, 4.0])
        assert back.times.dtype == back.durations.dtype == np.float64


# cells a dataset may hold: numbers in several spellings, the grammar where
# np.loadtxt and float() part (1_0, 0x10, spaces and separators, non-ASCII
# digits), non-finite values, and quoted cells whose commas np.loadtxt would split
DATASET_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map("{:.3f}".format),
    st.integers(-100, 100).map(str),
    st.sampled_from([" 2.5 ", "\t3\t", "\xa04", "\u30005", "\x1c6", "7\x1f", "\u0661\u0662", "1_0",
                     "0x10", "+1", ".5", "5.", "1E-3", "inf", "-inf", "nan", "-0", "", "abc", '"7"',
                     '"a,5,b"', '"1\n2"', "#1", "1e999"]),
)
DATASET_HEADERS = (["t_hours", "duration_hours"], ["duration_hours", "t_hours"],
                   ["id", "t_hours", "note", "duration_hours"], ["t_hours", "x"])


@st.composite
def dataset_texts(draw):
    """A dataset file's text: rows of numbers with up to 3 cells set to any
    DATASET_CELLS value, blank, short and long rows, any line ends."""
    header = draw(st.sampled_from(DATASET_HEADERS))
    width = len(header)
    rows = draw(st.lists(st.lists(DATASET_CELLS, min_size=max(0, width - 1), max_size=width + 1)
                         | st.lists(st.floats(0.0, 1e3).map(repr), min_size=width, max_size=width),
                         max_size=8))
    for i, j, cell in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, width), DATASET_CELLS),
                                    max_size=3 if rows else 0)):
        row = rows[i % len(rows)]  # never empty: width >= 2
        row[j % len(row)] = cell
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(",".join(row) for row in [header, *rows]) + draw(st.sampled_from(["", end]))


def read_outcome(path):
    """read_dataset's arrays as bytes, or its error message."""
    try:
        back = read_dataset(path)
    except ValueError as exc:
        return str(exc)
    return back.times.dtype, back.times.tobytes(), back.durations.dtype, back.durations.tobytes()


@settings(max_examples=150, deadline=None)
@given(text=dataset_texts())
def test_columnar_read_equals_row_route(tmp_path_factory, text):
    # np.loadtxt's reading either equals the csv.reader route bit for bit or
    # leaves the file to it
    path = tmp_path_factory.getbasetemp() / "columnar.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    with mock.patch.object(fileio, "_loadtxt_columns", return_value=None):
        want = read_outcome(path)
    assert read_outcome(path) == want


def test_plain_dataset_read_by_columns(tmp_path):
    path = tmp_path / "dataset.csv"
    write_dataset(path, OutageDataset(times=np.array([0.5, 1.0 / 3.0]), durations=np.array([2.0, 7.5])))
    table = fileio._loadtxt_columns(path, path.read_text(), "utf-8", (0, 1))
    np.testing.assert_array_equal(table, [[0.5, 0.333333333], [2.0, 7.5]])
    assert table[0].flags.c_contiguous and table[1].flags.c_contiguous


class TestModelRoundtrip:
    RATE = RateFunction(
        knots=((0.0, 2.0), (10.0, 8.5), (45.0, 1.25)), horizon=45.0
    )

    def test_roundtrip(self, tmp_path):
        model = reference_model()
        path = tmp_path / "model.json"
        save_model(path, self.RATE, model)
        rate, back = load_model(path)
        assert rate.horizon == self.RATE.horizon
        np.testing.assert_allclose(rate.knots, self.RATE.knots, rtol=1e-8)
        assert back.boundaries == model.boundaries
        assert back.n_intervals == model.n_intervals
        for got, want in zip(back.mixtures, model.mixtures):
            np.testing.assert_allclose(got.components, want.components, rtol=1e-8)
        assert json.loads(path.read_text())["config"] == {}

    def test_fit_metadata_saved(self, tmp_path):
        model = reference_model()
        fits = tuple(
            FitResult(
                mixture=m,
                log_likelihood=-123.456,
                iterations=40,
                converged=True,
                flags=("dropped degenerate component",) if i == 2 else (),
            )
            for i, m in enumerate(model.mixtures)
        )
        path = tmp_path / "model.json"
        save_model(path, self.RATE, model, fits=fits, config={"seed": 7})
        load_model(path)
        payload = json.loads(path.read_text())
        mixtures = payload["durations"]["mixtures"]
        assert mixtures[0]["converged"] is True
        assert mixtures[2]["flags"] == ["dropped degenerate component"]
        assert payload["config"]["seed"] == 7

    def test_fit_count_mismatch(self, tmp_path):
        model = reference_model()
        with pytest.raises(ValueError, match="per interval"):
            save_model(tmp_path / "m.json", self.RATE, model, fits=())

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rate": {"knots": []}}))
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)

    def with_tail_policy(self, tmp_path, policy):
        path = tmp_path / "m.json"
        save_model(path, self.RATE, reference_model())
        payload = json.loads(path.read_text())
        payload["durations"]["tail_policy"] = policy
        path.write_text(json.dumps(payload))
        return path

    def test_old_nearest_tail_policy_loads(self, tmp_path):
        # files written before the key was dropped carry "nearest"
        _rate, back = load_model(self.with_tail_policy(tmp_path, "nearest"))
        assert back.boundaries == reference_model().boundaries

    def test_unknown_tail_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="tail policy"):
            load_model(self.with_tail_policy(tmp_path, "error"))

    def test_save_is_byte_stable(self, tmp_path):
        model = reference_model()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(p1, self.RATE, model)
        save_model(p2, self.RATE, model)
        assert p1.read_bytes() == p2.read_bytes()
