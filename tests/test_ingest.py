"""Raw-record parsing, windowing, dependent-failure grouping, accounting."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from gridres import (
    RawRecords,
    filter_window,
    group_dependent,
    ingest_pipeline,
    parse_records,
    to_dataset,
)
from gridres.ingest import Provenance

from conftest import WINDOW_END, WINDOW_START

HEADER = "id,timestamp,duration_hours\n"


def stamp(ts: str) -> int:
    """ISO wall time as the integer microseconds RawRecords.stamps holds."""
    return int(np.datetime64(ts, "us").astype(np.int64))


def recs(*rows: tuple[str, str, float]) -> RawRecords:
    return RawRecords(
        ids=np.array([r[0] for r in rows], dtype=object),
        stamps=np.array([stamp(r[1]) for r in rows], dtype=np.int64),
        durations=np.array([r[2] for r in rows], dtype=np.float64),
    )


def rows(records: RawRecords) -> list[tuple[str, int, float]]:
    return list(zip(records.ids.tolist(), records.stamps.tolist(), records.durations.tolist()))


class TestParseRecords:
    def test_header_only_gives_empty_list(self):
        records, issues = parse_records(HEADER)
        assert len(records) == 0
        assert issues == []
        assert records.stamps.dtype == np.int64 and records.durations.dtype == np.float64

    def test_empty_text_is_a_hard_error(self):
        with pytest.raises(ValueError, match="header"):
            parse_records("")

    def test_three_rows(self):
        text = HEADER + (
            "a,2008-09-12T07:00,1.5\n"
            "b,2008-09-12T07:01,0.25\n"
            "c,2008-09-13T00:00,12.0\n"
        )
        records, issues = parse_records(text)
        assert issues == []
        assert len(records) == 3
        assert rows(records)[0] == ("a", stamp("2008-09-12T07:00"), 1.5)
        assert records.durations[2] == 12.0

    def test_missing_required_column_is_hard_error(self):
        with pytest.raises(ValueError, match="duration_hours"):
            parse_records("id,timestamp\nx,2008-09-12T07:00\n")

    def test_extra_columns_ignored(self):
        text = "id,county,timestamp,duration_hours\na,Harris,2008-09-12T07:00,1.0\n"
        records, issues = parse_records(text)
        assert len(records) == 1 and not issues
        assert records.ids[0] == "a"

    def test_bad_timestamp_becomes_issue_with_line_number(self):
        text = HEADER + "a,2008-09-12T07:00,1.0\nb,yesterday-ish,2.0\n"
        records, issues = parse_records(text)
        assert len(records) == 1
        assert len(issues) == 1
        assert issues[0].line == 3
        assert "yesterday-ish" in issues[0].reason

    def test_bad_duration_becomes_issue(self):
        text = HEADER + "a,2008-09-12T07:00,soon\nb,2008-09-12T07:05,nan\n"
        records, issues = parse_records(text)
        assert len(records) == 0
        assert [i.line for i in issues] == [2, 3]

    def test_missing_field_becomes_issue(self):
        text = HEADER + "a,,1.0\n,2008-09-12T07:00,1.0\n"
        records, issues = parse_records(text)
        assert len(records) == 0
        assert len(issues) == 2
        assert all("missing" in i.reason for i in issues)

    def test_negative_duration_parses_cleanly(self):
        # outlier removal happens later in the pipeline, not at parse time
        records, issues = parse_records(HEADER + "a,2008-09-12T07:00,-0.5\n")
        assert not issues
        assert records.durations[0] == -0.5

    def test_tab_delimiter_autodetected(self):
        text = "id\ttimestamp\tduration_hours\na\t2008-09-12T07:00\t1.0\n"
        records, issues = parse_records(text)
        assert len(records) == 1 and not issues

    def test_aware_timestamp_converted_to_zone(self):
        # 12:00 UTC is 07:00 at the default UTC-5 offset
        records, _ = parse_records(HEADER + "a,2008-09-12T12:00+00:00,1.0\n")
        assert records.stamps[0] == stamp("2008-09-12T07:00")
        assert records.stamps.dtype == np.int64

    def test_custom_zone(self):
        records, _ = parse_records(
            HEADER + "a,2008-09-12T12:00+00:00,1.0\n",
            zone=timezone(timedelta(hours=2)),
        )
        assert records.stamps[0] == stamp("2008-09-12T14:00")

    def test_header_cells_stripped(self):
        # header cells name their columns once stripped, so rows are looked
        # up by the stripped names
        for text in (
            "id, timestamp, duration_hours\na,2008-09-12T07:00,1.0\n",
            " id\t timestamp \tduration_hours \na\t2008-09-12T07:00\t1.0\n",
        ):
            records, issues = parse_records(text)
            assert issues == []
            assert rows(records) == [("a", stamp("2008-09-12T07:00"), 1.0)]

    def test_seconds_kept(self):
        records, _ = parse_records(HEADER + "a,2008-09-12T07:00:30.25,1.0\n")
        assert records.stamps[0] == stamp("2008-09-12T07:00:30.250")

    def test_blank_lines_skipped_and_not_numbered(self):
        records, issues = parse_records(HEADER + "a,2008-09-12T07:00,1.0\n\nb,never,2.0\n")
        assert len(records) == 1
        assert issues[0].line == 3

    def test_short_and_long_rows(self):
        text = HEADER + "a,2008-09-12T07:00\nb,2008-09-12T07:01,2.0,extra,cells\n"
        records, issues = parse_records(text)
        assert [(i.line, i.reason) for i in issues] == [(2, "missing field")]
        assert records.ids.tolist() == ["b"]

    def test_aware_stamp_past_the_calendar(self):
        # 00:00+01:00 on 1 January of year 1 is in year 0 at UTC-5, which a
        # datetime cannot hold, so the zone conversion is arithmetic on stamps
        records, issues = parse_records(HEADER + "a,0001-01-01T00:00+01:00,1.0\n")
        assert issues == []
        assert records.stamps[0] == stamp("0001-01-01T00:00") - 6 * 3600 * 10**6


class TestFilterWindow:
    START = datetime.fromisoformat("2008-09-12T07:00")
    END = datetime.fromisoformat("2008-09-14T04:00")

    def test_half_open_boundaries(self):
        records = recs(
            ("a", "2008-09-12T06:59:59.999999", 1.0),
            ("b", "2008-09-12T07:00", 1.0),
            ("c", "2008-09-14T03:59:59.999999", 1.0),
            ("d", "2008-09-14T04:00", 1.0),
        )
        kept, dropped = filter_window(records, self.START, self.END)
        assert kept.ids.tolist() == ["b", "c"]
        assert dropped == 2

    def test_all_inside_is_identity(self):
        records = recs(("a", "2008-09-12T08:00", 1.0), ("b", "2008-09-13T00:00", 2.0))
        kept, dropped = filter_window(records, self.START, self.END)
        assert rows(kept) == rows(records)
        assert dropped == 0

    def test_all_outside_is_empty(self):
        records = recs(("a", "2008-09-10T00:00", 1.0))
        kept, dropped = filter_window(records, self.START, self.END)
        assert len(kept) == 0 and dropped == 1

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            filter_window(recs(), self.END, self.START)


class TestGroupDependent:
    def test_distinct_minutes_identity(self):
        records = recs(
            ("a", "2008-09-12T07:00", 1.0),
            ("b", "2008-09-12T07:01", 2.0),
            ("c", "2008-09-12T07:02", 3.0),
        )
        grouped, merged = group_dependent(records)
        assert rows(grouped) == rows(records)
        assert merged == 0

    def test_same_minute_takes_max_duration(self):
        records = recs(
            ("a", "2008-09-12T07:00", 1.0),
            ("b", "2008-09-12T07:00", 2.0),
            ("c", "2008-09-12T07:00", 5.0),
        )
        grouped, merged = group_dependent(records)
        assert len(grouped) == 1
        assert grouped.durations[0] == 5.0
        assert merged == 2

    def test_first_rule_uses_canonical_order(self):
        # "first" means first under the timestamp-then-id sort, so feeding
        # the rows backwards changes nothing
        records = recs(
            ("z", "2008-09-12T07:00", 9.0),
            ("a", "2008-09-12T07:00", 1.0),
        )
        grouped, _ = group_dependent(records, rule="first")
        assert grouped.durations[0] == 1.0
        assert grouped.ids[0] == "a"

    def test_mean_rule(self):
        records = recs(
            ("a", "2008-09-12T07:00", 1.0),
            ("b", "2008-09-12T07:00", 2.0),
            ("c", "2008-09-12T07:00", 6.0),
        )
        grouped, _ = group_dependent(records, rule="mean")
        assert grouped.durations[0] == pytest.approx(3.0)

    def test_mean_is_python_sum_in_canonical_order(self):
        values = [1e16, 1.0, -1e16, 3.0]
        records = recs(*[(f"e{i}", "2008-09-12T07:00", v) for i, v in enumerate(values)])
        grouped, _ = group_dependent(records, rule="mean")
        assert grouped.durations[0] == sum(values) / 4

    def test_max_keeps_first_of_equal_zeros(self):
        # Python's max keeps the first of equal values, so the canonical
        # order decides the sign of a zero duration
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            records = recs(("b", "2008-09-12T07:00", second), ("a", "2008-09-12T07:00", first))
            grouped, _ = group_dependent(records)
            assert np.signbit(grouped.durations[0]) == np.signbit(first)

    def test_coarser_resolution_buckets(self):
        records = recs(
            ("a", "2008-09-12T07:01", 1.0),
            ("b", "2008-09-12T07:04", 7.0),
            ("c", "2008-09-12T07:05", 2.0),
        )
        grouped, merged = group_dependent(records, resolution_minutes=5)
        assert len(grouped) == 2
        assert merged == 1
        # collapsed entity sits at the bucket start
        assert grouped.stamps[0] == stamp("2008-09-12T07:00")
        assert grouped.durations[0] == 7.0
        assert grouped.stamps[1] == stamp("2008-09-12T07:05")

    @pytest.mark.parametrize(
        "resolution, at, bucket",
        [
            (1, "07:13:59.5", "07:13"),
            (7, "07:58", "07:56"),
            (7, "08:06:30", "08:00"),
            (90, "07:59", "07:00"),
            (90, "08:10", "08:00"),
        ],
    )
    def test_buckets_restart_every_hour(self, resolution, at, bucket):
        # minute of the hour // resolution * resolution, not a floor of
        # epoch minutes, which differs when the resolution does not divide 60
        grouped, _ = group_dependent(recs(("a", f"2008-09-12T{at}", 1.0)), resolution)
        assert grouped.stamps[0] == stamp(f"2008-09-12T{bucket}")

    def test_idempotent(self):
        rng = np.random.default_rng(41)
        records = recs(*[
            (f"e{i}", f"2008-09-12T{7 + int(m) // 60:02d}:{int(m) % 60:02d}", float(d))
            for i, (m, d) in enumerate(
                zip(rng.integers(0, 30, size=60), rng.gamma(2.0, 10.0, size=60))
            )
        ])
        once, _ = group_dependent(records)
        twice, merged = group_dependent(once)
        assert rows(twice) == rows(once)
        assert merged == 0

    def test_order_independent(self):
        rng = np.random.default_rng(42)
        records = recs(*[
            (f"e{i}", f"2008-09-12T07:{int(m):02d}", float(d))
            for i, (m, d) in enumerate(
                zip(rng.integers(0, 10, size=40), rng.gamma(2.0, 10.0, size=40))
            )
        ])
        base, _ = group_dependent(records)
        for seed in range(5):
            shuffled = records.take(np.random.default_rng(seed).permutation(len(records)))
            assert rows(group_dependent(shuffled)[0]) == rows(base)

    @pytest.mark.parametrize("rule", ["max", "first", "mean"])
    def test_output_canonical_with_distinct_stamps(self, rule):
        # to_dataset takes this order as it comes, without a sort of its own
        rng = np.random.default_rng(43)
        records = recs(*[
            (f"e{i}", f"2008-09-12T{7 + int(m) // 60:02d}:{int(m) % 60:02d}", float(d))
            for i, (m, d) in enumerate(
                zip(rng.integers(0, 90, size=80), rng.gamma(2.0, 10.0, size=80))
            )
        ])
        grouped, merged = group_dependent(records.take(rng.permutation(len(records))), rule=rule)
        assert merged > 0
        assert np.all(np.diff(grouped.stamps) > 0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="resolution"):
            group_dependent(recs(), resolution_minutes=0)
        with pytest.raises(ValueError, match="rule"):
            group_dependent(recs(), rule="median")


class TestToDataset:
    ORIGIN = datetime.fromisoformat("2008-09-12T07:00")

    def test_empty(self):
        ds = to_dataset(recs(), origin=self.ORIGIN)
        assert len(ds) == 0

    def test_hours_since_origin(self):
        ds = to_dataset(recs(("a", "2008-09-12T08:00", 2.0)), origin=self.ORIGIN)
        assert ds.times[0] == pytest.approx(1.0)
        assert ds.durations[0] == 2.0

    def test_hours_divide_like_total_seconds(self):
        # a single division by 3.6e9 rounds differently at the first two
        at = ["2008-09-12T07:00:00.001001", "2008-09-12T07:00:00.050001",
              "2008-09-12T07:20", "2008-09-13T10:33:20.5"]
        ds = to_dataset(recs(*[(f"e{i}", t, 1.0) for i, t in enumerate(at)]), origin=self.ORIGIN)
        want = [(datetime.fromisoformat(t) - self.ORIGIN).total_seconds() / 3600.0 for t in at]
        assert ds.times.tolist() == want

    def test_negative_durations_dropped_and_counted(self):
        records = recs(
            ("a", "2008-09-12T07:30", -0.5),
            ("b", "2008-09-12T08:00", 1.0),
        )
        ds = to_dataset(records, origin=self.ORIGIN, provenance=Provenance(raw=2))
        assert len(ds) == 1
        assert ds.provenance.negative_dropped == 1
        assert ds.provenance.emitted == 1


class TestPipeline:
    def test_storm_feed_accounting(self, raw_csv_text):
        """5152 raw rows reduce to 463 clean events with exact accounting."""
        start = datetime.fromisoformat(WINDOW_START)
        end = datetime.fromisoformat(WINDOW_END)
        ds, issues = ingest_pipeline(raw_csv_text, start, end)

        # brute-force oracle for the window count, straight off the text
        in_window = 0
        for line in raw_csv_text.strip().splitlines()[1:]:
            ts = datetime.fromisoformat(line.split(",")[1])
            in_window += start <= ts < end
        assert in_window == 2005

        p = ds.provenance
        assert issues == []
        assert p.raw == 5152
        assert p.malformed == 0
        assert p.window_dropped == 5152 - 2005
        assert p.merged == 2005 - 465
        assert p.negative_dropped == 2
        assert p.emitted == 463
        assert p.consistent()
        assert len(ds) == 463

    def test_storm_feed_event_ranges(self, raw_csv_text):
        start = datetime.fromisoformat(WINDOW_START)
        end = datetime.fromisoformat(WINDOW_END)
        ds, _ = ingest_pipeline(raw_csv_text, start, end)
        horizon = (end - start).total_seconds() / 3600.0
        times = ds.times
        assert times.min() >= 0.0
        assert times.max() < horizon
        assert np.all(np.diff(times) > 0.0)
        assert ds.durations.min() >= 0.0

    def test_row_permutation_invariance(self, raw_csv_text):
        start = datetime.fromisoformat(WINDOW_START)
        end = datetime.fromisoformat(WINDOW_END)
        base, _ = ingest_pipeline(raw_csv_text, start, end)
        header, *rows = raw_csv_text.strip().splitlines()
        np.random.default_rng(7).shuffle(rows)
        shuffled, _ = ingest_pipeline("\n".join([header] + rows) + "\n", start, end)
        np.testing.assert_array_equal(shuffled.times, base.times)
        np.testing.assert_array_equal(shuffled.durations, base.durations)
        assert shuffled.provenance == base.provenance

    def test_malformed_rows_counted_not_silently_dropped(self, raw_csv_text):
        start = datetime.fromisoformat(WINDOW_START)
        end = datetime.fromisoformat(WINDOW_END)
        text = raw_csv_text + "BAD00001,not-a-time,1.0\n"
        ds, issues = ingest_pipeline(text, start, end)
        assert len(issues) == 1
        assert ds.provenance.raw == 5153
        assert ds.provenance.malformed == 1
        assert ds.provenance.consistent()
        assert len(ds) == 463

    def test_padded_header_ingests_every_row(self, raw_csv_text):
        start = datetime.fromisoformat(WINDOW_START)
        end = datetime.fromisoformat(WINDOW_END)
        base, _ = ingest_pipeline(raw_csv_text, start, end)
        header, body = raw_csv_text.split("\n", 1)
        padded, issues = ingest_pipeline(header.replace(",", ", ") + "\n" + body, start, end)
        assert issues == []
        assert padded.provenance == base.provenance
        np.testing.assert_array_equal(padded.times, base.times)
        np.testing.assert_array_equal(padded.durations, base.durations)

    def test_aware_stamp_past_the_calendar_is_out_of_window(self):
        text = HEADER + "a,2008-09-12T12:00+00:00,1.0\nb,0001-01-01T00:00+01:00,1.0\n"
        ds, issues = ingest_pipeline(
            text, datetime.fromisoformat(WINDOW_START), datetime.fromisoformat(WINDOW_END)
        )
        assert issues == []
        assert ds.provenance.window_dropped == 1 and ds.provenance.emitted == 1
