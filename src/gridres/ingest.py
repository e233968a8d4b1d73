"""Raw outage record ingestion, one column at a time.

Input is delimited text with a header naming at least id, timestamp and
duration_hours (header cells are stripped of surrounding space).
Timestamps are ISO-8601, interpreted in a configured fixed-offset zone
(offset-aware inputs are converted).  One `csv.reader` pass validates each
row and appends its id, its timestamp as integer microseconds of zone
wall time since 1970-01-01, and its duration to three lists, which become
the arrays of a `RawRecords`.  The rest of the pipeline is array
arithmetic: a mask keeps the observation window, one sort into the
canonical timestamp-then-id order and a bucket diff collapse same-minute
records into one dependent-failure entity, and a subtraction converts
to hours since the window origin and drops negative durations, keeping
exact provenance counts the whole way.
"""

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

__all__ = [
    "DEFAULT_ZONE",
    "RawRecords",
    "ParseIssue",
    "Provenance",
    "OutageDataset",
    "normalize_ts",
    "parse_records",
    "filter_window",
    "group_dependent",
    "to_dataset",
    "ingest_pipeline",
]

# the narrative data set is logged in US Central daylight time
DEFAULT_ZONE = timezone(timedelta(hours=-5))

_REQUIRED = ("id", "timestamp", "duration_hours")
_GROUP_RULES = ("max", "first", "mean")

_EPOCH = datetime(1970, 1, 1)
_ONE_US = timedelta(microseconds=1)
_MINUTE_US = 60_000_000
_HOUR_US = 60 * _MINUTE_US


@dataclass(frozen=True, eq=False)
class RawRecords:
    """Raw outage rows as columns.

    ids: object array of the id strings (compared as Python compares str);
    stamps: int64 microseconds of naive zone wall time since 1970-01-01;
    durations: float64 hours.
    """

    ids: np.ndarray
    stamps: np.ndarray
    durations: np.ndarray

    def __len__(self) -> int:
        return len(self.stamps)

    def take(self, index) -> "RawRecords":
        return RawRecords(self.ids[index], self.stamps[index], self.durations[index])


@dataclass(frozen=True)
class ParseIssue:
    line: int
    reason: str


@dataclass(frozen=True)
class Provenance:
    """Exact record accounting through the ingest pipeline.

    raw = malformed + window_dropped + merged + negative_dropped + emitted,
    where merged counts records absorbed into a dependent-failure group.
    """

    raw: int = 0
    malformed: int = 0
    window_dropped: int = 0
    merged: int = 0
    negative_dropped: int = 0
    emitted: int = 0

    def consistent(self) -> bool:
        return self.raw == (
            self.malformed
            + self.window_dropped
            + self.merged
            + self.negative_dropped
            + self.emitted
        )


@dataclass(frozen=True, eq=False)
class OutageDataset:
    """Cleaned outage events: failure times in hours since the window
    origin and restoration durations in hours, as float64 arrays."""

    times: np.ndarray
    durations: np.ndarray
    provenance: Provenance | None = None

    def __len__(self) -> int:
        return len(self.times)


def normalize_ts(ts: datetime, zone: timezone) -> datetime:
    """Offset-aware ts as naive wall time in `zone`; naive ts unchanged."""
    if ts.tzinfo is not None:
        ts = ts.astimezone(zone).replace(tzinfo=None)
    return ts


def _micros(ts: datetime) -> int:
    """Naive ts as integer microseconds since 1970-01-01."""
    return (ts - _EPOCH) // _ONE_US


def parse_records(
    text: str,
    delimiter: str | None = None,
    zone: timezone = DEFAULT_ZONE,
) -> tuple[RawRecords, list[ParseIssue]]:
    """Parse delimited text into raw record columns plus a row-level issue report.

    The header must name id, timestamp and duration_hours (cells are
    stripped; extra columns are ignored; a missing required column is a
    hard error; of repeated names the last column counts).  Comma is the
    default delimiter, tab is accepted.  Blank lines are skipped and not
    counted; an issue's line is the row's number counting the header as
    1.  Unparseable rows land in the issue list, never in the records.
    """
    if delimiter is None:
        first = text.partition("\n")[0].splitlines()
        delimiter = "\t" if first and "\t" in first[0] else ","
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty input: no header row")
        column = {name.strip(): i for i, name in enumerate(header)}
        missing = [c for c in _REQUIRED if c not in column]
        if missing:
            raise ValueError(f"missing required columns: {', '.join(missing)}")
        i_id, i_ts, i_d = (column[c] for c in _REQUIRED)
        width = max(i_id, i_ts, i_d) + 1
        # wall time in `zone` less the naive epoch, taken without astimezone
        zone_epoch = _EPOCH.replace(tzinfo=zone)
        ids: list[str] = []
        stamps: list[int] = []
        durations: list[float] = []
        issues: list[ParseIssue] = []
        lineno = 1
        for row in reader:
            if not row:
                continue
            lineno += 1
            if len(row) < width:
                issues.append(ParseIssue(line=lineno, reason="missing field"))
                continue
            raw_id, raw_ts, raw_d = row[i_id].strip(), row[i_ts].strip(), row[i_d].strip()
            if not raw_id or not raw_ts or not raw_d:
                issues.append(ParseIssue(line=lineno, reason="missing field"))
                continue
            try:
                ts = datetime.fromisoformat(raw_ts)
            except ValueError:
                issues.append(ParseIssue(line=lineno, reason=f"bad timestamp {raw_ts!r}"))
                continue
            try:
                dur = float(raw_d)
            except ValueError:
                issues.append(ParseIssue(line=lineno, reason=f"bad duration {raw_d!r}"))
                continue
            if not math.isfinite(dur):
                issues.append(ParseIssue(line=lineno, reason=f"bad duration {raw_d!r}"))
                continue
            ids.append(raw_id)
            stamps.append((ts - (_EPOCH if ts.tzinfo is None else zone_epoch)) // _ONE_US)
            durations.append(dur)
    except csv.Error as exc:
        # a field longer than the csv module's limit (131072 characters by
        # default); the process-wide limit is left as it is
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    records = RawRecords(
        ids=np.array(ids, dtype=object),
        stamps=np.array(stamps, dtype=np.int64),
        durations=np.array(durations, dtype=np.float64),
    )
    return records, issues


def filter_window(
    records: RawRecords, start: datetime, end: datetime
) -> tuple[RawRecords, int]:
    """Keep records with start <= timestamp < end; returns (kept, dropped)."""
    if end <= start:
        raise ValueError("window end must come after window start")
    keep = (records.stamps >= _micros(start)) & (records.stamps < _micros(end))
    return records.take(keep), len(records) - int(keep.sum())


def _canonical(records: RawRecords) -> RawRecords:
    """Records sorted by timestamp, then id (as Python orders str); stable."""
    # Python's sort of the ids beats numpy's object argsort by about 2x
    ids = records.ids.tolist()
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    return records.take(by_id[np.argsort(records.stamps[by_id], kind="stable")])


def group_dependent(
    records: RawRecords,
    resolution_minutes: int = 1,
    rule: str = "max",
) -> tuple[RawRecords, int]:
    """Collapse records sharing a timestamp bucket into one entity.

    Failures logged in the same minute are treated as one dependent
    failure; a bucket starts on the hour plus a multiple of the
    resolution (minute of the hour // resolution * resolution).  The
    surviving record carries the bucket-start timestamp, the id first in
    the canonical timestamp-then-id order, and the group duration under
    `rule` (max by default, first or mean otherwise; "first" follows the
    canonical order, so input order never matters).  The result is in
    canonical order.  Returns (grouped, absorbed_count).  Applying the
    operation twice is the same as applying it once.
    """
    if resolution_minutes < 1:
        raise ValueError("resolution must be >= 1 minute")
    if rule not in _GROUP_RULES:
        raise ValueError(f"unknown group rule {rule!r}; expected one of {_GROUP_RULES}")
    if len(records) == 0:
        return records, 0
    ordered = _canonical(records)
    stamps, d = ordered.stamps, ordered.durations
    hour = stamps - stamps % _HOUR_US
    # a resolution of an hour or more buckets every minute at the hour
    step = min(resolution_minutes, 60) * _MINUTE_US
    bucket = hour + (stamps - hour) // step * step
    starts = np.flatnonzero(np.diff(bucket, prepend=bucket[0] - 1))
    if rule == "max":
        top = np.maximum.reduceat(d, starts)
        # the first member equal to the maximum, as Python's max keeps,
        # which decides the sign of a zero
        hits = np.flatnonzero(d == np.repeat(top, np.diff(starts, append=len(d))))
        dur = d[hits[np.searchsorted(hits, starts)]]
    elif rule == "first":
        dur = d[starts]
    else:
        # Python's sum in canonical order, so products match across versions
        values, edges = d.tolist(), starts.tolist() + [len(d)]
        dur = np.array([sum(values[a:b]) / (b - a) for a, b in zip(edges, edges[1:])])
    grouped = RawRecords(ids=ordered.ids[starts], stamps=bucket[starts], durations=dur)
    return grouped, len(records) - len(starts)


def to_dataset(
    records: RawRecords,
    origin: datetime,
    provenance: Provenance | None = None,
) -> OutageDataset:
    """Convert to hours since origin, dropping negative durations.

    The records must be in the canonical timestamp-then-id order, as
    group_dependent returns them; the events keep that order.  The
    negative-duration count is folded into the provenance when one is
    passed in (its negative_dropped and emitted fields are filled here).
    """
    kept = records.take(~(records.durations < 0.0))
    # integer microseconds / 1e6 / 3600, as timedelta.total_seconds() / 3600
    hours = ((kept.stamps - _micros(origin)) / 1e6) / 3600.0
    if provenance is not None:
        provenance = Provenance(
            raw=provenance.raw,
            malformed=provenance.malformed,
            window_dropped=provenance.window_dropped,
            merged=provenance.merged,
            negative_dropped=len(records) - len(kept),
            emitted=len(kept),
        )
    return OutageDataset(times=hours, durations=kept.durations, provenance=provenance)


def ingest_pipeline(
    text: str,
    start: datetime,
    end: datetime,
    resolution_minutes: int = 1,
    rule: str = "max",
    zone: timezone = DEFAULT_ZONE,
    delimiter: str | None = None,
) -> tuple[OutageDataset, list[ParseIssue]]:
    """parse -> window filter -> dependent grouping -> dataset, with accounting."""
    records, issues = parse_records(text, delimiter=delimiter, zone=zone)
    raw = len(records) + len(issues)
    in_window, window_dropped = filter_window(records, start, end)
    grouped, merged = group_dependent(in_window, resolution_minutes, rule)
    prov = Provenance(
        raw=raw,
        malformed=len(issues),
        window_dropped=window_dropped,
        merged=merged,
    )
    dataset = to_dataset(grouped, origin=start, provenance=prov)
    return dataset, issues
