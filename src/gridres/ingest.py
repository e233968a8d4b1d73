"""Raw outage record ingestion.

Input is delimited text with a header naming at least id, timestamp and
duration_hours.  Timestamps are ISO-8601 at minute resolution, interpreted
in a configured fixed-offset zone (offset-aware inputs are converted).
The pipeline filters to an observation window, collapses same-minute
records into one dependent-failure entity, converts to hours since the
window origin and drops negative durations, keeping exact provenance
counts the whole way.
"""

import csv
import io
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

__all__ = [
    "DEFAULT_ZONE",
    "RawRecord",
    "ParseIssue",
    "Provenance",
    "OutageEvent",
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


@dataclass(frozen=True)
class RawRecord:
    """One raw outage row: entity id, event timestamp, duration in hours."""

    id: str
    timestamp: datetime
    duration_hours: float


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

    def as_dict(self) -> dict:
        return {
            "raw": self.raw,
            "malformed": self.malformed,
            "window_dropped": self.window_dropped,
            "merged": self.merged,
            "negative_dropped": self.negative_dropped,
            "emitted": self.emitted,
        }


@dataclass(frozen=True)
class OutageEvent:
    """One outage: failure time and restoration duration, both in hours."""

    time: float
    duration: float

    @property
    def recovery_time(self) -> float:
        return self.time + self.duration


@dataclass(frozen=True)
class OutageDataset:
    """Cleaned outage events in hours since the window origin."""

    events: tuple[OutageEvent, ...]
    provenance: Provenance | None = None

    def times(self) -> np.ndarray:
        return np.asarray([e.time for e in self.events])

    def durations(self) -> np.ndarray:
        return np.asarray([e.duration for e in self.events])

    def __len__(self) -> int:
        return len(self.events)


def normalize_ts(ts: datetime, zone: timezone) -> datetime:
    """Offset-aware ts as naive wall time in `zone`; naive ts unchanged."""
    if ts.tzinfo is not None:
        ts = ts.astimezone(zone).replace(tzinfo=None)
    return ts


def parse_records(
    text: str,
    delimiter: str | None = None,
    zone: timezone = DEFAULT_ZONE,
) -> tuple[list[RawRecord], list[ParseIssue]]:
    """Parse delimited text into raw records plus a row-level issue report.

    The header must name id, timestamp and duration_hours (extra columns
    are ignored; a missing required column is a hard error).  Comma is the
    default delimiter, tab is accepted.  Unparseable rows land in the
    issue list, never in the records.
    """
    if delimiter is None:
        first = text.splitlines()[0] if text.splitlines() else ""
        delimiter = "\t" if "\t" in first else ","
    reader = csv.DictReader(io.StringIO(text), delimiter=delimiter)
    if reader.fieldnames is None:
        raise ValueError("empty input: no header row")
    header = [h.strip() for h in reader.fieldnames]
    missing = [c for c in _REQUIRED if c not in header]
    if missing:
        raise ValueError(f"missing required columns: {', '.join(missing)}")
    records: list[RawRecord] = []
    issues: list[ParseIssue] = []
    for lineno, row in enumerate(reader, start=2):
        raw_id = (row.get("id") or "").strip()
        raw_ts = (row.get("timestamp") or "").strip()
        raw_d = (row.get("duration_hours") or "").strip()
        if not raw_id or not raw_ts or not raw_d:
            issues.append(ParseIssue(line=lineno, reason="missing field"))
            continue
        try:
            ts = normalize_ts(datetime.fromisoformat(raw_ts), zone)
        except ValueError:
            issues.append(ParseIssue(line=lineno, reason=f"bad timestamp {raw_ts!r}"))
            continue
        try:
            dur = float(raw_d)
        except ValueError:
            issues.append(ParseIssue(line=lineno, reason=f"bad duration {raw_d!r}"))
            continue
        if not np.isfinite(dur):
            issues.append(ParseIssue(line=lineno, reason=f"bad duration {raw_d!r}"))
            continue
        records.append(RawRecord(id=raw_id, timestamp=ts, duration_hours=dur))
    return records, issues


def filter_window(
    records: list[RawRecord], start: datetime, end: datetime
) -> tuple[list[RawRecord], int]:
    """Keep records with start <= timestamp < end; returns (kept, dropped)."""
    if end <= start:
        raise ValueError("window end must come after window start")
    kept = [r for r in records if start <= r.timestamp < end]
    return kept, len(records) - len(kept)


def _bucket(ts: datetime, resolution_minutes: int) -> datetime:
    floored = ts.replace(second=0, microsecond=0)
    if resolution_minutes > 1:
        floored = floored.replace(minute=(floored.minute // resolution_minutes) * resolution_minutes)
    return floored


def group_dependent(
    records: list[RawRecord],
    resolution_minutes: int = 1,
    rule: str = "max",
) -> tuple[list[RawRecord], int]:
    """Collapse records sharing a timestamp bucket into one entity.

    Failures logged in the same minute are treated as one dependent
    failure.  The surviving record carries the bucket-start timestamp and
    the group duration under `rule` (max by default, first or mean
    otherwise; "first" follows the canonical timestamp-then-id order, so
    input order never matters).  Returns (grouped, absorbed_count).
    Applying the operation twice is the same as applying it once.
    """
    if resolution_minutes < 1:
        raise ValueError("resolution must be >= 1 minute")
    if rule not in _GROUP_RULES:
        raise ValueError(f"unknown group rule {rule!r}; expected one of {_GROUP_RULES}")
    ordered = sorted(records, key=lambda r: (r.timestamp, r.id))
    groups: dict[datetime, list[RawRecord]] = {}
    for r in ordered:
        groups.setdefault(_bucket(r.timestamp, resolution_minutes), []).append(r)
    out: list[RawRecord] = []
    for bucket in sorted(groups):
        members = groups[bucket]
        if rule == "max":
            dur = max(m.duration_hours for m in members)
        elif rule == "first":
            dur = members[0].duration_hours
        else:
            dur = sum(m.duration_hours for m in members) / len(members)
        out.append(RawRecord(id=members[0].id, timestamp=bucket, duration_hours=dur))
    return out, len(records) - len(out)


def to_dataset(
    records: list[RawRecord],
    origin: datetime,
    provenance: Provenance | None = None,
) -> OutageDataset:
    """Convert to hours since origin, dropping negative durations.

    The negative-duration count is folded into the provenance when one is
    passed in (its negative_dropped and emitted fields are filled here).
    """
    kept: list[OutageEvent] = []
    negatives = 0
    for r in sorted(records, key=lambda r: (r.timestamp, r.id)):
        if r.duration_hours < 0.0:
            negatives += 1
            continue
        hours = (r.timestamp - origin).total_seconds() / 3600.0
        kept.append(OutageEvent(time=hours, duration=r.duration_hours))
    if provenance is not None:
        provenance = Provenance(
            raw=provenance.raw,
            malformed=provenance.malformed,
            window_dropped=provenance.window_dropped,
            merged=provenance.merged,
            negative_dropped=negatives,
            emitted=len(kept),
        )
    return OutageDataset(events=tuple(kept), provenance=provenance)


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
