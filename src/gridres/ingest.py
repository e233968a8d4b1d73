"""Raw outage record ingestion, one column at a time.

Input is delimited text with a header naming at least id, timestamp and
duration_hours (header cells are stripped of surrounding space).
Timestamps are ISO-8601, interpreted in a configured fixed-offset zone
(offset-aware inputs are converted).  Text that `csv.reader` splits at
every newline and delimiter (no quote, carriage return, NUL or over-long
line) is read by column, in chunks of about 2**15 characters cut at line
ends.  A chunk whose every line holds the header's number of cells is
split into cells in one call and each column taken as a slice: its
YYYY-MM-DDTHH:MM stamps are decoded as a grid of bytes into integer
microseconds, its durations read by `float`.  The rows the columns
refuse (another stamp shape, a blank cell, a bad duration, a control or
non-ASCII character that may be whitespace to strip), and every row of a
chunk with a blank or ragged line, go through the row validator, which
also reads every row of any other text from `csv.reader`.  Each record
is an id, a timestamp as integer microseconds of zone wall time since
1970-01-01, and a duration, in the arrays of a `RawRecords`.  The rest of
the pipeline is array arithmetic: a mask keeps the observation window, a
sort of the bucket stamps and a bucket diff collapse same-minute
records into one dependent-failure entity (ids are sorted only in the
buckets whose rule can see member order), and a subtraction converts to
hours since the window origin and drops negative durations, keeping
exact provenance counts the whole way.
"""

import csv
import io
import math
from dataclasses import dataclass, replace
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

# characters of plain text per chunk of the column route, cut at a line end
_CHUNK = 1 << 15
_BYTES = bytes(range(256))
# the ASCII characters that are neither control characters nor whitespace
_PRINTABLE = bytes(range(33, 127))
# a YYYY-MM-DDTHH:MM cell and the newline after it, every digit as 0
_MINUTE_SHAPE = b"0000-00-00T00:00\n"
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"0" * 9)
# the weight of each place's digit in the year, month, day, hour and minute
_MINUTE_FIELDS = np.zeros((17, 5))
_MINUTE_FIELDS[[0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15], [0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4]] = (
    [1000, 100, 10, 1] + [10, 1] * 4)
# days of each month in a leap year, and days from 1 March to its first
# day, both 0 outside 1-12
_MONTH_DAYS = np.array([0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])
_MARCH_DAYS = np.array([0, 306, 337, 0, 31, 61, 92, 122, 153, 184, 214, 245, 275, 0])


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


def plain_text(text: str, specials: str) -> bool:
    """True when text holds none of `specials` and every line is shorter
    than the csv module's field limit."""
    # a line over the limit leaves a stretch of limit // 2 characters unbroken
    stretch = csv.field_size_limit() // 2
    return not (any(ch in text for ch in specials)
                or any(text.find("\n", i, i + stretch) < 0 and text.find("\r", i, i + stretch) < 0
                       for i in range(0, len(text) - stretch + 1, stretch)))


def _floats(cells: list[str]) -> list[float]:
    """float of each cell, NaN where float refuses it.  A cell that float
    takes reads as the same number as the cell stripped."""
    values, rest = [], iter(cells)
    while True:
        try:
            # extend keeps the values before a refused cell, which map has passed
            values.extend(map(float, rest))
            return values
        except ValueError:
            values.append(math.nan)


def _decode_minutes(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Decode `YYYY-MM-DDTHH:MM` cells, none of which holds a newline.

    Returns (ok, stamps).  ok marks the cells of exactly that shape, in
    ASCII digits, that name a real minute of the years 1-9999; their
    stamps are the integer microseconds since 1970-01-01 that
    datetime.fromisoformat gives, and the other stamps are meaningless.
    """
    n = len(cells)
    # a non-ASCII character encodes as one "?", which no place admits
    code = "\n".join(cells + [""]).encode("ascii", "replace")
    if len(code) != 17 * n or code[16::17] != b"\n" * n:
        # a cell of another length becomes one of year 0, which is refused
        cells = [c if len(c) == 16 else "0000-00-00T00:00" for c in cells]
        code = "\n".join(cells + [""]).encode("ascii", "replace")
    digits = code.translate(_ZERO_DIGITS)
    shaped = digits == _MINUTE_SHAPE * n or np.frombuffer(digits, "S17") == _MINUTE_SHAPE
    # less ord("0"), a digit is its value; other places weigh nothing
    year, month, day, hour, minute = (
        (np.frombuffer(code, np.uint8).reshape(n, 17) - 48) @ _MINUTE_FIELDS).astype(np.int64).T
    ok = (shaped & (year >= 1) & (day >= 1) & (day <= _MONTH_DAYS.take(month, mode="clip"))
          & (hour < 24) & (minute < 60))
    leap_day = np.flatnonzero((month == 2) & (day == 29))
    y = year[leap_day]
    ok[leap_day] &= (y % 4 == 0) & ((y % 100 != 0) | (y % 400 == 0))
    # days from the civil date, counting years from 1 March
    y = year - (month <= 2)
    days = y * 365 + y // 4 - y // 100 + y // 400 + _MARCH_DAYS.take(month, mode="clip") + day - 719469
    return ok, ((days * 24 + hour) * 60 + minute) * _MINUTE_US


def _split_cells(chunk: str, delimiter: str, ncols: int) -> tuple[list[str], np.ndarray] | None:
    """The cells of a chunk of lines, each ending in a newline, row after
    row, and the rows that hold a character other than the delimiter that
    may be whitespace (any control or non-ASCII character); None unless
    every line holds `ncols` cells split at an ASCII delimiter."""
    if not delimiter.isascii():
        return None
    sep = delimiter.encode()
    # no byte of a non-ASCII character in UTF-8 is below 128
    code = chunk.encode("utf-8", "surrogatepass")
    # the delimiters and newlines, in order
    seps = code.translate(None, _BYTES.replace(sep, b"").replace(b"\n", b""))
    if seps != (sep * (ncols - 1) + b"\n") * (len(seps) // ncols):
        return None
    cells = chunk.replace("\n", delimiter).split(delimiter)
    cells.pop()
    odd = []
    if code.translate(None, _PRINTABLE + sep + b"\n"):
        byte = np.frombuffer(code, np.uint8)
        odd = np.searchsorted(np.flatnonzero(byte == 10), np.flatnonzero(
            (byte - 33 > 93) & (byte != 10) & (byte != ord(sep))))
    return cells, odd


def _csv_rows(text: str, delimiter: str):
    """csv.reader's rows of text; a csv.Error becomes a ValueError naming its line."""
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        yield from reader
    except csv.Error as exc:
        # a field longer than the csv module's limit (131072 characters by
        # default); the process-wide limit is left as it is
        raise ValueError(f"line {reader.line_num}: {exc}") from None


def _column_records(text: str, pos: int, delimiter: str, ncols: int, columns: tuple[int, int, int],
                    record) -> tuple[RawRecords, list[ParseIssue]]:
    """The records of plain text from `pos` on, whose header has ncols
    cells, a chunk of whole lines at a time.

    `columns` index the id, timestamp and duration cells of a row.  A chunk
    whose lines all hold ncols cells is read by column, and only the rows
    the columns refuse go through `record`, the row validator; any other
    chunk goes through it row by row.
    """
    i_id, i_ts, i_d = columns
    # room for one row per line
    size = text.count("\n") + 1
    ids = np.empty(size, dtype=object)
    stamps = np.empty(size, dtype=np.int64)
    durations = np.empty(size, dtype=np.float64)
    issues: list[ParseIssue] = []
    kept, lineno = 0, 1
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK - 1) + 1 or len(text)
        chunk = text[pos:end] if text[end - 1] == "\n" else text[pos:end] + "\n"
        pos = end
        split = _split_cells(chunk, delimiter, ncols)
        if split is None:
            # a blank or ragged line
            rows = [line.split(delimiter) for line in chunk.split("\n") if line]
            n = len(rows)
            ok = np.zeros(n, dtype=bool)
        else:
            cells, odd = split
            n = len(cells) // ncols
            at = slice(kept, kept + n)
            id_cells = cells[i_id::ncols]
            ids[at] = id_cells
            ok, stamps[at] = _decode_minutes(cells[i_ts::ncols])
            durations[at] = _floats(cells[i_d::ncols])
            ok &= np.isfinite(durations[at])
            ok[odd] = False
            if not all(id_cells):
                ok[[r for r, cell in enumerate(id_cells) if not cell]] = False
        for r in np.flatnonzero(~ok).tolist():
            got = record(cells[r * ncols:(r + 1) * ncols] if split else rows[r])
            if isinstance(got, str):
                issues.append(ParseIssue(line=lineno + 1 + r, reason=got))
            else:
                ids[kept + r], stamps[kept + r], durations[kept + r] = got
                ok[r] = True
        if not ok.all():
            keep = kept + np.flatnonzero(ok)
            for column in (ids, stamps, durations):
                column[kept:kept + len(keep)] = column[keep]
        kept += int(ok.sum())
        lineno += n
    for column in (ids, stamps, durations):
        column.resize(kept, refcheck=False)
    return RawRecords(ids, stamps, durations), issues


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
    cut = text.find("\n")
    head = text if cut < 0 else text[:cut]
    if delimiter is None:
        first = head.splitlines()
        delimiter = "\t" if first and "\t" in first[0] else ","
    elif len(delimiter) != 1:
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    plain = bool(text) and plain_text(text, '"\r\0')
    if plain:
        # csv.reader's first row of such text, its [] for an empty line included
        header = head.split(delimiter) if head else []
    else:
        rows = _csv_rows(text, delimiter)
        header = next(rows, None)
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

    def record(row: list[str]) -> tuple[str, int, float] | str:
        """The id, stamp and duration of one row of cells, or why it has none."""
        if len(row) < width:
            return "missing field"
        raw_id, raw_ts, raw_d = row[i_id].strip(), row[i_ts].strip(), row[i_d].strip()
        if not raw_id or not raw_ts or not raw_d:
            return "missing field"
        try:
            ts = datetime.fromisoformat(raw_ts)
        except ValueError:
            return f"bad timestamp {raw_ts!r}"
        try:
            dur = float(raw_d)
        except ValueError:
            dur = math.nan
        if not math.isfinite(dur):
            return f"bad duration {raw_d!r}"
        return raw_id, (ts - (_EPOCH if ts.tzinfo is None else zone_epoch)) // _ONE_US, dur

    if plain:
        return _column_records(text, len(head) + 1, delimiter, len(header), (i_id, i_ts, i_d), record)
    records, issues = [], []
    for lineno, row in enumerate(filter(None, rows), start=2):
        got = record(row)
        if isinstance(got, str):
            issues.append(ParseIssue(line=lineno, reason=got))
        else:
            records.append(got)
    ids, stamps, durations = zip(*records) if records else ((), (), ())
    return RawRecords(
        ids=np.array(ids, dtype=object),
        stamps=np.array(stamps, dtype=np.int64),
        durations=np.array(durations, dtype=np.float64),
    ), issues


def filter_window(
    records: RawRecords, start: datetime, end: datetime
) -> tuple[RawRecords, int]:
    """Keep records with start <= timestamp < end; returns (kept, dropped)."""
    if end <= start:
        raise ValueError("window end must come after window start")
    keep = (records.stamps >= _micros(start)) & (records.stamps < _micros(end))
    return records.take(keep), len(records) - int(keep.sum())


def _canonical(ids: np.ndarray, stamps: np.ndarray) -> np.ndarray:
    """The stable order by timestamp, then id (as Python orders str)."""
    # Python's sort of the ids beats numpy's object argsort by about 2x
    ids = ids.tolist()
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    return by_id[np.argsort(stamps[by_id], kind="stable")]


def group_dependent(
    records: RawRecords,
    resolution_minutes: int = 1,
    rule: str = "max",
) -> tuple[RawRecords, int]:
    """Collapse records sharing a timestamp bucket into one entity.

    Failures logged in the same minute are treated as one dependent
    failure; a bucket starts on the hour plus a multiple of the
    resolution (minute of the hour // resolution * resolution).  The
    surviving record carries the bucket-start timestamp, the group
    duration under `rule` (max by default, first or mean otherwise), and
    the id of the member whose duration it carries: under "max" the first
    member equal to the maximum, otherwise the first member, both in the
    canonical timestamp-then-id order, so input order never matters.
    Records are sorted by bucket, and into the canonical order only in the
    buckets whose rule can see it: under "max" those where more than one
    member equals the maximum, otherwise those of more than one member.
    The result is in canonical order.  Returns (grouped, absorbed_count).
    Applying the operation twice is the same as applying it once.
    """
    if resolution_minutes < 1:
        raise ValueError("resolution must be >= 1 minute")
    if rule not in _GROUP_RULES:
        raise ValueError(f"unknown group rule {rule!r}; expected one of {_GROUP_RULES}")
    if np.isnan(records.durations).any():
        raise ValueError("durations must not be NaN")
    if len(records) == 0:
        return records, 0
    stamps = records.stamps
    hour = stamps - stamps % _HOUR_US
    # a resolution of an hour or more buckets every minute at the hour
    step = min(resolution_minutes, 60) * _MINUTE_US
    bucket = hour + (stamps - hour) // step * step
    # unstable, as numpy's stable int64 sort is about 5x slower: the buckets
    # whose rule sees member order are put back in input order before their
    # canonical sort, which is stable
    order = np.argsort(bucket)
    bucket = bucket[order]
    starts = np.flatnonzero(np.diff(bucket, prepend=bucket[0] - 1))
    sizes = np.diff(starts, append=len(order))
    if rule == "max":
        d = records.durations[order]
        top = np.repeat(np.maximum.reduceat(d, starts), sizes)
        # member order picks the survivor, and the sign of a zero, only
        # where two members equal the maximum
        seen = np.add.reduceat(d == top, starts, dtype=np.intp) > 1
    else:
        seen = sizes > 1
    rows = np.flatnonzero(np.repeat(seen, sizes))
    sub = np.sort(order[rows])
    order[rows] = sub[_canonical(records.ids[sub], records.stamps[sub])]
    d = records.durations[order]
    pick = starts
    if rule == "max":
        # the first member equal to the maximum, as Python's max keeps
        hits = np.flatnonzero(d == top)
        pick = hits[np.searchsorted(hits, starts)]
    dur = d[pick]
    if rule == "mean":
        # Python's sum in canonical order, so products match across versions
        values, edges = d.tolist(), starts.tolist() + [len(d)]
        dur = np.array([sum(values[a:b]) / (b - a) for a, b in zip(edges, edges[1:])])
    grouped = RawRecords(ids=records.ids[order[pick]], stamps=bucket[starts], durations=dur)
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
        provenance = replace(provenance, negative_dropped=len(records) - len(kept), emitted=len(kept))
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
    prov = Provenance(raw=raw, malformed=len(issues), window_dropped=window_dropped, merged=merged)
    dataset = to_dataset(grouped, origin=start, provenance=prov)
    return dataset, issues
