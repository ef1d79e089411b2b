"""The output formats, each led by a manifest line: records and aggregates
CSV and JSONL traces; and the records reader. A null is written ``none``."""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import operator
import sys

from .engine import OutcomeKind
from .experiment import AggregateStats, EpisodeRecord
from .scenario import FIELD_TYPES

MANIFEST_PREFIX = "# deceptsim-manifest: "
CHUNK_ROWS = 4096  # rows per column-wise pass of the records reader

RECORD_COLUMNS = EpisodeRecord._fields


class RecordsError(Exception):
    """An unreadable records file or manifest line; not a ValueError, which
    the reader takes as a token for csv to read."""


def _parse_outcome(token: str) -> str:
    outcomes = [kind.value for kind in OutcomeKind]
    if token not in outcomes:
        raise ValueError(f"outcome: expected one of {', '.join(outcomes)}, got {token!r}")
    return token


# How a records CSV token becomes the value of each EpisodeRecord field: by
# the field's annotation (NamedTuple keeps a postponed one as a ForwardRef),
# except that an outcome must be an engine.OutcomeKind value.
RECORD_PARSERS = {
    name: FIELD_TYPES[getattr(annotation, "__forward_arg__", annotation)][0]
    for name, annotation in EpisodeRecord.__annotations__.items()
}
RECORD_PARSERS["outcome"] = _parse_outcome


def format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_probability(value: float) -> str:
    return format(value, ".6g")


# The aggregates CSV's statistic columns, in order, each with its format:
# the fractions to six significant digits.
STATS_FORMATS = {spec.name: format_value for spec in dataclasses.fields(AggregateStats)
                 if spec.name != "group"}
STATS_FORMATS.update(dict.fromkeys(
    ("win_probability", "loss_honeypot_fraction", "timeout_fraction"), format_probability))


def manifest_line(manifest: dict) -> str:
    return MANIFEST_PREFIX + json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def _parse_manifest_json(line: str, path: str) -> dict:
    try:
        manifest = json.loads(line[len(MANIFEST_PREFIX):].rstrip("\r\n"))
    except ValueError as exc:
        raise RecordsError(f"{path}: corrupted manifest line: {exc}") from exc
    if not isinstance(manifest, dict):
        raise RecordsError(f"{path}: the manifest is not a JSON object")
    return manifest


def read_manifest(lines, path: str) -> tuple[dict | None, list[str]]:
    """A file's manifest: its first manifest line before its first data line
    (neither blank nor a comment), or None; and that data line, if read."""
    for line in lines:
        if line.startswith(MANIFEST_PREFIX):
            return _parse_manifest_json(line, path), []
        if line.strip() and not line.startswith("#"):
            return None, [line]
    return None, []


def _write_csv(handle, manifest: dict, header, rows):
    """The manifest line, the header, then each row as it arrives onto ``handle``; return it."""
    handle.write(manifest_line(manifest) + "\n")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return handle


def write_records_csv(handle, manifest: dict, records):
    return _write_csv(handle, manifest, RECORD_COLUMNS, (map(format_value, r) for r in records))


def records_csv_text(manifest: dict, records) -> str:
    return write_records_csv(io.StringIO(), manifest, records).getvalue()


def aggregates_csv_text(manifest: dict, group_by: tuple[str, ...], stats) -> str:
    rows = ([*(format_value(value) for _, value in entry.group),
             *(write(getattr(entry, column)) for column, write in STATS_FORMATS.items())]
            for entry in stats)
    return _write_csv(io.StringIO(), manifest, (*group_by, *STATS_FORMATS), rows).getvalue()


def trace_jsonl_text(manifest: dict, rows) -> str:
    lines = [manifest_line(manifest)]
    lines.extend(json.dumps(row, sort_keys=True) for row in rows)
    return "\n".join(lines) + "\n"


class _TokenMemo(dict):
    """One records column's values by token: each distinct token is parsed
    once, by ``parse``, when it is first looked up."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, token: str):
        value = self[token] = self.parse(token)
        return value

    def check(self, tokens: list) -> None:
        """Parse the distinct tokens of ``tokens`` not met before."""
        new = set(tokens).difference(self)
        self.update(zip(new, map(self.parse, new)))


def _check_ints(tokens: list) -> None:
    """Raise ValueError unless every token parses as an int: at once if each
    is a run of ASCII digits no longer than int() takes, else by int() token
    by token (which also takes signs, spaces, underscores and other digits)."""
    digits = "".join(tokens)  # non-ASCII characters encode to no ASCII digit
    lengths = set(map(len, tokens))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not (digits.encode().isdigit() and 0 not in lengths
            and (not limit or max(lengths) <= limit)):
        for token in tokens:
            int(token)


def _column_plan(header: list, columns: dict) -> list:
    """For each record column, in field order, its index in ``header`` and
    what takes a list of its tokens: parses them onto its list in
    ``columns``, or, for a column not stored, only checks them."""
    plan = []
    for name, parse in RECORD_PARSERS.items():
        # Each distinct token is parsed once; episode seeds are distinct per row.
        memo = None if name == "episode_seed" else _TokenMemo(parse)
        if name in columns:
            take = functools.partial(_extend_parsed, columns[name],
                                     parse if memo is None else memo.__getitem__)
        else:
            take = _check_ints if memo is None else memo.check
        plan.append((header.index(name), take))
    return plan


def _extend_parsed(column: list, parse, tokens: list) -> None:
    column.extend(map(parse, tokens))


def _data_lines(lines):
    """The ``lines`` of a records file that hold CSV: all but comment lines."""
    return (line for line in lines if not line.startswith("#"))


def _split_chunk(chunk: list, plan: list, width: int) -> int | None:
    """Parse a chunk of lines onto the record columns by splitting them on
    commas, and return its row count; or None, for csv to read the chunk, if
    csv could read it otherwise or a token does not parse."""
    rows = list(filter("\n".__ne__, chunk))
    text = "".join(rows)
    if "#" in text:
        rows = list(_data_lines(rows))
        text = "".join(rows)
    if ('"' in text or "\r" in text or "\0" in text
            or set(map(str.count, rows, itertools.repeat(","))) - {width - 1}
            or max(map(len, rows), default=0) > csv.field_size_limit()):
        return None
    tokens = text.replace("\n", ",").split(",")
    try:
        for index, take in plan:
            take(tokens[index:width * len(rows):width])
    except ValueError:  # csv meets the same token, and names its row
        return None
    return len(rows)


def _read_chunk(rows, plan: list, path: str, first: int) -> int:
    """Parse the next CHUNK_ROWS csv rows, the first numbered ``first``, onto
    the record columns, one ``map`` per column; return how many were read. A
    chunk that fails, or that a read error cut short, is replayed row by row
    in field order to name its first bad row."""
    chunk = []
    try:
        chunk.extend(itertools.islice(rows, CHUNK_ROWS))
    finally:
        try:
            for index, take in plan:
                take(list(map(operator.itemgetter(index), chunk)))
        except (IndexError, ValueError):
            for number, row in enumerate(chunk, start=first):
                try:
                    for index, take in plan:
                        take([row[index]])
                except (IndexError, ValueError) as exc:
                    raise RecordsError(f"{path}: bad record row {number}: {exc}") from exc
    return len(chunk)


def read_records_csv(
    path: str, fields: tuple[str, ...] = RECORD_COLUMNS
) -> tuple[dict[str, list], dict | None]:
    """The records of a records CSV, one list per record column named in
    ``fields``, read in one streamed pass CHUNK_ROWS lines at a time, and its
    manifest (``read_manifest``'s). Every token of every record column is
    checked, stored or not. Columns are found by header name, which csv
    reads; a header that lacks a record column or repeats one is refused.
    Blank lines are skipped, before the header too, and so are comment
    lines. Chunks are taken straight from the file; only one that holds a
    "#" is searched for comment lines.
    A chunk is split on commas, without csv, if it holds no quote, carriage
    return or NUL, each data line has one comma fewer than the header has
    columns, no line is over ``csv.field_size_limit()``, and every token
    parses: an unstored column's distinct tokens are parsed, and episode
    seeds are checked as runs of ASCII digits, or else each by int(). From
    the first chunk that fails, csv reads the rest of the file, since a
    quoted field may span chunks, and names the first bad row."""
    columns = {name: [] for name in fields}
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            manifest, lines = read_manifest(handle, path)
            lines = _data_lines(itertools.chain(lines, handle))
            header = next(filter(None, csv.reader(lines)), [])
            missing = [column for column in RECORD_COLUMNS if column not in header]
            if missing:
                raise RecordsError(f"{path}: missing record columns: {', '.join(missing)}")
            repeated = [column for column in RECORD_COLUMNS if header.count(column) > 1]
            if repeated:
                raise RecordsError(f"{path}: repeated record columns: {', '.join(repeated)}")
            plan = _column_plan(header, columns)
            first = 1
            while True:
                chunk, rest = [], ()
                try:
                    chunk.extend(itertools.islice(handle, CHUNK_ROWS))
                    rest = handle  # after a read error, csv reads no further
                finally:  # a read error still has the lines before it checked
                    count = _split_chunk(chunk, plan, len(header))
                    if count is None:  # csv reads the rest: a quoted field may span chunks
                        rows = filter(None, csv.reader(_data_lines(itertools.chain(chunk, rest))))
                        while _read_chunk(rows, plan, path, first) == CHUNK_ROWS:
                            first += CHUNK_ROWS
                if count is None or len(chunk) < CHUNK_ROWS:
                    break
                first += count
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise RecordsError(f"cannot read records file {path}: {exc}") from exc
    return columns, manifest
