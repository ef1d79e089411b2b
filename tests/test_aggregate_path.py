"""The records reader and ``aggregate`` against the straightforward path.

``records.read_records_csv(path, fields)`` reads the header through ``csv``,
then takes lines straight from the file a chunk of ``records.CHUNK_ROWS`` at a
time; only a chunk that holds a ``#`` is searched for comment lines. The
manifest is the first manifest line before the header. A chunk with no
quote, carriage return or NUL, with one comma fewer than the header has
columns on each data line, with no line over ``csv.field_size_limit()``,
and whose tokens all parse, is split on commas;
from the first chunk that fails any of these, ``csv`` reads the rest of the
file. Either way each column of a chunk is taken with one call: a column in
``fields`` is parsed with one ``map`` into its list, each distinct token
once, through a per-column memo; any other is only checked, its distinct
tokens through the same memo and episode seeds as runs of ASCII digits, or
else each by ``int()``. ``cmd_aggregate`` asks only for the columns that
``experiment.aggregate_fields`` names. ``aggregate`` groups those columns:
its keys are zipped from the group-by columns, and a group holds row
indexes.

The references below are the row-by-row ``csv`` reader and the per-record,
per-field grouping they replaced, and the full read, which stores every
column. The reference reader parses each row, field by field, as it is met
in the file (so the first error in the file is the one named), takes its
column parsers from ``records.RECORD_PARSERS`` (which checks outcomes), refuses
a header that lacks or repeats a record column, skips a leading UTF-8
byte-order mark, skips blank rows before the header as after it, and reports
an unreadable file as the streamed reader does. Every reader check runs at
chunk sizes 1, 2, 3 and the default, so chunk boundaries, and the hand-off
to ``csv``, fall everywhere. Drawn files
hold what only ``csv`` reads as meant (quoted fields, a quoted comma or line
break, CRLF and CR line ends, NUL, lines over the field limit), often first
after the first chunk, and episode seeds that only ``int()`` decides. Both
paths must give the same records and manifest, or the same error text, and
the same aggregate statistics; a read of fewer columns must give the full
read's lists for them, or its error text.
"""

import csv
import dataclasses
import operator
import random
import statistics
from pathlib import Path

import pytest

from deceptsim import records as records_module
from deceptsim.records import (
    CHUNK_ROWS,
    MANIFEST_PREFIX,
    RECORD_COLUMNS,
    RECORD_PARSERS,
    RecordsError,
    _parse_manifest_json,
    aggregates_csv_text,
    read_records_csv,
)
from deceptsim.scenario import FIELD_TYPES
from deceptsim.agents import AGENT_KINDS
from deceptsim.experiment import (
    CELL_FIELDS,
    GROUP_GETTERS,
    AggregateStats,
    Cell,
    EpisodeRecord,
    aggregate,
    aggregate_fields,
)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "golden_records.csv"
OUTCOMES = ("win", "loss_honeypot", "timeout")
MANIFEST = MANIFEST_PREFIX + '{"command":"sweep","config":{"master_seed":3}}'
CHUNK_SIZES = (1, 2, 3, CHUNK_ROWS)


# ---------------------------------------------------------------------------
# References: the straightforward paths


def reference_read(path):
    """Read the file line by line, and parse every field of every row with
    its column's parser as the row is met."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            return reference_rows(handle, path)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise RecordsError(f"cannot read records file {path}: {exc}") from exc


def reference_rows(handle, path):
    """The rows of a file read line by line. Its manifest is the first
    manifest line met before any line that is neither blank nor a comment;
    every other line that starts with "#" is a comment."""
    manifest, data_met = None, False

    def data_lines():
        nonlocal manifest, data_met
        for line in handle:
            if not line.startswith("#"):
                data_met = data_met or bool(line.strip())
                yield line
            elif line.startswith(MANIFEST_PREFIX) and manifest is None and not data_met:
                manifest = _parse_manifest_json(line, path)

    rows = filter(None, csv.reader(data_lines()))
    header = next(rows, [])
    missing = [column for column in RECORD_COLUMNS if column not in header]
    if missing:
        raise RecordsError(f"{path}: missing record columns: {', '.join(missing)}")
    repeated = [column for column in RECORD_COLUMNS if header.count(column) > 1]
    if repeated:
        raise RecordsError(f"{path}: repeated record columns: {', '.join(repeated)}")
    plan = [(header.index(name), parse) for name, parse in RECORD_PARSERS.items()]
    records = []
    for index, row in enumerate(rows, start=1):
        try:
            records.append(EpisodeRecord(*[parse(row[i]) for i, parse in plan]))
        except (IndexError, ValueError) as exc:
            raise RecordsError(f"{path}: bad record row {index}: {exc}") from exc
    return records, manifest


def reference_field(record, name):
    if name == "honeypots_on":
        return record.num_honeypots > 0
    if name == "mtd_on":
        return record.movement_time is not None
    return getattr(record, name)


def reference_aggregate(records, group_by):
    """Group record by record, building each key field by field."""
    groups = {}
    for record in records:
        key = tuple(reference_field(record, name) for name in group_by)
        groups.setdefault(key, []).append(record)
    stats = []
    for key in sorted(groups, key=lambda k: tuple((v is None, v) for v in k)):
        members = groups[key]
        n = len(members)
        outcomes = [r.outcome for r in members]
        steps = sorted(r.steps for r in members)
        if len(steps) > 1:
            q1, median, q3 = statistics.quantiles(steps, n=4, method="inclusive")
        else:
            q1 = median = q3 = float(steps[0])
        stats.append(AggregateStats(
            group=tuple(zip(group_by, key)),
            episodes=n,
            win_probability=outcomes.count("win") / n,
            loss_honeypot_fraction=outcomes.count("loss_honeypot") / n,
            timeout_fraction=outcomes.count("timeout") / n,
            steps_min=steps[0],
            steps_q1=q1,
            steps_median=median,
            steps_q3=q3,
            steps_max=steps[-1],
        ))
    return stats


def column_read(path):
    """``read_records_csv``'s columns, one full list per record field,
    as records."""
    columns, manifest = read_records_csv(path)
    assert tuple(columns) == RECORD_COLUMNS
    assert len({len(column) for column in columns.values()}) == 1
    return [EpisodeRecord(*row) for row in zip(*columns.values())], manifest


def as_columns(records):
    """Records transposed by hand, as the reader's columns."""
    return {name: [getattr(record, name) for record in records] for name in RECORD_COLUMNS}


def result(read, path):
    """What ``read`` makes of ``path``: the records, with each field's type
    (a memo must not hand ``1`` for ``True``), and the manifest; or the
    error text."""
    try:
        records, manifest = read(str(path))
    except RecordsError as exc:
        return "error", str(exc)
    return records, [tuple(map(type, record)) for record in records], manifest


def assert_reads_alike(path):
    """The reader at every chunk size in CHUNK_SIZES reads ``path`` as the
    reference does. Records are compared by repr, under which a ``nan``
    score equals itself."""
    expected = result(reference_read, path)
    for rows in CHUNK_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(records_module, "CHUNK_ROWS", rows)
            got = result(column_read, path)
            assert (repr(got[0]), *got[1:]) == (repr(expected[0]), *expected[1:]), \
                f"CHUNK_ROWS = {rows}"
    return expected


# ---------------------------------------------------------------------------
# Reader: fixed files


def test_record_parsers_follow_the_field_annotations():
    assert RECORD_COLUMNS == tuple(RECORD_PARSERS)
    cell_types = [FIELD_TYPES[spec.type][0] for spec in dataclasses.fields(Cell)]
    assert [RECORD_PARSERS[name] for name in CELL_FIELDS] == cell_types
    assert [RECORD_PARSERS[name] for name in ("repetition", "steps", "score", "episode_seed")] \
        == [int, int, float, int]
    assert RECORD_PARSERS["outcome"]("timeout") == "timeout"


def test_golden_records_read_alike():
    records, _, manifest = assert_reads_alike(GOLDEN)
    assert len(records) == 96 and manifest is None


def test_golden_records_after_a_byte_order_mark_read_alike(tmp_path):
    # The mark that Excel's "CSV UTF-8" format writes first is skipped,
    # before a manifest line as before the header.
    for manifest in ("", MANIFEST + "\n"):
        path = tmp_path / "records.csv"
        path.write_bytes("\ufeff".encode("utf-8") + manifest.encode("utf-8") + GOLDEN.read_bytes())
        records, _, read_manifest = assert_reads_alike(path)
        assert records == column_read(str(GOLDEN))[0]
        assert read_manifest == ({"command": "sweep", "config": {"master_seed": 3}}
                                 if manifest else None)


def write(tmp_path, text, name="records.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def golden_lines():
    return GOLDEN.read_text(encoding="utf-8").splitlines()


def test_golden_data_rows_never_reach_csv(monkeypatch):
    # Only the header is csv's to read: a records file that sweep writes
    # needs none of its rules, so every chunk is split on commas.
    reader, handed = csv.reader, []

    def counting_reader(lines):
        return reader(handed.append(line) or line for line in lines)

    header = golden_lines()[0] + "\n"
    expected = result(reference_read, GOLDEN)
    monkeypatch.setattr(csv, "reader", counting_reader)
    for rows in CHUNK_SIZES:
        monkeypatch.setattr(records_module, "CHUNK_ROWS", rows)
        handed.clear()
        assert result(column_read, GOLDEN) == expected, f"CHUNK_ROWS = {rows}"
        assert handed == [header], f"CHUNK_ROWS = {rows}"


def test_comment_lines_keep_no_data_row_from_the_split(tmp_path, monkeypatch):
    # A chunk that holds comment lines drops them and is still split on
    # commas: only the header reaches csv. A manifest line after the header
    # is a comment too.
    header, *rows = golden_lines()
    rows[50:50] = ["# a comment", MANIFEST.replace(":3", ":5")]
    rows[5:5] = [MANIFEST.replace(":3", ":4")]
    path = write(tmp_path, "\n".join(["# above", MANIFEST, header, "#", *rows]) + "\n")
    reader, handed = csv.reader, []

    def counting_reader(lines):
        return reader(handed.append(line) or line for line in lines)

    expected = result(reference_read, path)
    assert expected[2] == {"command": "sweep", "config": {"master_seed": 3}}
    monkeypatch.setattr(csv, "reader", counting_reader)
    for size in CHUNK_SIZES:
        monkeypatch.setattr(records_module, "CHUNK_ROWS", size)
        handed.clear()
        assert result(column_read, path) == expected, f"CHUNK_ROWS = {size}"
        assert handed == [header + "\n"], f"CHUNK_ROWS = {size}"


def test_blank_comment_and_manifest_lines_anywhere(tmp_path):
    # The manifest is the first manifest line before the header; one after
    # the header, even one that is not JSON, is a comment.
    header, *rows = golden_lines()
    for blank in ([], [""]):
        lines = [*blank, "# a comment", MANIFEST, *blank, MANIFEST.replace(":3", ":2"), header,
                 "", "# note", *rows[:5], MANIFEST.replace(":3", ":4"), "", "\r", *rows[5:9],
                 MANIFEST[:-3], "#"]
        for ending in ("\n", "\r\n", "\r"):
            path = write(tmp_path, ending.join(lines) + ending)
            records, _, manifest = assert_reads_alike(path)
            assert len(records) == 9 and manifest["config"] == {"master_seed": 3}


def test_reordered_and_extra_columns(tmp_path):
    header, *rows = golden_lines()
    columns = header.split(",")
    order = list(range(len(columns)))
    random.Random(5).shuffle(order)
    shuffled = [",".join(["x", *(row.split(",")[i] for i in order), "y"]) for row in rows]
    path = write(tmp_path, "\n".join([",".join(["extra", *(columns[i] for i in order), "more"]),
                                      *shuffled]))
    records, _, _ = assert_reads_alike(path)
    assert records == column_read(str(GOLDEN))[0]


def set_field(row, column, token):
    fields = row.split(",")
    fields[RECORD_COLUMNS.index(column)] = token
    return ",".join(fields)


def data_rows_edit(edit):
    """An edit of a file's lines, the header and a blank line first, that
    applies ``edit`` to its data rows."""
    return lambda lines: lines[:2] + edit(lines[2:])


@pytest.mark.parametrize("edit, row", [
    # A short row.
    (data_rows_edit(lambda rows: rows[:3] + [rows[3].rsplit(",", 2)[0]] + rows[4:]), 4),
    (data_rows_edit(lambda rows: rows[:6] + [set_field(rows[6], "outcome", "Win")] + rows[7:]), 7),
    (data_rows_edit(lambda rows: rows[:2] + [set_field(rows[2], "one_goal", "maybe")]
                    + rows[3:]), 3),
    (data_rows_edit(lambda rows: rows + [set_field(rows[0], "seed", "12x4")] * 2), 97),
    (lambda lines: [MANIFEST[:-3]] + lines, None),  # corrupted manifest
])
def test_first_bad_row_is_named_alike(tmp_path, edit, row):
    header, *rows = golden_lines()
    path = write(tmp_path, "\n".join(edit([header, "", *rows])) + "\n")
    kind, message = assert_reads_alike(path)
    assert kind == "error"
    assert (f": bad record row {row}: " in message) is (row is not None)


def test_missing_columns_and_empty_file_alike(tmp_path):
    assert assert_reads_alike(write(tmp_path, ""))[0] == "error"
    assert assert_reads_alike(write(tmp_path, "\nnum_hosts,agent\n"))[0] == "error"


@pytest.mark.parametrize("extra, error", [
    (["steps"], "repeated record columns: steps"),
    (["agent", "note", "num_honeypots", "agent"], "repeated record columns: num_honeypots, agent"),
    (["note", "note"], None),  # an unknown column may repeat: nothing reads it
])
def test_repeated_record_columns_alike(tmp_path, extra, error):
    header, *rows = golden_lines()
    path = write(tmp_path, "\n".join([",".join([header, *extra]),
                                      *(",".join([row, *["0"] * len(extra)]) for row in rows)]))
    got = assert_reads_alike(path)
    if error:
        assert got == ("error", f"{path}: {error}")
    else:
        assert got[0] != "error"


def test_undecodable_bytes_past_the_first_chunk_name_the_file(tmp_path):
    header, rows = GOLDEN.read_bytes().split(b"\n", 1)
    text = header + b"\n" + rows * 200
    path = tmp_path / "records.csv"
    path.write_bytes(text[:-40] + b"\xff" + text[-40:])
    # The byte's position in the message is counted from the start of the
    # chunk being decoded, so only the rest of the message is compared.
    for read in (reference_read, read_records_csv):
        kind, message = result(read, path)
        assert kind == "error" and message.startswith(f"cannot read records file {path}: ")
        assert "can't decode byte 0xff" in message


# ---------------------------------------------------------------------------
# Reader: errors beside chunk boundaries


def many_rows(count):
    """The golden header, and ``count`` data rows cycled from the golden file."""
    header, *rows = golden_lines()
    return header, [rows[index % len(rows)] for index in range(count)]


def test_multi_chunk_file_reads_alike(tmp_path):
    header, rows = many_rows(2 * CHUNK_ROWS + 5)
    rows[CHUNK_ROWS:CHUNK_ROWS] = ["", "# a comment", MANIFEST.replace(":3", ":4")]
    path = write(tmp_path, "\n".join([MANIFEST, header, *rows]) + "\n")
    records, _, manifest = assert_reads_alike(path)
    assert len(records) == 2 * CHUNK_ROWS + 5 and manifest["config"] == {"master_seed": 3}


@pytest.mark.parametrize("row", [1, 4, 7, CHUNK_ROWS - 1])
def test_bad_late_field_is_named_before_a_bad_early_field_in_the_next_row(tmp_path, row):
    # Rows ``row`` and ``row + 1`` share a chunk at every size but 1, and
    # the chunk's columns are parsed first to last.
    header, rows = many_rows(CHUNK_ROWS + 3)
    rows[row - 1] = set_field(rows[row - 1], "episode_seed", "x")
    rows[row] = set_field(rows[row], "num_honeypots", "y")
    path = write(tmp_path, "\n".join([header, *rows]) + "\n")
    kind, message = assert_reads_alike(path)
    assert message == f"{path}: bad record row {row}: invalid literal for int() with base 10: 'x'"


@pytest.mark.parametrize("row", [1, 2, 3, 4, 6, 7, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_short_row_on_a_chunk_boundary_is_named_alike(tmp_path, row):
    header, rows = many_rows(CHUNK_ROWS + 3)
    rows[row - 1] = rows[row - 1].rsplit(",", 2)[0]
    rows[row] = set_field(rows[row], "num_honeypots", "y")
    path = write(tmp_path, "\n".join([header, *rows]) + "\n")
    kind, message = assert_reads_alike(path)
    assert message == f"{path}: bad record row {row}: list index out of range"


@pytest.mark.parametrize("bad_row", [True, False])
@pytest.mark.parametrize("trailer", ["undecodable", "oversized"])
def test_read_error_later_in_the_chunk_does_not_hide_an_earlier_bad_row(tmp_path, trailer,
                                                                        bad_row):
    header, rows = many_rows(1000)
    if bad_row:
        rows[10] = set_field(rows[10], "outcome", "lost")
    if trailer == "oversized":
        rows.insert(600, "x" * (csv.field_size_limit() + 1))
    text = ("\n".join([header, *rows]) + "\n").encode("utf-8")
    if trailer == "undecodable":
        # Far past the block of bytes decoded with row 11.
        text = text[:-4000] + b"\xff" + text[-4000:]
    path = tmp_path / "records.csv"
    path.write_bytes(text)
    kind, message = assert_reads_alike(path)
    if bad_row:
        assert message.startswith(f"{path}: bad record row 11: outcome: expected one of ")
    else:
        assert message.startswith(f"cannot read records file {path}: ")


def test_csv_reads_no_further_than_a_read_error(tmp_path):
    # A quoted token hands the chunk to csv; it must stop where the read
    # error fell, not resume the file after it and meet the bad row there.
    header, rows = many_rows(1000)
    rows[10] = set_field(rows[10], "agent", '"careful"')
    rows[-2] = set_field(rows[-2], "outcome", "lost")
    text = ("\n".join([header, *rows]) + "\n").encode("utf-8")
    path = tmp_path / "records.csv"
    path.write_bytes(text[:-4000] + b"\xff" + text[-4000:])
    kind, message = assert_reads_alike(path)
    assert message.startswith(f"cannot read records file {path}: ")


# ---------------------------------------------------------------------------
# Reader: what only csv reads as meant, from any row on

LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("row", [1, 4, CHUNK_ROWS + 1])
@pytest.mark.parametrize("agent, ending", [
    pytest.param(',"care""ful"', "\n", id="quote"),
    pytest.param(',"care,ful"', "\n", id="quoted-comma"),
    pytest.param(',"care\nful"', "\n", id="quoted-line-break"),  # one field on two lines
    pytest.param(",care\0ful", "\n", id="nul"),  # csv rejects it before Python 3.11
    pytest.param("," + "x" * (LIMIT - 20), "\n", id="line-over-limit"),
    pytest.param("," + "x" * (LIMIT + 1), "\n", id="field-over-limit"),
    pytest.param(",careful,extra", "\n", id="extra-field"),
    pytest.param("", "\n", id="short-row"),
    pytest.param(",careful", "\r\n", id="crlf"),
    pytest.param(",careful", "\r", id="cr"),
])
def test_csv_only_spellings_read_alike_from_any_row(tmp_path, agent, ending, row):
    # agent, which parses whatever csv reads, is moved last, so a split line's
    # end falls in its token. Row ``row`` ends in ``agent`` (with its comma),
    # and from it on, lines end in ``ending``.
    header, rows = many_rows(CHUNK_ROWS + 3)
    index = RECORD_COLUMNS.index("agent")
    lines = [",".join([*fields[:index], *fields[index + 1:], fields[index]])
             for fields in (line.split(",") for line in [header, *rows])]
    lines[row] = lines[row].rsplit(",", 1)[0] + agent
    endings = ["\n"] * row + [ending] * (len(lines) - row)
    assert_reads_alike(write(tmp_path, "".join(map(operator.add, lines, endings))))


# ---------------------------------------------------------------------------
# Reader: drawn files

# Tokens the csv module reads back unchanged from a one-line field: no quote,
# comma, control or line-separator character (str.splitlines breaks lines at
# some that csv keeps inside a field).
SAFE = st.text(st.characters(whitelist_categories=("L", "N", "P", "S", "Zs"),
                             blacklist_characters='",#\x1c\x1d\x1e\x85  '),
               max_size=5)


def spellings(*words):
    """Each word in its own case variants, some padded with spaces."""
    return st.sampled_from(words).flatmap(lambda word: st.sampled_from([
        word, word.upper(), word.capitalize(), f" {word}", f"{word} ",
    ]))


# Episode seed tokens that only int() decides: it takes a sign, spaces,
# underscores and non-ASCII digits, and rejects a superscript digit, an
# empty token and one longer than sys.get_int_max_str_digits() (4300).
SEED_SPELLINGS = ("+5", " 5", "5_0", "-5", "\u0665", "\u00b2", "", "9" * 4300, "9" * 4301)
SEED_IDS = ("plus", "space", "underscore", "minus", "arabic-indic-5", "superscript-2", "empty",
            "4300-digits", "4301-digits")


def good_tokens(column):
    if column in ("num_honeypots", "num_hosts", "seed", "repetition", "steps"):
        return st.sampled_from(["0", "2", "10", "1234", " 5", "+7", "-1"])
    if column == "movement_time":
        return st.one_of(spellings("none"), st.sampled_from(["25", "50", " 75"]))
    if column == "one_goal":
        return spellings("true", "false")
    if column == "agent":
        return st.sampled_from(AGENT_KINDS)
    if column == "outcome":
        return st.one_of(st.sampled_from(OUTCOMES), spellings(*OUTCOMES))
    if column == "score":
        return st.sampled_from(["0.0", "3006.0", "-1000", "1e3", " 2.5", "nan"])
    return st.one_of(st.integers(0, 2**64 - 1).map(str), st.sampled_from(SEED_SPELLINGS))


def quoted(token):
    return '"' + token.replace('"', '""') + '"'


# A quoted token that holds a comma, a quote or a line break, so it may span
# lines; an agent may be any str token.
QUOTED = st.tuples(SAFE, st.sampled_from([",", '"', "\n", "\r\n", "\r", ",\n"]),
                   SAFE).map("".join).map(quoted)
# From a drawn line on, lines may end in CRLF or CR.
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


def row_tokens(columns):
    return st.tuples(*(
        st.one_of(good_tokens(column), good_tokens(column), SAFE) for column in columns
    )).map(list)


@st.composite
def records_files(draw):
    columns = list(draw(st.permutations(RECORD_COLUMNS)))
    if draw(st.booleans()):  # a line's end then falls in agent's token
        columns.append(columns.pop(columns.index("agent")))
    for extra in draw(st.lists(st.sampled_from(["extra", "note"]), unique=True, max_size=2)):
        columns.insert(draw(st.integers(0, len(columns))), extra)
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 12))):
        row = draw(row_tokens(columns))
        if draw(st.integers(0, 9)) == 0:
            row = row[:draw(st.integers(1, len(row)))]  # a short row
        # Spellings only csv reads as meant, in one row in four; half of them
        # in agent, the column that parses whatever csv reads.
        edit, index = draw(st.integers(0, 15)), draw(st.integers(0, len(row) - 1))
        if edit < 4 and "agent" in columns[:len(row)] and draw(st.booleans()):
            index = columns.index("agent")
        if edit == 0:
            row[index] = quoted(row[index])
        elif edit == 1:
            row[index] = draw(QUOTED)
        elif edit == 2:
            row[index] += "\0"  # csv rejects NUL before Python 3.11
        elif edit == 3:  # a line over the field limit, or a field over it
            row[index] = "x" * draw(st.sampled_from([LIMIT - 20, LIMIT + 1]))
        lines.append(",".join(row))
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append("# a comment")
        elif kind == 2:
            lines.append(MANIFEST.replace(":3", f":{len(lines)}"))
    lines[:0] = [""] * draw(st.integers(0, 2))  # blank lines before the header
    if draw(st.booleans()):
        lines.insert(0, MANIFEST)
    plain = draw(st.integers(0, 2 * len(lines)))
    endings = [draw(ENDINGS) if number >= plain else "\n" for number in range(len(lines))]
    if draw(st.booleans()):
        endings[-1] = ""
    return "".join(map(operator.add, lines, endings))


@settings(max_examples=300, deadline=None)
@given(text=records_files())
def test_drawn_files_read_alike(tmp_path_factory, text):
    assert_reads_alike(write(tmp_path_factory.mktemp("drawn"), text))


# ---------------------------------------------------------------------------
# Reader: only the columns that aggregate reads

# Each group-by field alone, and none: together they store each record
# column that aggregate reads, and leave each other one unstored.
STORED_GROUP_BYS = [(name,) for name in GROUP_GETTERS] + [()]
# A token that the column's parser rejects, in each column but agent, which
# takes any str.
BAD_TOKENS = {
    "num_honeypots": "x", "movement_time": "never", "num_hosts": "1.5", "one_goal": "yes",
    "seed": "", "repetition": "r", "outcome": "lost", "steps": "9.", "score": "high",
    "episode_seed": "\u00b2",
}


def test_aggregate_fields_name_the_columns_aggregate_reads():
    assert aggregate_fields(()) == ("outcome", "steps")
    assert aggregate_fields(("agent", "num_honeypots")) == \
        ("num_honeypots", "agent", "outcome", "steps")
    assert aggregate_fields(("honeypots_on", "mtd_on")) == \
        ("num_honeypots", "movement_time", "outcome", "steps")
    assert set().union(*map(aggregate_fields, STORED_GROUP_BYS)) == set(RECORD_COLUMNS) \
        - {"repetition", "score", "episode_seed"}


def assert_stored_columns_read_alike(path):
    """At every chunk size in CHUNK_SIZES, reading only the columns that
    ``aggregate`` reads for each of STORED_GROUP_BYS gives the full read's
    lists for those columns and its manifest, and the same aggregate; or,
    where the full read fails, the same error text."""
    for rows in CHUNK_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(records_module, "CHUNK_ROWS", rows)
            try:
                full, expected = read_records_csv(str(path)), None
            except RecordsError as exc:
                full, expected = None, str(exc)
            for group_by in STORED_GROUP_BYS:
                fields = aggregate_fields(group_by)
                try:
                    columns, manifest = read_records_csv(str(path), fields)
                except RecordsError as exc:
                    assert str(exc) == expected, f"CHUNK_ROWS = {rows}, {fields}"
                    continue
                assert full is not None, f"CHUNK_ROWS = {rows}, {fields}: {expected}"
                assert tuple(columns) == fields
                # By repr, so that True and 1 differ.
                assert repr(columns) == repr({name: full[0][name] for name in fields}), \
                    f"CHUNK_ROWS = {rows}, {fields}"
                assert manifest == full[1]
                if columns["outcome"]:
                    assert aggregate(columns, group_by) == aggregate(full[0], group_by)
    return expected


def test_golden_file_stores_only_the_aggregated_columns_alike():
    assert assert_stored_columns_read_alike(GOLDEN) is None


@pytest.mark.parametrize("row", [2, 95])
@pytest.mark.parametrize("token", SEED_SPELLINGS, ids=SEED_IDS)
def test_seeds_that_only_int_decides_read_alike(tmp_path, token, row):
    header, *rows = golden_lines()
    rows[row - 1] = set_field(rows[row - 1], "episode_seed", token)
    path = write(tmp_path, "\n".join([header, *rows]) + "\n")
    error = assert_stored_columns_read_alike(path)
    try:
        int(token)
    except ValueError as exc:
        assert error == f"{path}: bad record row {row}: {exc}"
    else:
        assert error is None


@pytest.mark.parametrize("row", [3, 95])
@pytest.mark.parametrize("column", BAD_TOKENS)
def test_bad_token_in_any_column_fails_alike(tmp_path, column, row):
    # Most reads below leave ``column`` unstored, and must still check it.
    header, *rows = golden_lines()
    rows[row - 1] = set_field(rows[row - 1], column, BAD_TOKENS[column])
    path = write(tmp_path, "\n".join([header, *rows]) + "\n")
    assert assert_stored_columns_read_alike(path).startswith(f"{path}: bad record row {row}: ")


@settings(max_examples=150, deadline=None)
@given(text=records_files())
def test_drawn_files_store_only_the_aggregated_columns_alike(tmp_path_factory, text):
    assert_stored_columns_read_alike(write(tmp_path_factory.mktemp("drawn"), text))


# ---------------------------------------------------------------------------
# Aggregate

RECORDS = st.lists(st.builds(
    EpisodeRecord,
    num_honeypots=st.sampled_from([0, 1, 2, 9]),
    movement_time=st.sampled_from([None, 25, 100]),
    num_hosts=st.sampled_from([10, 50]),
    one_goal=st.booleans(),
    seed=st.sampled_from([1234, 42]),
    agent=st.sampled_from(AGENT_KINDS),
    repetition=st.integers(0, 3),
    outcome=st.sampled_from(OUTCOMES),
    steps=st.integers(1, 3000),
    score=st.sampled_from([0.0, 3006.0, -997.0]),
    episode_seed=st.integers(0, 2**64 - 1),
), min_size=1, max_size=40)
GROUP_BYS = st.lists(st.sampled_from(list(GROUP_GETTERS)), unique=True, max_size=4).map(tuple)


def one_group(size):
    """``size`` records of one cell, their steps out of order."""
    return [EpisodeRecord(0, None, 10, False, 1234, "careful", repetition, "win", steps, 0.0, 1)
            for repetition, steps in enumerate([7, 3000, 2, 41, 555][:size])]


@settings(max_examples=300, deadline=None)
@given(records=RECORDS, group_by=GROUP_BYS)
# Groups of 2 to 5 records: every residue of (n - 1) mod 4 in the quartiles.
@example(records=one_group(2), group_by=())
@example(records=one_group(3), group_by=())
@example(records=one_group(4), group_by=())
@example(records=one_group(5), group_by=())
def test_drawn_records_aggregate_alike(records, group_by):
    expected = reference_aggregate(records, group_by)
    assert aggregate(as_columns(records), group_by) == expected
    assert aggregate(records, group_by) == expected


@pytest.mark.parametrize("group_by", [(name,) for name in GROUP_GETTERS] + [(), CELL_FIELDS])
def test_golden_records_aggregate_alike(group_by):
    columns, _ = read_records_csv(str(GOLDEN))
    records, _ = reference_read(str(GOLDEN))
    expected = reference_aggregate(records, group_by)
    assert aggregate(columns, group_by) == expected
    assert aggregate(records, group_by) == expected


def test_golden_aggregate_text_alike():
    columns, _ = read_records_csv(str(GOLDEN))
    records, _ = reference_read(str(GOLDEN))
    for group_by in (("agent", "num_honeypots"), ("agent", "movement_time"),
                     ("honeypots_on", "mtd_on"), ("agent", "one_goal", "seed"), ("mtd_on",)):
        assert aggregates_csv_text({}, group_by, aggregate(columns, group_by)) == \
            aggregates_csv_text({}, group_by, reference_aggregate(records, group_by))
