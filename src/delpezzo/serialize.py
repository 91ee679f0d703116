"""Lossless record serialization: JSON, CSV, and presentation markdown.

One ordered column table, `CSV_COLUMNS`, is the serialized form of a
record.  `_row` reads a record into a tuple in column order, with None for
an absent value, and `_from_row` builds the record back from one (JSON
only: a CSV file is read into rows, never records).  CSV writes the
columns in order and an absent value as "", and reads every cell as an
int except in the text columns.  JSON places each column by one rule:
w0..w3 make up the `weights` list, a `klt_`, `moduli_` or `series_`
column goes into that nested object under the rest of its name, and every
other column stays at the top level.  An absent value is omitted, and so
is an object left empty (the `series` of a record without one), so the
JSON key order is the column order.  `to_json` writes exactly the bytes
of `json.dumps` on the whole list with indent 1, but runs json's
pure-Python indent encoder only once per record shape (which columns are
absent, and whether each value is an int or a string), to lay out that
shape's template.  Each record fills its shape's template with its
values, a string escaped by json's C `encode_basestring_ascii`; a value
of any other type is refused.  Both readers check one list of values per
column, and `from_json` builds the records a row at a time.  Markdown is
for reading.  No record field is rational: every number is an exact
integer.

Loading only parses.  `json_rows` and `csv_rows` read a text into rows
in column order, and reject, with a ValueError naming the record's
position and the column, a value of the wrong type or a required value
that is absent.  A value in a text column is a string, and any other
value an int: a bool or a float is rejected, as in `record 2: mu = 3.5 is
not an integer`.  Every column but the certificate and series ones is
required, and `klt_verdict` is `certified` or `unknown`: no record is
gated, so `not_klt`, like any other name, is refused.  The JSON top level
is a list of objects, each with weights a list of four and klt, moduli
and series objects when present.  `csv_rows` rejects a header other than
`CSV_COLUMNS`, a line whose cell count differs from the header's, and a
cell that is not an integer outside the text columns.  `from_json` then
builds each row's record, which asks for the certificate columns its
verdict is built from (certified: rule, lhs and rhs), and for weights and
a degree that make a `Candidate`.  `klt_gate` stays a column, always
empty, so that every file keeps its layout.  Whether a row is the
record `classify` computes is not theirs to judge: `delpezzo check FILE`
compares every row with `_row` of its recomputation.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import fields
from json.encoder import encode_basestring_ascii

from .klt import Certified, Unknown
from .records import CandidateRecord
from .weights import Candidate, WeightSystem

CSV_COLUMNS = [
    "index", "w0", "w1", "w2", "w3", "degree", "b2_orbifold", "b2_link", "l",
    "mu", "klt_verdict", "klt_rule", "klt_gate", "klt_lhs", "klt_rhs",
    "klt_provenance", "moduli_m", "moduli_dimG", "moduli_n", "series_id",
    "series_k",
]
_TEXT = ("klt_verdict", "klt_rule", "klt_gate", "klt_provenance", "series_id")
_GROUPS = ("klt", "moduli", "series")
_OPTIONAL = ("klt_rule", "klt_gate", "klt_lhs", "klt_rhs", "series_id", "series_k")


def _place(column: str) -> tuple[str | None, str | int]:
    """Where a column sits in JSON: (object, key), object None at the top level."""
    if column in ("w0", "w1", "w2", "w3"):
        return "weights", int(column[1])
    group, _, key = column.partition("_")
    return (group, key) if group in _GROUPS else (None, column)


_PLACES = tuple(map(_place, CSV_COLUMNS))
_VERDICTS = {Certified: "certified", Unknown: "unknown"}
# Each verdict's class, and the certificate columns (without `klt_`) it is built from: its fields.
_BUILD = {name: (cls, tuple(f.name for f in fields(cls))) for cls, name in _VERDICTS.items()}


def _row(r: CandidateRecord) -> tuple:
    c, v = r.candidate, r.klt
    return (c.I, *c.weights.w, c.d, r.b2_orbifold, r.b2_link, r.l, r.mu, _VERDICTS[type(v)],
            getattr(v, "rule", None), None, getattr(v, "lhs", None),
            getattr(v, "rhs", None), r.klt_provenance, r.moduli_m, r.moduli_dim_aut,
            r.moduli_n, r.series_id, r.series_k)


def _from_row(row: tuple) -> CandidateRecord:
    """The record a parsed row describes; its index is recomputed as |w| - d."""
    (_, w0, w1, w2, w3, d, b2_orbifold, b2_link, l, mu, verdict, rule, _, lhs, rhs,
     provenance, m, dim_aut, n, series_id, series_k) = row
    cls, names = _BUILD[verdict]
    certificate = {"rule": rule, "lhs": lhs, "rhs": rhs}
    missing = [name for name in names if certificate[name] is None]
    if missing:
        raise ValueError(f"klt_{missing[0]} is missing")
    klt = cls(*(certificate[name] for name in names))
    return CandidateRecord(Candidate(WeightSystem((w0, w1, w2, w3)), d), mu, b2_link,
                           b2_orbifold, l, klt, provenance, m, dim_aut, n, series_id, series_k)


def _rows(columns) -> list[tuple]:
    """Rows from one list of values per column, each value of its column's
    type and present unless optional, and each verdict one of `_BUILD`'s; a
    ValueError names the record's position."""
    for column, values in zip(CSV_COLUMNS, columns):
        if column not in _OPTIONAL and None in values:
            raise ValueError(f"record {values.index(None) + 1}: {column} is missing")
        types = {str if column in _TEXT else int, type(None)}
        if not set(map(type, values)) <= types:  # one pass; the search only on failure
            pos, value = next((pos, v) for pos, v in enumerate(values, 1) if type(v) not in types)
            raise ValueError(f"record {pos}: {column} = {value!r} is not "
                             + ("a string" if str in types else "an integer"))
        if column == "klt_verdict" and not set(values) <= _BUILD.keys():
            pos, value = next((pos, v) for pos, v in enumerate(values, 1) if v not in _BUILD)
            raise ValueError(f"record {pos}: klt_verdict {value!r} is not one of {', '.join(_BUILD)}")
    return list(zip(*columns))


def _records(rows) -> list[CandidateRecord]:
    out = []
    for pos, row in enumerate(rows, 1):
        try:
            out.append(_from_row(row))
        except ValueError as exc:
            raise ValueError(f"record {pos}: {exc}") from None
    return out


def _nest(row) -> dict:
    """The JSON object of a row: each present value at its column's place."""
    out: dict = {}
    for (group, key), value in zip(_PLACES, row):
        if value is not None:
            (out if group is None else out.setdefault(group, {}))[key] = value
    out["weights"] = list(out["weights"].values())  # keyed 0..3 until here
    return out


def _json_columns(entries) -> list[list]:
    """One list of values per column, each read from its place in every entry."""
    if type(entries) is not list:
        raise ValueError(f"the JSON top level is not a list of records: {entries!r:.40}")
    for pos, e in enumerate(entries, 1):
        if type(e) is not dict:
            raise ValueError(f"record {pos}: {e!r:.40} is not an object")
        for group in _GROUPS:
            if type(e.get(group, {})) is not dict:
                raise ValueError(f"record {pos}: {group} = {e[group]!r:.40} is not an object")
        if type(e.get("weights")) is not list or len(e["weights"]) != 4:
            raise ValueError(f"record {pos}: weights {e.get('weights')!r} are not four numbers")
    objects = {None: entries, "weights": [e["weights"] for e in entries]}
    objects.update((group, [e.get(group, {}) for e in entries]) for group in _GROUPS)
    return [[w[key] for w in objects[group]] if group == "weights" else
            [obj.get(key) for obj in objects[group]] for group, key in _PLACES]


@functools.cache
def _template(types: tuple) -> str:
    """The text of a record whose `_row` values have these types, with `{i}`
    where column i's value goes.

    It is `json.dumps(..., indent=1)` of the record nested with the mark
    "<i>" in place of each present value, with its literal braces doubled
    for `str.format` and one space after each newline: JSON escapes a
    newline inside a string as `\\n`, so every newline is one the encoder
    wrote before an indented line, and the extra space puts the record's
    lines at depth 1, as they sit in the list.
    """
    for column, t in zip(CSV_COLUMNS, types):
        if t not in (int, str, type(None)):  # json.dumps writes a bool as true, a float its way
            raise ValueError(f"{column} is a {t.__name__}, not an integer or a string")
    marks = [None if t is type(None) else f"<{i}>" for i, t in enumerate(types)]
    text = json.dumps(_nest(marks), indent=1).replace("{", "{{").replace("}", "}}")
    return "\n " + text.replace("\n", "\n ").replace('"<', "{").replace('>"', "}")


def to_json(records: list[CandidateRecord]) -> str:
    """`json.dumps([_nest(_row(r)) for r in records], indent=1) + "\\n"`, a record at a time.

    Each record fills the `_template` of its shape (the types of its row's
    values; real records take four: certified or unknown, with or without
    a series): an int as it is, a string as the encoder writes it.  The
    list is written as the encoder writes it: "[", then each record after
    a newline and one space, with "," between records, then a newline
    before "]" unless the list is empty.  Only the records' texts are held,
    not the tens of thousands of chunks `json.dumps` makes of the document.
    """
    texts = [_template(tuple(map(type, row))).format(
        *[encode_basestring_ascii(v) if type(v) is str else v for v in row])
        for row in map(_row, records)]
    return "[" + ",".join(texts) + ("\n]\n" if records else "]\n")


def json_rows(text: str) -> list[tuple]:
    return _rows(_json_columns(json.loads(text)))


def from_json(text: str) -> list[CandidateRecord]:
    return _records(json_rows(text))


def to_csv(records: list[CandidateRecord]) -> str:
    buf = io.StringIO()
    rows = (["" if v is None else v for v in _row(r)] for r in records)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def csv_rows(text: str) -> list[tuple]:
    header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
    if header != CSV_COLUMNS:
        raise ValueError(f"CSV header is not {','.join(CSV_COLUMNS)}")
    for line, cells in enumerate(rows, 2):
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"CSV line {line} has {len(cells)} cells, the header {len(CSV_COLUMNS)}")
    return _rows([_csv_column(column, cells) for column, cells in zip(CSV_COLUMNS, zip(*rows))])


def _csv_column(column: str, cells) -> list:
    """A column's CSV cells as values: "" is None, and a cell outside the text columns an int."""
    if column in _TEXT:
        return [s or None for s in cells]
    for pos, s in enumerate(cells, 1):
        if s and not s.removeprefix("-").isdecimal():
            raise ValueError(f"record {pos}: {column} = {s!r} is not an integer")
    return [int(s) if s else None for s in cells]


def to_markdown(records: list[CandidateRecord]) -> str:
    header = (
        "| I | weights | d | b2 | link | mu | K-E | certificate | m | dimG | n | series |\n"
        "|---|---------|---|----|------|----|-----|-------------|---|------|---|--------|\n"
    )
    lines = []
    for r in records:
        if isinstance(r.klt, Certified):
            cert = f"{r.klt.rule}: {r.klt.lhs} < {r.klt.rhs}"
        else:
            cert = "-" if r.klt_provenance == "unknown" else r.klt_provenance
        series = f"{r.series_id} k={r.series_k}" if r.series_id else ""
        lines.append(
            f"| {r.candidate.I} | {r.candidate.weights} | {r.candidate.d} "
            f"| {r.b2_orbifold} | #{r.l} | {r.mu} | {r.ke} | {cert} "
            f"| {r.moduli_m} | {r.moduli_dim_aut} | {r.moduli_n} | {series} |"
        )
    return header + "\n".join(lines) + ("\n" if lines else "")
