import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import delpezzo.cli as cli
from delpezzo import catalog, moduli, records, search, serialize
from delpezzo.klt import Certified, Unknown
from delpezzo.records import build_record
from delpezzo.search import brute_force_enumerate
from delpezzo.serialize import (
    CSV_COLUMNS,
    _nest,
    _row,
    csv_rows,
    from_json,
    json_rows,
    to_csv,
    to_json,
    to_markdown,
)
from delpezzo.weights import Candidate, WeightSystem


def record_of(w, d):
    return build_record(Candidate(WeightSystem(w), d))


@pytest.fixture(scope="module")
def sample_records():
    """Every verdict a record has: the oracle's certified and unknown records."""
    return brute_force_enumerate(1, 1, 60) + brute_force_enumerate(2, 2, 40)


def test_sample_records_cover_every_verdict(sample_records):
    assert {type(r.klt) for r in sample_records} == {Certified, Unknown}


def test_json_round_trip(sample_records):
    assert from_json(to_json(sample_records)) == sample_records


def test_csv_round_trip(sample_records):
    """CSV reads back into the rows it was written from."""
    assert csv_rows(to_csv(sample_records)) == [_row(r) for r in sample_records]


def test_json_and_csv_carry_identical_data(sample_records):
    assert csv_rows(to_csv(sample_records)) == json_rows(to_json(sample_records))


def test_markdown_renders(sample_records):
    text = to_markdown(sample_records)
    assert text.startswith("| I |")
    assert len(text.strip().splitlines()) == len(sample_records) + 2
    # the certificate column: the certificate, "-" for an open verdict (kills `!=` for `==`)
    certified, unknown = to_markdown([record_of(*CERTIFIED), record_of(*UNKNOWN)]).splitlines()[2:]
    assert "| Y | R3: 36 < 54 |" in certified and "| ? | - |" in unknown


def test_json_schema_fields(sample_records):
    data = json.loads(to_json(sample_records))
    for entry in data:
        assert set(entry) >= {
            "index", "weights", "degree", "b2_orbifold", "b2_link", "l",
            "mu", "klt", "moduli",
        }
        assert set(entry["moduli"]) == {"m", "dimG", "n"}
        assert entry["klt"]["verdict"] in {"certified", "unknown"}


def test_json_key_order_is_csv_column_order(sample_records):
    """w0..w3 form `weights`, klt_/moduli_/series_ columns nest, absent values drop."""
    for entry in json.loads(to_json(sample_records)):
        keys = []
        for key, value in entry.items():
            if key == "weights":
                keys += [f"w{i}" for i in range(len(value))]
            elif isinstance(value, dict):
                keys += [f"{key}_{k}" for k in value]
            else:
                keys.append(key)
        assert keys == [c for c in CSV_COLUMNS if c in keys]


def _records_150(structured_150):
    return [r for index in range(1, 11) for r in structured_150[index]]


def test_to_json_is_json_dumps_of_the_list(sample_records, structured_150):
    """Byte for byte, including a string whose escapes hold a newline and a non-ASCII letter."""
    records = _records_150(structured_150)
    member = next(r for r in records if r.series_id)
    odd = dataclasses.replace(member, series_id='a"b\\c\nd\u00e9')
    for rs in ([], sample_records[:1], records, [odd, *sample_records[:2]]):
        assert to_json(rs) == json.dumps([_nest(_row(r)) for r in rs], indent=1) + "\n"


def test_to_json_peak_memory_is_a_few_times_its_text(structured_150):
    """Encoding the whole list at once peaks near 13 times the text; a record at a time, below 3."""
    records = _records_150(structured_150)
    tracemalloc.start()
    try:
        text = to_json(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)


def _edited(records, pos, edits):
    """JSON and CSV text of `records` with values of record `pos` replaced,
    `edits` mapping each column to its new value.

    None removes the value: the JSON key is dropped and the CSV cell left empty.
    """
    rows = json.loads(to_json(records))
    table = list(csv.reader(io.StringIO(to_csv(records))))
    for column, value in edits.items():
        group, key = serialize._place(column)
        target = rows[pos] if group is None else rows[pos][group]
        if value is None:
            del target[key]
        else:
            target[key] = value
        table[pos + 1][CSV_COLUMNS.index(column)] = "" if value is None else str(value)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return json.dumps(rows, indent=1), buf.getvalue()


def _check_file(tmp_path, content, capsys):
    """`delpezzo check` on a file holding `content`: (exit code, stdout, stderr)."""
    path = tmp_path / "records"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code = cli.main(["check", str(path)])
    return (code, *capsys.readouterr())


# (weights, degree) of a certified and an unknown record, and of a series member
CERTIFIED, UNKNOWN = ((2, 3, 5, 9), 18), ((2, 3, 4, 5), 12)
SERIES = ((2, 3, 3, 5), 12)
AT_UNKNOWN, AT_SERIES = "(I=2, w=(2, 3, 4, 5), d=12): ", "(I=1, w=(2, 3, 3, 5), d=12): "
NOT_KLT = "klt_verdict 'not_klt' is not one of certified, unknown"


@pytest.mark.parametrize(
    "refuser,case,edits,message",
    [
        ("check", UNKNOWN, {"index": 7}, "(I=7, w=(2, 3, 4, 5), d=12): index = 7 in the file, 2 computed"),
        ("check", UNKNOWN, {"b2_orbifold": 99}, AT_UNKNOWN + "b2_orbifold = 99 in the file, 5 computed"),
        ("check", UNKNOWN, {"l": 0}, AT_UNKNOWN + "l = 0 in the file, 4 computed"),
        ("check", UNKNOWN, {"moduli_n": 9}, AT_UNKNOWN + "moduli_n = 9 in the file, 4 computed"),
        ("check", CERTIFIED, {"klt_provenance": "unknown"}, "(I=1, w=(2, 3, 5, 9), d=18): "
         "klt_provenance = 'unknown' in the file, 'cascade' computed"),
        ("check", UNKNOWN, {"klt_provenance": "folklore"},
         AT_UNKNOWN + "klt_provenance = 'folklore' in the file, 'unknown' computed"),
        ("load", UNKNOWN, {"klt_verdict": "maybe"},
         "klt_verdict 'maybe' is not one of certified, unknown"),
        # no record is gated, so a not_klt row is refused at its verdict,
        # whatever its provenance and gate columns hold (an unknown row has no gate)
        ("load", UNKNOWN, {"klt_verdict": "not_klt", "klt_gate": "G1", "klt_provenance": "cascade"},
         NOT_KLT),
        ("load", UNKNOWN, {"klt_verdict": "not_klt"}, NOT_KLT),
        ("load", UNKNOWN, {"klt_verdict": "not_klt", "klt_gate": "G9"}, NOT_KLT),
        ("load", UNKNOWN, {"mu": None}, "mu is missing"),
        ("build", CERTIFIED, {"klt_rule": None}, "klt_rule is missing"),
        ("build", CERTIFIED, {"klt_lhs": None}, "klt_lhs is missing"),
        ("check", UNKNOWN, {"klt_gate": "G1"}, AT_UNKNOWN + "klt_gate = 'G1' in the file, None computed"),
        ("check", CERTIFIED, {"klt_gate": "G1"}, "(I=1, w=(2, 3, 5, 9), d=18): "
         "klt_gate = 'G1' in the file, None computed"),
        ("check", SERIES, {"series_k": None}, AT_SERIES + "series_k = None in the file, 1 computed"),
        ("check", SERIES, {"series_id": None},
         AT_SERIES + "series_id = None in the file, '(2,2k+1,2k+1,4k+1)' computed"),
    ],
    ids=["index", "b2_orbifold", "l", "moduli_n", "certified-provenance", "unknown-provenance",
         "verdict", "not_klt-provenance", "not_klt-gate-missing", "not_klt-gate-unknown",
         "mu-missing", "certified-rule-missing", "certified-lhs-missing", "unknown-with-gate",
         "certified-with-gate", "series-k-missing", "series-id-missing"],
)
def test_loaders_reject_contradicting_rows(tmp_path, capsys, refuser, case, edits, message):
    """A row with a required value absent or a verdict no record has is
    refused by both readers, `from_json` and `csv_rows`.  A certified row
    without its certificate is refused by `from_json`, which builds the
    records; `csv_rows` only reads rows.  Any other row that is not the
    record `classify` computes is read, and `check` refuses it, naming the
    record and the first column that differs, or the rejection."""
    records = [record_of(*CERTIFIED), record_of(*case)]
    json_text, csv_text = _edited(records, 1, edits)
    loads = [(from_json, json_text)] + ([] if refuser == "build" else [(csv_rows, csv_text)])
    for load, text in loads:
        if refuser == "check":
            load(text)
            assert _check_file(tmp_path, text, capsys) == (2, "", f"mismatch: record 2 {message}\n")
        else:
            with pytest.raises(ValueError, match="^record 2: " + re.escape(message)):
                load(text)


# Text that a template writer could mistake for its own: format fields, JSON escapes, non-ASCII
_TRICKY_TEXT = st.one_of(
    st.lists(st.sampled_from(["{", "}", "{0}", '"', "\\", "\n", "\u00e9", "a"]), max_size=6)
    .map("".join), st.text(max_size=8))


@st.composite
def _any_shape_record(draw):
    """A record of either verdict, with any of its optional columns absent, any
    int for mu, lhs and series_k, and text JSON must escape in every string column."""
    base = record_of(*draw(st.sampled_from([CERTIFIED, UNKNOWN])))
    klt = base.klt
    if isinstance(klt, Certified):
        lhs = draw(st.integers())
        klt = Certified(draw(st.none() | _TRICKY_TEXT), lhs, lhs + draw(st.integers(1)))
    return dataclasses.replace(
        base, mu=draw(st.integers()), klt=klt, klt_provenance=draw(_TRICKY_TEXT),
        series_id=draw(st.none() | _TRICKY_TEXT), series_k=draw(st.none() | st.integers()))


@settings(max_examples=200, deadline=None)
@given(st.lists(_any_shape_record(), max_size=3))
def test_to_json_fills_every_shape_as_json_dumps_writes_it(rs):
    assert to_json(rs) == json.dumps([_nest(_row(r)) for r in rs], indent=1) + "\n"


@pytest.mark.parametrize("field,column,value", [
    ("mu", "mu", True), ("series_k", "series_k", False), ("moduli_dim_aut", "moduli_dimG", 2.0)])
def test_to_json_refuses_a_value_neither_int_nor_string(field, column, value):
    """`json.dumps` writes a bool as `true` and a float as `2.0`, which no template holds."""
    rec = dataclasses.replace(record_of(*CERTIFIED), **{field: value})
    with pytest.raises(ValueError, match=f"^{column} is a {type(value).__name__}, not an integer"):
        to_json([rec])


GOLDEN_CSV = Path(__file__).resolve().parent / "golden" / "records.csv"


def test_check_passes_the_golden_records(capsys):
    assert cli.main(["check", str(GOLDEN_CSV)]) == 0
    assert capsys.readouterr() == ("416 records match their recomputation\n", "")


def test_check_passes_the_classified_sample_as_json(sample_records, tmp_path, capsys):
    assert _check_file(tmp_path, to_json(sample_records), capsys) == (
        0, f"{len(sample_records)} records match their recomputation\n", "")


@pytest.mark.parametrize("write", [to_json, to_csv], ids=["json", "csv"])
def test_check_reads_a_file_after_a_byte_order_mark(write, tmp_path, capsys):
    """Spreadsheets' "CSV UTF-8" export starts the file with a UTF-8 byte-order mark."""
    records = [record_of(*CERTIFIED), record_of(*UNKNOWN)]
    assert _check_file(tmp_path, "\ufeff" + write(records), capsys) == (
        0, "2 records match their recomputation\n", "")


def test_check_refuses_a_not_klt_row_as_unreadable(tmp_path, capsys):
    """No record is gated, so a not_klt row, gate and all, is no record file's row."""
    records = [record_of(*CERTIFIED), record_of(*UNKNOWN)]
    for text in _edited(records, 1, {"klt_verdict": "not_klt", "klt_gate": "G1"}):
        assert _check_file(tmp_path, text, capsys) == (
            1, "", "error: record 2: klt_verdict 'not_klt' is not one of certified, unknown\n")


@pytest.mark.parametrize(
    "edits,message",
    [
        ({"mu": 105}, "mu = 105 in the file, 104 computed"),
        ({"moduli_m": 14, "moduli_n": 6}, "moduli_m = 14 in the file, 13 computed"),
        ({"b2_orbifold": 8, "b2_link": 7, "l": 7}, "b2_orbifold = 8 in the file, 7 computed"),
        ({"klt_lhs": 35}, "klt_lhs = 35 in the file, 36 computed"),
    ],
    ids=["mu", "moduli_m-and-n", "b2-and-l", "klt_lhs"],
)
def test_check_refuses_rows_that_agree_with_themselves(tmp_path, capsys, edits, message):
    """Rows whose columns agree with one another, but not with `classify`:
    the readers read them, and `check` names the first wrong column."""
    records = [record_of(*UNKNOWN), record_of(*CERTIFIED)]
    for load, text in zip((from_json, csv_rows), _edited(records, 1, edits)):
        load(text)
        assert _check_file(tmp_path, text, capsys) == (
            2, "", f"mismatch: record 2 (I=1, w=(2, 3, 5, 9), d=18): {message}\n")


def test_check_refuses_a_row_classify_rejects(tmp_path, capsys):
    """(2,3,4,5) at degree 13 is quasi-smooth, but X contains a singular line."""
    records = [record_of(*CERTIFIED), record_of(*UNKNOWN)]
    for text in _edited(records, 1, {"index": 1, "degree": 13}):
        assert _check_file(tmp_path, text, capsys) == (
            2, "", "mismatch: record 2 (I=1, w=(2, 3, 4, 5), d=13): classify rejects it: "
            "X not well-formed: gcd(w0, w2) = 2 does not divide 13, so X contains the line "
            "z1 = z3 = 0\n")


def _reordered_header(text):
    header, rest = text.split("\n", 1)
    names = header.split(",")
    names[1], names[2] = names[2], names[1]
    return ",".join(names) + "\n" + rest


@pytest.mark.parametrize(
    "content,error",
    [
        (None, "No such file or directory"),
        ("DIR", "Is a directory"),
        (b"\xff\xfeindex", "'utf-8' codec can't decode byte 0xff in position 0"),
        ('[{"index": 1', "Expecting"),
        ("REORDERED", "CSV header is not index,w0,w1,"),
        ("x" * 200_000, "field larger than field limit"),
        ('{"a": 1}', "the JSON top level is not a list of records: {'a': 1}"),
    ],
    ids=["missing", "directory", "not-utf8", "invalid-json", "reordered-header",
         "field-too-large", "json-object"],
)
def test_check_unreadable_file_exit1(tmp_path, capsys, content, error):
    path = tmp_path / "records"
    if content == "DIR":
        path.mkdir()
    elif content == "REORDERED":
        path.write_text(_reordered_header(to_csv([record_of(*CERTIFIED)])))
    elif content is not None:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert cli.main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and error in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "json_path,value,message",
    [
        (("mu",), 3.5, "mu = 3.5 is not an integer"),
        (("mu",), "x", "mu = 'x' is not an integer"),
        (("mu",), True, "mu = True is not an integer"),
        (("degree",), "18", "degree = '18' is not an integer"),
        (("weights", 3), 5.0, "w3 = 5.0 is not an integer"),
        (("series", "id"), 7, "series_id = 7 is not a string"),
        (("klt",), 5, "klt = 5 is not an object"),
        (("moduli",), [12, 0, 12], "moduli = [12, 0, 12] is not an object"),
        (("weights",), 9, "weights 9 are not four numbers"),
    ],
    ids=["mu-float", "mu-string", "mu-bool", "degree-string", "weight-float", "series-id-int",
         "klt-int", "moduli-list", "weights-int"],
)
def test_from_json_rejects_mistyped_values(json_path, value, message):
    """Every number is an int (a bool is not), every text a string, and
    every nested record part an object; the error names the record."""
    rows = json.loads(to_json([record_of(*CERTIFIED), record_of(*SERIES)]))
    *outer, key = json_path
    target = rows[1]
    for part in outer:
        target = target[part]
    target[key] = value
    with pytest.raises(ValueError, match="^record 2: " + re.escape(message)):
        from_json(json.dumps(rows))


@pytest.mark.parametrize(
    "text,message",
    [("[1]", "record 1: 1 is not an object"),
     ("null", "the JSON top level is not a list of records: None"),
     ("{}", "the JSON top level is not a list of records: {}")],
    ids=["entry-int", "null", "object"],
)
def test_from_json_rejects_a_top_level_that_is_not_a_list_of_objects(text, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        from_json(text)


def test_from_csv_rejects_a_number_cell_that_is_not_an_integer():
    _, csv_text = _edited([record_of(*CERTIFIED), record_of(*UNKNOWN)], 1, {"degree": "x"})
    with pytest.raises(ValueError, match="^record 2: degree = 'x' is not an integer$"):
        csv_rows(csv_text)


def test_from_json_rejects_weights_that_are_not_four_numbers():
    entry = json.loads(to_json([record_of(*UNKNOWN)]))[0]
    entry["weights"].append(7)
    with pytest.raises(ValueError, match=r"^record 1: weights \[2, 3, 4, 5, 7\] are not four"):
        from_json(json.dumps([entry]))


def test_loaders_accept_unknown_verdict_with_cascade_provenance():
    """A cascade family member the cascade does not certify keeps the family's provenance."""
    r = dataclasses.replace(record_of(*UNKNOWN), klt_provenance="cascade")
    assert r.ke == "Y"
    assert from_json(to_json([r])) == [r]
    assert csv_rows(to_csv([r])) == [_row(r)]


def test_from_csv_rejects_reordered_header(sample_records):
    with pytest.raises(ValueError, match="CSV header"):
        csv_rows(_reordered_header(to_csv(sample_records)))


@pytest.mark.parametrize("edit,cells", [(lambda line: line + ",1,2", 23),
                                        (lambda line: line[:-1], 20)],
                         ids=["two-extra-cells", "no-empty-last-cell"])
def test_from_csv_rejects_a_line_of_the_wrong_length(sample_records, edit, cells):
    """Two extra cells, or a line without its empty last cell (a record without series)."""
    lines = to_csv(sample_records).splitlines()
    n = next(i for i, line in enumerate(lines) if line.endswith(",,"))
    lines[n] = edit(lines[n])
    with pytest.raises(ValueError, match=f"CSV line {n + 1} has {cells} cells"):
        csv_rows("\n".join(lines) + "\n")


def test_cli_enumerate_index3(capsys):
    code = cli.main(["enumerate", "--index", "3", "--max-weight", "150",
                     "--method", "brute", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    records = json.loads(out)
    assert len(records) == 7


def test_cli_enumerate_empty_index11(capsys):
    code = cli.main(["enumerate", "--index", "11", "--max-weight", "60",
                     "--method", "both", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == []


def test_cli_enumerate_both_methods_agree(capsys):
    code = cli.main(["enumerate", "--index", "4", "--max-weight", "60",
                     "--method", "both", "--format", "csv"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("index,")


@pytest.mark.parametrize("route, name", [("_structured_passes", "structured search"),
                                         ("_oracle_passes", "exhaustive oracle")],
                         ids=["structured", "oracle"])
def test_cli_method_disagreement_exit2(route, name, capsys, monkeypatch, tmp_path):
    # fault injection: make one route's passes drop an admitted point
    I, w, d = search.structured_enumerate(3, 100)[-1].key()
    real = getattr(search, route)

    def broken(*args):
        for P in real(*args):
            yield P[:, (P.T != (*w, d)).any(axis=1)]

    monkeypatch.setattr(search, route, broken)
    argv = ["enumerate", "--index", "3", "--max-weight", "100", "--method", "both", "--format", "json"]
    code = cli.main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "disagreement" in err
    assert f"(I={I}, w={w}, d={d}) missing from the {name}" in err
    assert err.count("\n") == 1
    # a failed run leaves an existing output file as it was
    target = tmp_path / "rows.json"
    target.write_text("old content")
    assert cli.main(argv + ["--output", str(target)]) == 2
    assert target.read_text() == "old content"


def test_cli_internal_error_exit3(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "_certify", crash)
    assert cli.main(["certify", "2", "3", "5", "9", "--index", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: injected fault\n"
    assert "Traceback" not in captured.out + captured.err


def test_cli_usage_error_exit1(capsys):
    assert cli.main(["enumerate", "--method", "sideways"]) == 1
    assert cli.main(["enumerate", "--index", "5..2"]) == 1
    assert cli.main(["certify", "1", "2", "3", "5"]) == 1  # needs degree or index


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--jobs", "2"],
        ["reproduce", "--table", "1", "--jobs", "2"],
    ],
)
def test_cli_rejects_jobs_flag(capsys, argv):
    """The oracle runs in one process, so there is no `--jobs`."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: unrecognized arguments: --jobs 2\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--max-weight", "0", "--method", "brute"],
        ["enumerate", "--max-weight", "-5", "--method", "structured"],
        ["reproduce", "--table", "1", "--max-weight", "0"],
    ],
)
def test_cli_rejects_nonpositive_max_weight(capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: argument --max-weight:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--max-weight", "268435456", "--method", "brute"],
        ["enumerate", "--max-weight", "10000000000", "--method", "structured"],
        ["reproduce", "--table", "1", "--max-weight", "268435456"],
    ],
)
def test_cli_rejects_max_weight_past_oracle_bound(capsys, argv):
    """A bound past `search.ORACLE_W_MAX` is a usage error, not an internal one."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: argument --max-weight: expected at most 268435455, got " \
        f"'{argv[argv.index('--max-weight') + 1]}'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--index", "10000000000000000000", "--max-weight", "5", "--method", "structured"],
        ["--index", "10000000000000000000", "--max-weight", "5", "--method", "both"],
        ["--index", "4611686018427387904", "--max-weight", "50", "--method", "structured"],
    ],
)
def test_cli_enumerate_index_past_gate_g1_is_empty(capsys, argv):
    """Past 2I >= 3*w_max gate G1 leaves no record, on either route, and a
    huge index is no error (nor a numpy overflow warning)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["enumerate", *argv]) == 0
    assert caught == []
    assert capsys.readouterr() == (to_markdown([]), "")


def test_cli_certify_outputs(capsys):
    assert cli.main(["certify", "2", "3", "5", "9", "--index", "1"]) == 0
    assert "Certified (rule R3: 36 < 54)" in capsys.readouterr().out
    assert cli.main(["certify", "1", "2", "3", "5", "--index", "1"]) == 0
    assert "Unknown" in capsys.readouterr().out
    assert cli.main(["certify", "1", "1", "4", "4", "--index", "2"]) == 0
    assert "gate G1" in capsys.readouterr().out


def test_cli_certify_rejects_non_quasismooth(capsys):
    assert cli.main(["certify", "2", "3", "4", "5", "--degree", "13"]) == 1
    assert "rejected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["2", "3", "4", "5", "--degree", "13"],
         "X not well-formed: gcd(w0, w2) = 2 does not divide 13, so X contains the line z1 = z3 = 0"),
        (["2", "2", "2", "3", "--degree", "8"], "P(w) not well-formed: gcd(w0, w1, w2) = 2"),
        (["1", "1", "1", "3", "--degree", "5"], "condition I fails: no monomial z3^m z_j"),
        (["1", "2", "3", "3", "--degree", "8"], "condition III fails: no z2^a z3^b"),
    ],
    ids=["X-not-well-formed", "P-not-well-formed", "condition-I", "condition-III"],
)
@pytest.mark.parametrize("command", ["certify", "topology"])
def test_cli_rejection_names_its_reason(capsys, command, argv, reason):
    assert cli.main([command] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("rejected: ") and reason in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_topology_outputs(capsys):
    assert cli.main(["topology", "2", "3", "5", "9", "--degree", "18"]) == 0
    out = capsys.readouterr().out
    assert "mu = 104" in out
    assert "divisor = 1 - L2 + L6 - L9 + 6L18\n" in out
    assert "b2(link) = 6" in out
    assert "#6(S^2 x S^3)" in out

    assert cli.main(["topology", "1", "1", "1", "1", "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "b2(link) = 1" in out and "link: S^2 x S^3" in out

    assert cli.main(["topology", "1", "1", "1", "1", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "mu = 16" in out and "b2(link) = 6" in out
    assert "divisor = 1 + 5L3\n" in out

    # gated at index 5, but a quasi-smooth well-formed hypersurface: its link is S^5
    # (kills `b2 <= 0` for `b2 < 0` in `topology._link_report`)
    assert cli.main(["topology", "1", "2", "3", "5", "--degree", "6"]) == 0
    out = capsys.readouterr().out
    assert "b2(link) = 0, b2(orbifold) = 1" in out and "link: S^5\n" in out


def test_divisor_text_writes_every_kind_of_term():
    # the L_1 term and the coefficients 1, -1, >= 2 and <= -2
    assert cli._divisor_text({1: 1, 2: -1, 3: 1, 6: -2, 9: 3}) == "1 - L2 + L3 - 2L6 + 3L9"


@pytest.mark.parametrize("method", ["structured", "both"])
def test_cli_index_range_stops_at_gate_g1(method, capsys, monkeypatch):
    """No index past (3*w_max - 1) // 2 has a record, so a huge range
    expands exactly the indices up to it: 1..7 at w_max = 5.  An index
    past them fails at once rather than running a million of them."""
    argv = ["enumerate", "--max-weight", "5", "--method", method, "--format", "csv"]
    assert cli.main(argv + ["--index", "1..7"]) == 0
    expected = capsys.readouterr().out
    real = search._lines
    calls = []

    def counted(index, w_max):
        calls.append(index)
        if index > 7:
            raise AssertionError(f"index {index} expanded past gate G1")
        return real(index, w_max)

    monkeypatch.setattr(search, "_lines", counted)
    assert cli.main(argv + ["--index", "1..1000000"]) == 0
    assert calls == list(range(1, 8))
    assert capsys.readouterr().out == expected


def test_cli_output_file(tmp_path):
    target = tmp_path / "rows.json"
    code = cli.main(["enumerate", "--index", "3", "--max-weight", "150",
                     "--method", "structured", "--format", "json",
                     "--output", str(target)])
    assert code == 0
    assert len(json.loads(target.read_text())) == 7


def test_cli_unwritable_output_exit1(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code = cli.main(["enumerate", "--index", "3", "--max-weight", "40",
                     "--method", "structured", "--output", str(target)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_cli_closed_stdout_exit1(unbuffered):
    # stdout is a pipe whose read end is closed before the command writes,
    # as in `delpezzo certify ... | true`; with PYTHONUNBUFFERED the write
    # itself fails, without it the flush does
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "delpezzo.cli", "certify", "2", "3", "5", "9", "--degree", "18"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "Broken pipe" in proc.stderr
    assert proc.stderr.count("\n") == 1


_BLAS_PROBE = """
import contextlib, io, os, sys
from delpezzo import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1
print(code, os.environ.get("OPENBLAS_NUM_THREADS", "unset"), threads)
"""


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_main_defaults_openblas_to_one_thread(preset, expected):
    """`cli.main` sets OPENBLAS_NUM_THREADS to 1 before a route imports
    numpy, so OpenBLAS starts no worker thread; a value already set is
    kept.  The thread count is checked where /proc shows it."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    argv = ["enumerate", "--index", "1", "--max-weight", "30", "--method", "both", "--format", "csv"]
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, value, threads = proc.stdout.split()
    assert (code, value) == ("0", expected)
    if preset is None:
        assert threads == "1"


def test_cli_reproduce_table3(capsys):
    assert cli.main(["reproduce", "--table", "3"]) == 0
    out = capsys.readouterr().out
    assert "10/16 exact" in out
    assert "known discrepancies" in out


def test_cli_reproduce_table3_checks_series_row(capsys, monkeypatch):
    # fault injection: seven extra degree-12 monomials for (2,3,3,5), the
    # series row's first member; the row must no longer pass as documented
    real = moduli.count_monomials

    def inflated(w, d):
        return real(w, d) + (7 if (tuple(w), d) == ((2, 3, 3, 5), 12) else 0)

    monkeypatch.setattr(moduli, "count_monomials", inflated)
    assert cli.main(["reproduce", "--table", "3"]) == 2
    out, err = capsys.readouterr()
    assert err == "mismatch: table 3 differs from the reference; the report is on stdout\n"
    assert ("series (2,2k+1,2k+1,4k+1): printed (m=12, n=5, l=7), computed (m=19, n=11, l=7)"
            "  MISMATCH") in out
    assert "documented erratum: table3-series-n" not in out


def test_cli_reproduce_table3_checks_series_link(capsys, monkeypatch):
    # fault injection: the series row prints link type #8 instead of #7;
    # the link column is checked on the series row as on every other row
    rows = tuple(
        dataclasses.replace(row, l_printed=8) if row.series_id else row
        for row in catalog.reference_table3()
    )
    monkeypatch.setattr(catalog, "reference_table3", lambda: rows)
    assert cli.main(["reproduce", "--table", "3"]) == 2
    out, err = capsys.readouterr()
    assert err == "mismatch: table 3 differs from the reference; the report is on stdout\n"
    assert ("series (2,2k+1,2k+1,4k+1): printed (m=12, n=5, l=8), computed (m=12, n=4, l=7)"
            "  MISMATCH") in out
    assert "10/16 exact; 5 known discrepancies:" in out


def test_cli_reproduce_table3_rejected_row_exits_3(capsys, monkeypatch):
    # fault injection: a moduli row that `classify` rejects, (2,3,4,5) of
    # degree 13, whose X is not well-formed; its record cannot be built, so
    # the check ends in exit 3 with one line naming the rejection
    rows = (dataclasses.replace(catalog.reference_table3()[1], weights=(2, 3, 4, 5), degree=13),)
    monkeypatch.setattr(catalog, "reference_table3", lambda: rows)
    assert cli.main(["reproduce", "--table", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: PreconditionError: ") and "X not well-formed" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("table, report", [
    ("1", "\n  missing: I=1 w=(2, 3, 5, 9) d=18\n"),
    ("theorem-a", "\nl=6: rigid=0 families={} series=2  MISMATCH vs verified expectation "),
], ids=["1", "theorem-a"])
def test_cli_reproduce_reports_a_missing_record(table, report, enumeration_150, monkeypatch, capsys):
    """A run that lacks one K-E sporadic record, (2,3,5,9) of degree 18,
    differs from tables 1 and theorem-a: the report on stdout names it,
    one `mismatch:` line goes to stderr, and the exit is 2."""
    records, _ = enumeration_150
    lacking = [r for r in records if r.key() != (1, (2, 3, 5, 9), 18)]
    assert len(lacking) == len(records) - 1
    monkeypatch.setattr(cli, "verified_enumeration", lambda I_min, I_max, w_max: lacking)
    assert cli.main(["reproduce", "--table", table]) == 2
    out, err = capsys.readouterr()
    assert err == f"mismatch: table {table} differs from the reference; the report is on stdout\n"
    assert report in out


def test_cli_reproduce_table1_checks_family_members(enumeration_150, monkeypatch, capsys):
    """A run whose family member (2,3,3,5) of degree 12 has a b2 one too high
    differs from table 1: its family prints b2 8, the report names the
    member, one `mismatch:` line goes to stderr, and the exit is 2."""
    records_150, _ = enumeration_150
    edited = [dataclasses.replace(r, b2_orbifold=9) if r.key() == (1, (2, 3, 3, 5), 12) else r
              for r in records_150]
    monkeypatch.setattr(cli, "verified_enumeration", lambda I_min, I_max, w_max: edited)
    assert cli.main(["reproduce", "--table", "1"]) == 2
    out, err = capsys.readouterr()
    assert err == "mismatch: table 1 differs from the reference; the report is on stdout\n"
    assert "\n  field mismatch: I=1 w=(2, 3, 3, 5) b2: printed 8, computed 9\n" in out


_REGENERATE_BOUND_ERRORS = {
    "0": "expected a positive integer, got '0'",
    "268435456": "expected at most 268435455, got '268435456'",
}


@pytest.mark.parametrize("argv", [["--max-weight", "0"], ["--max-weight", "268435456"]])
def test_regenerate_tables_rejects_nonpositive_bounds(argv, tmp_path):
    """A bound below 1 or past `search.ORACLE_W_MAX` is refused before `--out` is made."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "regenerate_tables.py"), *argv, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert _REGENERATE_BOUND_ERRORS[argv[1]] in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("table", ["3", "series"])
def test_cli_reproduce_rejects_a_bound_its_table_ignores(capsys, table):
    """Tables 3 and series enumerate nothing, so `--max-weight` is refused, not ignored."""
    assert cli.main(["reproduce", "--table", table, "--max-weight", "5"]) == 1
    assert capsys.readouterr() == ("", f"usage error: --max-weight does not apply to table {table}\n")


def test_cli_reproduce_series(capsys):
    assert cli.main(["reproduce", "--table", "series"]) == 0
    out = capsys.readouterr().out
    assert out.count("check out") == 13  # 12 printed + 1 errata family


def test_cli_reproduce_series_reports_non_quasismooth_member(capsys, monkeypatch):
    # fault injection: a family whose members are all (2,3,4,5) of degree 13,
    # which is quasi-smooth but not well-formed: X contains a singular line
    fam = dataclasses.replace(
        catalog.reference_series()[0],
        weight_forms=((0, 2), (0, 3), (0, 4), (0, 5)),
        degree_form=(0, 13),
        k_min=1,
    )
    monkeypatch.setattr(catalog, "reference_series", lambda: (fam,))
    assert cli.main(["reproduce", "--table", "series"]) == 2
    captured = capsys.readouterr()
    assert (
        f"{fam.id} (I=1, printed): k=1: X not well-formed: gcd(w0, w2) = 2 does not divide 13, "
        "so X contains the line z1 = z3 = 0; k=2: " in captured.out
    )
    assert "Traceback" not in captured.out + captured.err


def test_cli_reproduce_series_reports_b2_mismatch(capsys, monkeypatch):
    # fault injection: one family prints a b2 one higher than its members have
    fams = catalog.reference_series()
    fam = dataclasses.replace(fams[2], b2_printed=fams[2].b2_printed + 1)
    monkeypatch.setattr(catalog, "reference_series", lambda: fams[:2] + (fam,) + fams[3:])
    assert cli.main(["reproduce", "--table", "series"]) == 2
    out, err = capsys.readouterr()
    b2 = fam.b2_printed
    status = "; ".join(f"k={k}: b2 {b2 - 1} != {b2}" for k in range(fam.k_min, fam.k_min + 5))
    assert f"{fam.id} (I={fam.index}, printed): {status}\n" in out
    assert out.count("check out") == 12
    assert err == "mismatch: table series differs from the reference; the report is on stdout\n"


def test_cli_reproduce_series_reports_ke_mismatch(capsys, monkeypatch):
    # fault injection: the cascade certifies (3,4,7,9) of degree 21, the
    # first member of a family whose K-E flag is "?"
    real = records._cascade

    def certify(c):
        return Certified("R1", 1, 2) if c.key() == (2, (3, 4, 7, 9), 21) else real(c)

    monkeypatch.setattr(records, "_cascade", certify)
    assert cli.main(["reproduce", "--table", "series"]) == 2
    out, err = capsys.readouterr()
    assert "(3,3k+1,6k+1,9k) (I=2, printed): k=1: K-E Y != ?\n" in out
    assert out.count("check out") == 12
    assert err == "mismatch: table series differs from the reference; the report is on stdout\n"


_BAD_INTS = ["", "0", "-1", "-40", "x", "1.5", "2..", "5..2", "1..0", "--1"]


def _flag(name, good):
    """[name, value] with a value that is either accepted or malformed."""
    return st.tuples(st.just(name), st.one_of(good.map(str), st.sampled_from(_BAD_INTS))).map(list)


def _choice(name, values):
    return st.tuples(st.just(name), st.sampled_from(values + ["", "x"])).map(list)


# Accepted values stay small (max weight <= 40, index <= 10) so that no
# case starts a long scan.
_INDEX_RANGE = st.tuples(st.integers(1, 10), st.integers(1, 10)).map(lambda t: f"{min(t)}..{max(t)}")
_MAX_WEIGHT = _flag("--max-weight", st.integers(-3, 40))
_POINT = st.one_of(_flag("--degree", st.integers(-3, 60)), _flag("--index", st.integers(-3, 10)))
_NOISE = st.one_of(
    st.sampled_from(["--index", "--degree", "--bogus", "-x", "", "certify"]).map(lambda s: [s]),
    st.integers(-3, 40).map(lambda n: [str(n)]),
)
_WEIGHTS = st.one_of(st.sampled_from([[2, 3, 5, 9], [1, 2, 3, 5], [3, 3, 5, 5], [1, 1, 2, 3]]),
                     st.lists(st.integers(1, 12), min_size=4, max_size=4),
                     st.lists(st.integers(-3, 40), max_size=5)).map(lambda ws: [str(w) for w in ws])
_ARGS = {
    "enumerate": st.one_of(
        _flag("--index", st.one_of(st.integers(-3, 10), _INDEX_RANGE)), _MAX_WEIGHT,
        _choice("--method", ["brute", "structured", "both"]),
        _choice("--format", ["json", "csv", "markdown"]),
        st.tuples(st.just("--output"), st.sampled_from(["OUT", "MISSING_DIR", ""])).map(list),
        _NOISE),
    "certify": st.one_of(_POINT, _NOISE),
    "topology": st.one_of(_POINT, _NOISE),
    "reproduce": st.one_of(_MAX_WEIGHT, _NOISE),
    "check": _NOISE,
}
# What a subcommand needs first: the weights and a degree or an index; a
# table, with `--max-weight 40` for the two tables that enumerate; or a
# record file, GOOD or MISSING.
_TABLE = st.one_of(st.tuples(_choice("--table", ["1", "theorem-a"]), st.just(["--max-weight", "40"])),
                   st.tuples(st.sampled_from([["--table", "3"], ["--table", "series"]])))
_LEAD = {"certify": st.tuples(_WEIGHTS, _POINT), "topology": st.tuples(_WEIGHTS, _POINT),
         "reproduce": _TABLE, "check": st.tuples(st.sampled_from([["GOOD"], ["MISSING"]]))}


@st.composite
def _argv(draw):
    """A subcommand (or junk), usually what it needs first, then up to
    three more flags, mostly its own, with good or bad values.  `enumerate`
    starts with `--max-weight 40`, and `reproduce` of tables 1 and
    theorem-a has it in its lead; a `--max-weight` drawn later overrides
    it, so that no run scans the default bound."""
    command = draw(st.sampled_from(list(_ARGS) * 4 + ["", "bogus", "-5"]))
    argv = [command] + (["--max-weight", "40"] if command == "enumerate" else [])
    if command in _LEAD and draw(st.integers(0, 3)):
        argv += [tok for piece in draw(_LEAD[command]) for tok in piece]
    for piece in draw(st.lists(_ARGS.get(command, _NOISE), max_size=3)):
        argv += piece
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_cli_argv_fuzz(argv):
    """Any argv ends in a documented exit code, never a traceback, and a
    nonzero exit prints exactly one line to stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"OUT": f"{tmp}/out.txt", "MISSING_DIR": f"{tmp}/missing/out.txt",
                 "GOOD": str(GOLDEN_CSV), "MISSING": f"{tmp}/missing.csv"}
        argv = [paths.get(tok, tok) for tok in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())
