import dataclasses
import json

import pytest

import delpezzo.cli as cli
from delpezzo import catalog, moduli, search, serialize
from delpezzo.search import brute_force_enumerate
from delpezzo.serialize import (
    from_csv,
    from_json,
    to_csv,
    to_json,
    to_markdown,
)


@pytest.fixture(scope="module")
def sample_records():
    return brute_force_enumerate(1, 1, 60) + brute_force_enumerate(2, 2, 40)


def test_json_round_trip(sample_records):
    assert from_json(to_json(sample_records)) == sample_records


def test_csv_round_trip(sample_records):
    assert from_csv(to_csv(sample_records)) == sample_records


def test_json_and_csv_carry_identical_data(sample_records):
    assert from_csv(to_csv(sample_records)) == from_json(to_json(sample_records))


def test_markdown_renders(sample_records):
    text = to_markdown(sample_records)
    assert text.startswith("| I |")
    assert len(text.strip().splitlines()) == len(sample_records) + 2


def test_json_schema_fields(sample_records):
    data = json.loads(to_json(sample_records))
    for entry in data:
        assert set(entry) >= {
            "index", "weights", "degree", "b2_orbifold", "b2_link", "l",
            "mu", "klt", "moduli",
        }
        assert set(entry["moduli"]) == {"m", "dimG", "n"}
        assert entry["klt"]["verdict"] in {"certified", "not_klt", "unknown"}


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


def test_cli_method_disagreement_exit2(capsys, monkeypatch, tmp_path):
    # fault injection: make the structured route drop a record
    real = search.structured_enumerate
    dropped = []

    def broken(index, w_max):
        records = real(index, w_max)
        dropped.append(records[-1].key())
        return records[:-1]

    monkeypatch.setattr(search, "structured_enumerate", broken)
    argv = ["enumerate", "--index", "3", "--max-weight", "100", "--method", "both", "--format", "json"]
    code = cli.main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "disagreement" in err
    I, w, d = dropped[0]
    assert f"(I={I}, w={w}, d={d}) missing from the structured search" in err
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
        ["enumerate", "--jobs", "0"],
        ["reproduce", "--table", "1", "--jobs", "-1"],
    ],
)
def test_cli_rejects_nonpositive_jobs(capsys, argv):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --jobs:")
    assert err.count("\n") == 1


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


def test_cli_rejects_non_integer_env_max_weight(monkeypatch, capsys):
    monkeypatch.setenv(cli.MAX_WEIGHT_ENV, "abc")
    assert cli.main(["enumerate", "--index", "3", "--method", "brute"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "'abc'" in err
    assert err.count("\n") == 1


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


def test_cli_env_var_overrides_default(monkeypatch, capsys):
    monkeypatch.setenv(cli.MAX_WEIGHT_ENV, "10")
    code = cli.main(["enumerate", "--index", "3", "--method", "brute",
                     "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == []  # smallest I=3 weights exceed 10


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
    out = capsys.readouterr().out
    assert "series (2,2k+1,2k+1,4k+1): printed (m=12, n=5), computed (m=19, n=11)  MISMATCH" in out
    assert "known discrepancy: series moduli n" not in out


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
