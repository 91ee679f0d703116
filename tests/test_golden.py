"""The 416 records at w <= 150 and the reproduction reports must not change
under a refactor.

`tests/golden/records.csv` holds every invariant of every record, written
by `serialize.to_csv`; `tests/golden/reproduce_<table>.txt` holds the stdout
of `delpezzo reproduce --table <table>`.  Rewrite them only for a
deliberate, documented change.
"""

from pathlib import Path

import pytest

from delpezzo import cli, serialize

GOLDEN = Path(__file__).resolve().parent / "golden" / "records.csv"


def test_records_match_golden_csv(enumeration_150):
    records, _ = enumeration_150
    assert len(records) == 416
    assert serialize.to_csv(records) == GOLDEN.read_bytes().decode()


@pytest.mark.parametrize("table", ["1", "3", "series", "theorem-a"])
def test_reproduce_matches_golden_stdout(table, enumeration_150, monkeypatch, capsys):
    """`reproduce --table T` prints `tests/golden/reproduce_T.txt` and exits 0.

    The enumeration is the session's oracle run at the default bound, which
    is what `verified_enumeration` returns once the routes agree."""
    records, _ = enumeration_150

    def enumeration(I_min, I_max, w_max):
        assert (I_min, I_max, w_max) == (1, 10, 150)
        return records

    monkeypatch.setattr(cli, "verified_enumeration", enumeration)
    assert cli.main(["reproduce", "--table", table]) == 0
    golden = Path(__file__).resolve().parent / "golden" / f"reproduce_{table}.txt"
    assert capsys.readouterr().out == golden.read_bytes().decode()
