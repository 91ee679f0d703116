"""The 416 records at w <= 150 must not change under a refactor.

`tests/golden/records.csv` holds every invariant of every record, written
by `serialize.to_csv`; rewrite it only for a deliberate, documented change.
"""

from pathlib import Path

from delpezzo import serialize

GOLDEN = Path(__file__).resolve().parent / "golden" / "records.csv"


def test_records_match_golden_csv(enumeration_150):
    records, _ = enumeration_150
    assert len(records) == 416
    assert serialize.to_csv(records) == GOLDEN.read_bytes().decode()
