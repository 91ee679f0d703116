"""Both routes at w <= 2400: the evidence for the witness-exponent bound M1.

    python scripts/check_w2400.py

Runs `verified_enumeration(1, 10, 2400)`, which compares the exhaustive
oracle (it does not use M1_MAX) with the structured search (it does), and
checks that
  * there are 5,853 records;
  * exactly 73 of them are in no family, and they are Table 1's rows, the
    largest w3 among them 128;
  * the largest minimal witness exponents m1, m2 and m3 of condition I, the
    m of `quasismooth._partner` for z1, z2 and z3, are 7, 3 and 2.
It prints the figures, and exits 1 if the routes disagree or any of these
fails.  It is not part of Tier-1: it takes about half a minute and
60-70 MB.
"""

from __future__ import annotations

import sys

from delpezzo import catalog
from delpezzo.errors import RouteDisagreement
from delpezzo.quasismooth import _partner
from delpezzo.search import verified_enumeration

W_MAX = 2400
RECORDS = 5853
TOP_SPORADIC_W3 = 128
WITNESS_MAXIMA = (7, 3, 2)


def main() -> int:
    try:
        records = verified_enumeration(1, 10, W_MAX)
    except RouteDisagreement as exc:
        print(f"method disagreement: {exc}")
        return 1
    sporadic = {r.key() for r in records if r.series_id is None}
    top_w3 = max(w[3] for _, w, _ in sporadic)
    maxima = tuple(max(_partner(r.candidate.weights.w, r.candidate.d, i)[0] for r in records)
                   for i in (1, 2, 3))
    print(f"w <= {W_MAX}: {len(records)} records, {len(sporadic)} in no family "
          f"(largest w3 {top_w3}); largest minimal witness exponents "
          f"m1 = {maxima[0]}, m2 = {maxima[1]}, m3 = {maxima[2]}")
    table1 = {(r.index, r.weights, r.degree) for r in catalog.reference_table1()}
    ok = (len(records), sporadic, top_w3, maxima) == (RECORDS, table1, TOP_SPORADIC_W3, WITNESS_MAXIMA)
    print("ok" if ok else f"FAILED: expected {RECORDS} records, the 73 Table-1 rows with largest "
          f"w3 {TOP_SPORADIC_W3}, and witness maxima {WITNESS_MAXIMA}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
