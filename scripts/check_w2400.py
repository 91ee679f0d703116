"""Both routes at w <= 2400: the evidence for the witness-exponent bound M1.

    python scripts/check_w2400.py

Runs `verified_enumeration(1, 10, 2400)`, which compares the exhaustive
oracle (it does not use M1_MAX, and stops at `search.w0_ceiling`) with the
structured search (it uses M1_MAX, and no ceiling), and checks that
  * there are 5,853 records;
  * exactly 73 of them are in no family, and they are Table 1's rows, the
    largest w3 among them 128;
  * the largest minimal witness exponents m1, m2 and m3 of condition I, the
    m of `quasismooth._partner` for z1, z2 and z3, are 7, 3 and 2;
  * the largest w0 at each index I = 1..10 is at most w0_ceiling(I).  The
    structured route finds its points without the ceiling, so a point past
    it would also show as a route disagreement.
It prints the figures, and exits 1 if the routes disagree or any of these
fails.  It is not part of Tier-1: it takes about 2 seconds on a 2-core
host, where the oracle without the ceiling made it take 19-29, and
60-70 MB.
"""

from __future__ import annotations

import sys

from delpezzo import catalog
from delpezzo.errors import RouteDisagreement
from delpezzo.quasismooth import _partner
from delpezzo.records import CandidateRecord
from delpezzo.search import verified_enumeration, w0_ceiling

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
    top_w0 = [max(w[0] for J, w, _ in map(CandidateRecord.key, records) if J == I) for I in range(1, 11)]
    print(f"w <= {W_MAX}: {len(records)} records, {len(sporadic)} in no family "
          f"(largest w3 {top_w3}); largest minimal witness exponents "
          f"m1 = {maxima[0]}, m2 = {maxima[1]}, m3 = {maxima[2]}; largest w0 at I = 1..10 "
          f"{top_w0}, ceilings {[w0_ceiling(I) for I in range(1, 11)]}")
    table1 = {(r.index, r.weights, r.degree) for r in catalog.reference_table1()}
    ok = ((len(records), sporadic, top_w3, maxima) == (RECORDS, table1, TOP_SPORADIC_W3, WITNESS_MAXIMA)
          and all(w0 <= w0_ceiling(I) for I, w0 in enumerate(top_w0, 1)))
    print("ok" if ok else f"FAILED: expected {RECORDS} records, the 73 Table-1 rows with largest "
          f"w3 {TOP_SPORADIC_W3}, witness maxima {WITNESS_MAXIMA}, and no w0 past its ceiling")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
