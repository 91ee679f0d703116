"""Regenerate every classification artifact into out/.

Runs the full enumeration once (both routes, cross-checked), then writes:
  out/records.json, out/records.csv   -- the full record list
  out/table1.md                       -- sporadic rows in table order
  out/series.md                       -- the one-parameter families
  out/theorem_a.txt                   -- the per-link tally with comparisons
  out/reconciliation.txt              -- diff against the printed tables

Usage: python scripts/regenerate_tables.py [--max-weight N] [--out DIR]
(N from 1 to the oracle's bound, `search.ORACLE_W_MAX`; default 150)
"""

import argparse
import pathlib
import sys

from delpezzo import catalog, serialize
from delpezzo.cli import _weight_bound
from delpezzo.errors import RouteDisagreement
from delpezzo.search import verified_enumeration


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-weight", type=_weight_bound, default=150)
    ap.add_argument("--out", default="out")
    args = ap.parse_args()

    outdir = pathlib.Path(args.out)
    outdir.mkdir(exist_ok=True)

    try:
        records = verified_enumeration(1, 10, args.max_weight)
    except RouteDisagreement as exc:
        print(f"FATAL: method disagreement: {exc}")
        return 2

    (outdir / "records.json").write_text(serialize.to_json(records))
    (outdir / "records.csv").write_text(serialize.to_csv(records))

    sporadic = [r for r in records if r.series_id is None]
    (outdir / "table1.md").write_text(serialize.to_markdown(sporadic))

    series_lines = ["| family | I | d(k) | b2 | K-E | provenance | members <= bound |",
                    "|--------|---|------|----|-----|------------|------------------|"]
    for fam in catalog.reference_series() + catalog.errata_series():
        members = sum(
            1 for r in records if r.series_id == fam.id
        )
        a, b = fam.degree_form
        origin = " (omitted from the printed tables)" if fam.source_table == "errata" else ""
        series_lines.append(
            f"| {fam.id}{origin} | {fam.index} | {a}k+{b} | {fam.b2_printed} "
            f"| {fam.ke} | {fam.klt_provenance} | {members} |"
        )
    (outdir / "series.md").write_text("\n".join(series_lines) + "\n")

    # the verdicts of `delpezzo reproduce --table theorem-a` and `--table 1`
    tally_ok, lines = catalog.theorem_a_report(records)
    (outdir / "theorem_a.txt").write_text("\n".join(lines) + "\n")
    clean, lines = catalog.table1_report(records)
    (outdir / "reconciliation.txt").write_text("\n".join(lines) + "\n")

    print(f"wrote {outdir}/: {len(records)} records, reconciliation "
          f"{'clean' if clean else 'DIRTY'}, tally "
          f"{'consistent' if tally_ok else 'INCONSISTENT'}")
    return 0 if (clean and tally_ok) else 2


if __name__ == "__main__":
    sys.exit(main())
