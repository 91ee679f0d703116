"""Embedded reference tables and reconciliation against computed results.

The classification data (73 sporadic rows, 12 one-parameter families, the
classical smooth rows, the moduli table, and the stated per-link existence
tally)
ships as a versioned JSON file so transcriptions stay auditable.  This
module loads it, instantiates series families, matches enumeration output
against the families, and checks every table `delpezzo reproduce` prints
on `classify` records, with the documented errata laid over the printed
cells by one rule, `with_errata`.  The Theorem-A expectation is the tally
of the tables with their errata (`theorem_a_expected`).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from functools import lru_cache
from importlib import resources

from .errors import CatalogIntegrityError, PreconditionError
from .quasismooth import Rejection
from .weights import Candidate, WeightSystem


@dataclass(frozen=True)
class ReferenceRow:
    """One sporadic classification row: weights, degree, printed b2, KE flag."""

    source_table: str
    index: int
    weights: tuple[int, int, int, int]
    degree: int
    b2_printed: int
    ke: str  # "Y" or "?"

    def candidate(self) -> Candidate:
        return Candidate(WeightSystem(self.weights), self.degree)


@dataclass(frozen=True)
class ReferenceSeries:
    """A one-parameter affine-linear family w_i(k) = a_i*k + b_i of candidates.

    `k_min` is the first parameter with the printed weight order ascending;
    below it the same weight system belongs to another family or to a
    sporadic row.  `klt_provenance` records how the KE flag is justified:
    by the certificate cascade, by the case analysis with its minimal
    proven k (`klt_k_min`), by the earlier index-one classification
    ("prior-work"), or not at all ("unknown").
    """

    id: str
    source_table: str
    index: int
    weight_forms: tuple[tuple[int, int], ...]  # (a, b) per weight
    degree_form: tuple[int, int]
    b2_printed: int
    ke: str
    klt_provenance: str  # cascade | case-analysis | prior-work | unknown
    klt_k_min: int | None
    k_min: int

    def weights_at(self, k: int) -> tuple[int, int, int, int]:
        return tuple(sorted(a * k + b for a, b in self.weight_forms))

    def degree_at(self, k: int) -> int:
        return self.degree_form[0] * k + self.degree_form[1]

    def candidate_at(self, k: int) -> Candidate:
        if k < self.k_min:
            raise ValueError(f"{self.id}: k={k} below k_min={self.k_min}")
        return Candidate(WeightSystem(self.weights_at(k)), self.degree_at(k))

    def instances_upto(self, w_max: int):
        """(k, Candidate) pairs with every weight <= w_max."""
        k = self.k_min
        while True:
            w = self.weights_at(k)
            if max(w) > w_max:
                return
            yield k, self.candidate_at(k)
            k += 1

    def ke_at(self, k: int) -> str:
        """KE flag of the k-th member: curated Y only from the proven range."""
        if self.ke != "Y":
            return "?"
        if self.klt_k_min is not None and k < self.klt_k_min:
            return "?"
        return "Y"


@dataclass(frozen=True)
class ClassicalRow:
    """Smooth del Pezzo hypersurface known KE by classical methods."""

    index: int
    weights: tuple[int, int, int, int]
    degree: int
    surface: str

    def candidate(self) -> Candidate:
        return Candidate(WeightSystem(self.weights), self.degree)


@dataclass(frozen=True)
class ModuliRow:
    """One moduli-table row: printed (m, n) and link type #l(S2 x S3)."""

    index: int
    m_printed: int
    n_printed: int
    l_printed: int
    weights: tuple[int, int, int, int] | None = None
    degree: int | None = None
    series_id: str | None = None


@lru_cache(maxsize=1)
def _raw() -> dict:
    with resources.files("delpezzo.data").joinpath("reference.json").open() as fh:
        return json.load(fh)


def _frozen(value):
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def _rows(section: str, cls, count: int | None = None, patch=lambda entry: {}) -> tuple:
    """One `cls` per entry of the `section` list of `reference.json`.

    Each field is read from the entry's key of the same name, with lists
    turned into tuples; a field without a key keeps its default.  `patch`
    gives keys laid over each entry first.  `count`, when given, is the
    number of entries the section must hold.
    """
    names = {f.name for f in fields(cls)}
    rows = tuple(
        cls(**{k: _frozen(v) for k, v in {**entry, **patch(entry)}.items() if k in names})
        for entry in _raw()[section]
    )
    if count is not None and len(rows) != count:
        raise CatalogIntegrityError(f"expected {count} {section} rows, found {len(rows)}")
    return rows


@lru_cache(maxsize=1)
def reference_table1() -> tuple[ReferenceRow, ...]:
    """The 73 transcribed sporadic rows, in catalog order."""
    rows = _rows("sporadic", ReferenceRow, 73)
    for r in rows:
        if sum(r.weights) - r.degree != r.index:
            raise CatalogIntegrityError(f"row {r}: index != |w| - d")
    return rows


@lru_cache(maxsize=1)
def reference_series() -> tuple[ReferenceSeries, ...]:
    """The 12 one-parameter families (1 at I=1, 6 at I=2, 3 at I=4, 2 at I=6)."""
    return _rows("series", ReferenceSeries, 12)


@lru_cache(maxsize=1)
def errata_series() -> tuple[ReferenceSeries, ...]:
    """Families the printed classification omits (documented errata).

    Members that the sporadic table lists explicitly remain attributed to
    it; `find_series_match` skips them for these families.
    """
    return _rows("errata_series", ReferenceSeries, patch=lambda entry: {
        "source_table": "errata", "b2_printed": entry["b2_computed"]})


@lru_cache(maxsize=1)
def reference_table2() -> tuple[ClassicalRow, ...]:
    return _rows("classical", ClassicalRow)


@lru_cache(maxsize=1)
def reference_table3() -> tuple[ModuliRow, ...]:
    return _rows("table3", ModuliRow, 16)


def _tally() -> dict[int, dict]:
    """The stated Theorem-A tally (`theorem_a`), per link parameter l: the
    rigid count, the families by moduli dimension n, and the series count."""
    return {
        int(l): {"rigid": v["rigid"], "families": {int(n): c for n, c in v["families"].items()},
                 "series": v["series"]}
        for l, v in _raw()["theorem_a"].items()
    }


def known_discrepancies() -> list[dict]:
    """Documented deviations between the printed tables and recomputation."""
    return list(_raw()["known_discrepancies"])


@lru_cache(maxsize=None)
def errata(where: str) -> dict:
    """The documented deviations of one table (`where`), each under the key
    of the row it corrects: (weights, degree), or the series id for a
    family.  Deviations that name no single row are left out."""
    out = {}
    for e in known_discrepancies():
        key = (tuple(e["weights"]), e["degree"]) if "weights" in e else e.get("series_id")
        if e["where"] != where or key is None:
            continue
        if key in out:
            raise CatalogIntegrityError(f"{where}: two errata for {key}: {out[key]['id']}, {e['id']}")
        out[key] = e
    return out


def b2_errata() -> dict[tuple, dict]:
    """Sporadic rows whose printed b2 cell is a documented erratum."""
    return {k: e for k, e in errata("table1").items() if isinstance(k, tuple)}


def moduli_errata() -> dict[tuple, dict]:
    """Moduli-table rows whose printed (m, n) is a documented erratum."""
    return {k: e for k, e in errata("table3").items() if isinstance(k, tuple)}


def with_errata(key, printed: dict, tables=("table1",)) -> tuple[dict, tuple[str, ...]]:
    """`printed` with the `computed` cells of the errata of `tables` that
    name `key` laid over it, a later table's over an earlier one's, and the
    ids of the errata that correct any of its cells."""
    found = [e for t in tables if (e := errata(t).get(key)) and e.get("computed", {}).keys() & printed.keys()]
    fixes = {k: v for e in found for k, v in e["computed"].items()}
    return {k: fixes.get(k, v) for k, v in printed.items()}, tuple(e["id"] for e in found)


@lru_cache(maxsize=1)
def _sporadic_rows() -> dict[tuple, ReferenceRow]:
    """The 73 sporadic rows under their key (index, weights, degree)."""
    return {(r.index, r.weights, r.degree): r for r in reference_table1()}


def find_series_match(c: Candidate) -> tuple[ReferenceSeries, int] | None:
    """The unique (family, k) reproducing the candidate, if any.

    Two distinct matches would mean the family parameterizations overlap,
    which the k_min conventions rule out; that is a catalog integrity error.
    Candidates listed in the sporadic table never match an errata family.
    """
    fams = reference_series()
    if (c.I, c.weights.w, c.d) not in _sporadic_rows():
        fams = fams + errata_series()
    hits = []
    for fam in fams:
        if fam.index != c.I:
            continue
        a, b = fam.degree_form
        if (c.d - b) % a:
            continue
        k = (c.d - b) // a
        if k < fam.k_min:
            continue
        if fam.weights_at(k) == c.weights.w:
            hits.append((fam, k))
    if len(hits) > 1:
        raise CatalogIntegrityError(
            f"{c} matches several families: {[(f.id, k) for f, k in hits]}"
        )
    return hits[0] if hits else None


@dataclass
class ReconciliationReport:
    """Outcome of diffing computed records against the reference tables.

    Deviations covered by the shipped errata are collected separately and do
    not count against `clean`; anything else is a regression.
    """

    missing: list[ReferenceRow] = field(default_factory=list)
    extra: list = field(default_factory=list)
    mismatched: list[tuple] = field(default_factory=list)  # (candidate, field, printed, computed)
    documented: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.missing or self.extra or self.mismatched)

    def summary(self) -> str:
        total = len(reference_table1())
        matched = total - len(self.missing)
        lines = [f"{matched}/{total} sporadic rows matched"]
        for r in self.missing:
            lines.append(f"  missing: I={r.index} w={r.weights} d={r.degree}")
        for rec in self.extra:
            lines.append(f"  extra:   {rec.candidate}")
        for c, name, printed, computed in self.mismatched:
            lines.append(
                f"  field mismatch: I={c.I} w={c.weights.w} {name}: "
                f"printed {printed}, computed {computed}"
            )
        for note in self.documented:
            lines.append(f"  documented: {note}")
        return "\n".join(lines)


def member_check(rec, ref, k: int | None) -> list[tuple]:
    """The cells in which a record differs from its reference: a sporadic
    row (k is None), or a family at its k-th member.  One (cell, printed,
    computed, errata) per differing cell of "b2" and "ke" (the K-E flag, a
    family's `ke_at(k)`); `errata` names the Table-1 errata whose computed
    cell is the record's (`with_errata`), and is empty for a mismatch."""
    key, ke = ((ref.weights, ref.degree), ref.ke) if k is None else (ref.id, ref.ke_at(k))
    printed = {"b2": ref.b2_printed, "ke": ke}
    expected, used = with_errata(key, printed)
    computed = {"b2": rec.b2_orbifold, "ke": rec.ke}
    return [(cell, printed[cell], computed[cell], used if computed[cell] == expected[cell] else ())
            for cell in printed if computed[cell] != printed[cell]]


def diff_against_reference(computed) -> ReconciliationReport:
    """Compare canonical-ordered enumeration records with the reference tables.

    Each record meets one reference: its family at its k if it is tagged
    with one (printed or errata), else the sporadic row of its key, which
    it takes up.  `member_check` compares them.  Members of errata families
    are listed as documented; records with no row are extra, and rows no
    record takes up are missing.
    """
    report = ReconciliationReport()
    sporadic = dict(_sporadic_rows())
    families = {f.id: f for f in reference_series() + errata_series()}
    for rec in computed:
        c = rec.candidate
        fam = families.get(rec.series_id)
        ref = fam or sporadic.pop(c.key(), None)
        if ref is None:
            report.extra.append(rec)
            continue
        if ref.source_table == "errata":
            report.documented.append(
                f"{c}: member k={rec.series_k} of omitted family "
                f"{ref.id}"
            )
        for cell, printed, got, used in member_check(rec, ref, rec.series_k if fam else None):
            if used:
                report.documented.append(f"I={c.I} w={c.weights.w}: printed {cell} {printed}, "
                                         f"verified value {got} [{', '.join(used)}]")
            else:
                report.mismatched.append((c, cell, printed, got))
    report.missing.extend(sporadic.values())
    return report


def table1_report(records) -> tuple[bool, list[str]]:
    """`reproduce --table 1`: the diff of a run's records, as (ok, lines)."""
    report = diff_against_reference(records)
    return report.clean, report.summary().splitlines()


@dataclass(frozen=True)
class Table3Check:
    """One moduli-table row checked on (m, n, l).  `expected` is `printed`
    with the computed values of the row's errata laid over it; a series row
    is checked at its family's first member.  The verdict is exact,
    documented (the errata account for the difference) or mismatch."""

    row: ModuliRow
    name: str
    candidate: Candidate
    printed: tuple[int, int, int]
    computed: tuple[int, int, int]
    expected: tuple[int, int, int]
    errata: tuple[str, ...]
    verdict: str


def table3_checks() -> list[Table3Check]:
    """Every moduli-table row, in table order, checked on (m, n, l) of its
    `classify` record against the errata of both tables that name it.  A
    row that `classify` rejects raises PreconditionError naming the
    `Rejection`."""
    from .records import classify  # records imports this module for the series tag

    families = {f.id: f for f in reference_series()}
    checks = []
    for row in reference_table3():
        key, fam = row.series_id or (row.weights, row.degree), families.get(row.series_id)
        name = f"series {key}" if fam else f"I={row.index} w={row.weights} d={row.degree}"
        w, d = (fam.weights_at(fam.k_min), fam.degree_at(fam.k_min)) if fam else key
        rec = classify(w, d)
        if isinstance(rec, Rejection):
            raise PreconditionError(f"{name}: {rec}")
        got, printed = (rec.moduli_m, rec.moduli_n, rec.l), (row.m_printed, row.n_printed, row.l_printed)
        fixed, used = with_errata(key, dict(zip("mnl", printed)), ("table3", "table1"))
        expected = tuple(fixed.values())
        verdict = "exact" if got == printed else "documented" if got == expected else "mismatch"
        checks.append(Table3Check(row, name, rec.candidate, printed, got, expected, used, verdict))
    return checks


def table3_report() -> tuple[bool, list[str]]:
    """`reproduce --table 3`: every moduli-table row's check on (m, n, l)
    (`table3_checks`), exact, covered by the row's errata, or a mismatch."""
    checks = table3_checks()
    mnl = "(m={}, n={}, l={})"
    lines, documented = [], []
    for ch in checks:
        line = f"{ch.name}: printed {mnl.format(*ch.printed)}, computed {mnl.format(*ch.computed)}"
        if ch.verdict == "exact":
            lines.append(line)
        elif ch.verdict == "documented":
            documented.append(f"  {line}  [documented erratum: {', '.join(ch.errata)}]")
        else:
            lines.append(line + "  MISMATCH")
    exact = sum(ch.verdict == "exact" for ch in checks)
    lines.append(f"{exact}/{len(checks)} exact; {len(documented)} known discrepancies:")
    return all(ch.verdict != "mismatch" for ch in checks), lines + documented


def series_report() -> tuple[bool, list[str]]:
    """`reproduce --table series`: each family's first five members, their
    `classify` records checked by `member_check`, as (ok, lines)."""
    from .records import classify  # records imports this module for the series tag

    ok, lines = True, []
    for fam in reference_series() + errata_series():
        status = []
        for k in range(fam.k_min, fam.k_min + 5):
            rec = classify(fam.weights_at(k), fam.degree_at(k))
            status += [f"k={k}: {rec}"] if isinstance(rec, Rejection) else [
                f"k={k}: {'K-E' if cell == 'ke' else cell} {got} != {printed}"
                for cell, printed, got, used in member_check(rec, fam, k) if not used][:1]
        ok = ok and not status
        origin = "errata" if fam.source_table == "errata" else "printed"
        summary = "; ".join(status) or "first five members check out"
        lines.append(f"{fam.id} (I={fam.index}, {origin}): {summary}")
    return ok, lines


def _theorem_a(entries) -> dict[int, dict]:
    """The Theorem-A tally of K-E entries (l, n, series_id), per link
    parameter l: {l: {"rigid", "families", "series"}}.  An entry with a
    series id counts its family once, by id, in its l's sorted `series`;
    any other is rigid when its moduli dimension n is 0 and counts under
    `families[n]` otherwise.  The records and the tables are tallied by
    this one rule (`theorem_a_tally`, `theorem_a_expected`)."""
    rigid, families, series = Counter(), defaultdict(Counter), defaultdict(set)
    for l, n, sid in entries:
        if sid is not None:
            series[l].add(sid)
        elif n == 0:
            rigid[l] += 1
        else:
            families[l][n] += 1
    return {l: {"rigid": rigid[l], "families": dict(families[l]), "series": sorted(series[l])}
            for l in sorted(rigid.keys() | families.keys() | series.keys())}


def theorem_a_tally(computed) -> dict[int, dict]:
    """The Theorem-A tally (`_theorem_a`) of a run's records: each sporadic
    record with K-E flag Y, and each member of a curated-Y family, which
    counts its family once."""
    families = {f.id: f for f in reference_series() + errata_series()}
    return _theorem_a((rec.l, rec.moduli_n, rec.series_id) for rec in computed
                      if (families[rec.series_id].ke if rec.series_id else rec.ke) == "Y")


def theorem_a_expected() -> dict[int, dict]:
    """The Theorem-A tally (`_theorem_a`) that Tables 1 and 3 give with
    their errata.  Each K-E Table-1 row counts at l = b2 - 1, its b2
    through `with_errata`, with its n from Table 3 through the Table-3
    errata, else from the rows of the `table3-missing-rows` erratum, else
    0; each curated-Y family counts once, at l = b2_printed - 1."""
    table3 = [((r.weights, r.degree), r.n_printed) for r in reference_table3() if r.series_id is None]
    n_of = {key: with_errata(key, {"n": n}, ("table3",))[0]["n"] for key, n in table3}
    missing = next(e for e in known_discrepancies() if e["id"] == "table3-missing-rows")
    n_of.update(((tuple(row["weights"]), row["degree"]), row["n"]) for row in missing["rows"])
    table1 = [((r.weights, r.degree), r.b2_printed) for r in reference_table1() if r.ke == "Y"]
    rows = [(with_errata(key, {"b2": b2})[0]["b2"] - 1, n_of.get(key, 0), None) for key, b2 in table1]
    families = [(f.b2_printed - 1, None, f.id) for f in reference_series() + errata_series() if f.ke == "Y"]
    return _theorem_a(rows + families)


def compare_theorem_a(tally: dict[int, dict]) -> tuple[bool, list[str]]:
    """Check a computed tally against the stated counts and against the
    tally the tables give with their errata (`theorem_a_expected`).

    Returns (ok, lines): ok means the tally equals that expectation
    exactly; the lines narrate each bucket, flagging deviations from the
    stated counts as documented when the expectation covers them and as
    regressions otherwise.
    """
    stated = _tally()
    adjusted = theorem_a_expected()
    empty = {"rigid": 0, "families": {}, "series": []}
    ok = True
    lines = []
    for l in sorted(set(stated) | set(adjusted) | set(tally)):
        got, want, st = tally.get(l, empty), adjusted.get(l, empty), stated.get(l)
        ok = ok and got == want
        say = f"l={l}: rigid={got['rigid']} families={got['families']} series={len(got['series'])}"
        if st is None:
            say += "  [bucket absent from the stated tally; documented]"
        elif (got["rigid"], got["families"], len(got["series"])) == (st["rigid"], st["families"], st["series"]):
            say += "  [matches stated tally]"
        elif got == want:
            say += "  [deviates from stated tally; documented errata]"
        if got != want:
            say += f"  MISMATCH vs verified expectation {want}"
        lines.append(say)
    return ok, lines


def theorem_a_report(records) -> tuple[bool, list[str]]:
    """`reproduce --table theorem-a`: the tally of a run's records, compared."""
    return compare_theorem_a(theorem_a_tally(records))
