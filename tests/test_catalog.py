import copy
import dataclasses

import pytest

from delpezzo import catalog, cli
from delpezzo.errors import CatalogIntegrityError
from delpezzo.klt import gate_check
from delpezzo.quasismooth import is_quasismooth
from delpezzo.records import build_record
from delpezzo.topology import diffeo_type
from delpezzo.weights import is_well_formed


def test_row_counts():
    rows = catalog.reference_table1()
    assert len(rows) == 73
    per_index = {}
    for r in rows:
        per_index[r.index] = per_index.get(r.index, 0) + 1
    assert per_index == {1: 19, 2: 25, 3: 7, 4: 10, 5: 3, 6: 3, 7: 1, 8: 2, 9: 1, 10: 2}


def test_series_counts():
    fams = catalog.reference_series()
    assert len(fams) == 12
    per_index = {}
    for f in fams:
        per_index[f.index] = per_index.get(f.index, 0) + 1
    assert per_index == {1: 1, 2: 6, 4: 3, 6: 2}


def test_series_degree_forms_match_index():
    # the weight forms sum to the degree form plus the index, for every k
    for fam in catalog.reference_series() + catalog.errata_series():
        a = sum(f[0] for f in fam.weight_forms)
        b = sum(f[1] for f in fam.weight_forms)
        assert (a, b - fam.index) == fam.degree_form, fam.id


def test_specific_rows_present():
    keyed = {(r.weights, r.degree): r for r in catalog.reference_table1()}
    big = keyed[((11, 49, 69, 128), 256)]
    assert big.index == 1 and big.b2_printed == 2 and big.ke == "Y"


def test_transcription_self_consistency():
    for row in catalog.reference_table1():
        c = row.candidate()
        assert c.I == row.index
        assert is_well_formed(c.weights)
        assert is_quasismooth(c.weights, c.d)
        assert gate_check(c) is None


def test_series_flags():
    fams = {f.id: f for f in catalog.reference_series()}
    assert fams["(3,3k+1,6k+1,9k+3)"].klt_provenance == "cascade"
    assert fams["(6,6k+5,12k+8,18k+15)"].klt_provenance == "cascade"
    assert fams["(2,2k+1,2k+1,4k+1)"].klt_provenance == "prior-work"
    assert fams["(2,2k+1,2k+1,4k+1)"].ke == "Y"
    assert fams["(4,2k+1,4k+2,6k+1)"].ke == "?"
    # `CandidateRecord.ke` reads "Y" off a provenance that names a proof, so
    # a family flagged Y must name one and a family flagged ? must not
    for fam in catalog.reference_series() + catalog.errata_series():
        assert (fam.ke == "Y") == (fam.klt_provenance != "unknown"), fam.id


def test_curated_series_instances_pass_filters():
    for fam in catalog.reference_series():
        if fam.ke != "Y":
            continue
        for k in range(fam.k_min, fam.k_min + 5):
            c = fam.candidate_at(k)
            assert is_quasismooth(c.weights, c.d), (fam.id, k)
            assert gate_check(c) is None, (fam.id, k)


def test_printed_b2_matches_computed_modulo_errata():
    errata = catalog.b2_errata()
    wrong = []
    for row in catalog.reference_table1():
        computed = diffeo_type(row.candidate()).b2_link + 1
        expected = row.b2_printed
        err = errata.get((row.weights, row.degree))
        if err is not None:
            expected = err["computed"]["b2"]
        if computed != expected:
            wrong.append((row.weights, row.degree, computed, expected))
    assert wrong == []
    assert len(errata) == 4


def test_series_printed_b2_matches_computed():
    for fam in catalog.reference_series() + catalog.errata_series():
        for k in range(fam.k_min, fam.k_min + 5):
            assert diffeo_type(fam.candidate_at(k)).b2_link + 1 == fam.b2_printed, (fam.id, k)


def test_every_family_member_has_its_family_b2_and_ke(enumeration_150):
    """Each of the 343 family members among the 416 records, not only the
    first five of each family, has its family's printed b2 and K-E flag."""
    records, _ = enumeration_150
    families = {f.id: f for f in catalog.reference_series() + catalog.errata_series()}
    members = [r for r in records if r.series_id is not None]
    assert len(members) == 343
    for r in members:
        fam = families[r.series_id]
        assert (r.b2_orbifold, r.ke) == (fam.b2_printed, fam.ke_at(r.series_k)), (fam.id, r.series_k)


def test_errata_printed_cells_are_the_printed_tables():
    """An erratum keeps a printed cell only where no golden prints it: the
    series count of the stated Theorem-A tally.  A b2 erratum's computed l
    is its computed b2 - 1, and a Table-3 erratum's computed m - dim_aut is
    its computed n."""
    stated = catalog._tally()
    printed = [e for e in catalog.known_discrepancies() if "printed" in e]
    assert [e["id"] for e in printed] == ["theorem-a-l5-series"]
    assert stated[printed[0]["l"]]["series"] == printed[0]["printed"]["series"] == 2
    b2 = [e for e in catalog.errata("table1").values() if "computed" in e]
    table3 = list(catalog.errata("table3").values())
    for e in b2:
        assert e["computed"]["l"] == e["computed"]["b2"] - 1, e["id"]
    for e in table3:
        assert e["computed"]["m"] - e["computed"]["dim_aut"] == e["computed"]["n"], e["id"]
    assert (len(b2), len(table3)) == (4, 4)


def _moduli_table_n() -> dict[tuple, int]:
    """n of each sporadic row of Table 3, with that table's errata laid over
    it, keyed by (weights, degree)."""
    fixes = catalog.moduli_errata()
    rows = {(r.weights, r.degree): r.n_printed for r in catalog.reference_table3() if r.series_id is None}
    return {key: fixes[key]["computed"]["n"] if key in fixes else n for key, n in rows.items()}


def _missing_moduli_rows() -> dict[tuple, int]:
    """n of each row of the `table3-missing-rows` erratum, keyed by (weights, degree)."""
    entry = next(e for e in catalog.known_discrepancies() if e["id"] == "table3-missing-rows")
    return {(tuple(row["weights"]), row["degree"]): row["n"] for row in entry["rows"]}


def test_moduli_rows_are_the_ke_sporadic_records_with_moduli(enumeration_150):
    """Table 3's 15 sporadic rows and the 3 rows the `table3-missing-rows`
    erratum adds are disjoint, and together they are the 18 K-E sporadic
    records among the 416 with n >= 1, each at the n listed for it."""
    records, _ = enumeration_150
    table3, missing = _moduli_table_n(), _missing_moduli_rows()
    assert len(table3) == 15 and len(missing) == 3
    assert not table3.keys() & missing.keys()
    with_moduli = {(r.candidate.weights.w, r.candidate.d): r.moduli_n for r in records
                   if r.series_id is None and r.ke == "Y" and r.moduli_n >= 1}
    assert len(with_moduli) == 18
    assert with_moduli == {**table3, **missing}


def test_table2_rows():
    rows = catalog.reference_table2()
    assert len(rows) == 5
    cubic = next(r for r in rows if r.degree == 3)
    assert cubic.weights == (1, 1, 1, 1) and cubic.index == 1
    # classical rows are gated (or linear cones), never Theorem 4.5 output
    for r in rows:
        if r.degree > max(r.weights):
            assert gate_check(r.candidate()) is not None


def test_diff_clean_on_reference_rows():
    records = [build_record(row.candidate()) for row in catalog.reference_table1()]
    report = catalog.diff_against_reference(records)
    assert report.clean
    assert not report.missing and not report.extra


def test_diff_detects_missing_row():
    records = [build_record(row.candidate()) for row in catalog.reference_table1()]
    report = catalog.diff_against_reference(records[:-1])
    assert len(report.missing) == 1
    assert not report.clean
    # the count line (mutant `summary-counts-missing-as-matched`)
    assert report.summary().startswith("72/73 sporadic rows matched\n  missing: ")


def test_diff_detects_field_mismatch():
    records = [build_record(row.candidate()) for row in catalog.reference_table1()]
    # the K-E flag is read off the provenance, so flipping it flips the flag
    broken = dataclasses.replace(
        records[0], klt_provenance="cascade" if records[0].ke == "?" else "unknown")
    report = catalog.diff_against_reference([broken] + records[1:])
    assert any(field == "ke" for _, field, _, _ in report.mismatched)
    assert not report.clean


@pytest.mark.parametrize("key, edit, line", [
    ((1, (2, 3, 3, 5), 12), {"b2_orbifold": 9}, "I=1 w=(2, 3, 3, 5) b2: printed 8, computed 9"),
    ((1, (2, 3, 3, 5), 12), {"klt_provenance": "unknown"}, "I=1 w=(2, 3, 3, 5) ke: printed Y, computed ?"),
    ((2, (3, 4, 5, 7), 17), {"b2_orbifold": 6}, "I=2 w=(3, 4, 5, 7) b2: printed 5, computed 6"),
    ((2, (3, 4, 5, 7), 17), {"klt_provenance": "cascade"}, "I=2 w=(3, 4, 5, 7) ke: printed ?, computed Y"),
], ids=["printed-b2", "printed-ke", "errata-b2", "errata-ke"])
def test_diff_checks_every_family_member(key, edit, line, enumeration_150):
    """A member of a printed family, (2,3,3,5) of degree 12, or of the errata
    family, (3,4,5,7) of degree 17, with its b2 one too high or its K-E flag
    flipped is a field mismatch against its family, as a sporadic row's is."""
    records, _ = enumeration_150
    assert catalog.diff_against_reference(records).clean
    edited = [dataclasses.replace(r, **edit) if r.key() == key else r for r in records]
    report = catalog.diff_against_reference(edited)
    assert not report.clean
    assert f"  field mismatch: {line}" in report.summary().splitlines()


def test_diff_detects_extra_record():
    from delpezzo.weights import Candidate, normalize_weights

    records = [build_record(row.candidate()) for row in catalog.reference_table1()]
    # a family member stripped of its series tag meets no sporadic row, so
    # the diff must report it as extra
    stray = build_record(Candidate(normalize_weights((2, 3, 3, 5)), 12))
    stray = dataclasses.replace(stray, series_id=None, series_k=None)
    report = catalog.diff_against_reference(records + [stray])
    assert len(report.extra) == 1


def test_find_series_match_skips_sporadic_members():
    # (3,7,8,13) is the k=2 member of the omitted family but is printed as
    # a sporadic row, so it must stay attributed to the sporadic table
    from delpezzo.weights import Candidate, normalize_weights

    c = Candidate(normalize_weights((3, 7, 8, 13)), 29)
    assert catalog.find_series_match(c) is None
    c2 = Candidate(normalize_weights((3, 13, 14, 25)), 53)
    fam, k = catalog.find_series_match(c2)
    assert fam.id == "(3,3k+1,3k+2,6k+1)" and k == 4


def test_theorem_a_expected_shape():
    stated = catalog._tally()
    assert stated[1] == {"rigid": 14, "families": {}, "series": 0}
    assert stated[3] == {"rigid": 0, "families": {1: 4, 2: 2}, "series": 1}
    expected = catalog.theorem_a_expected()
    assert expected[1] == {"rigid": 14, "families": {}, "series": []}
    assert set(expected) == set(range(1, 9))


def test_theorem_a_expectation_follows_table1(patched_reference, enumeration_150, monkeypatch, capsys):
    """`reproduce --table theorem-a` exits 0 on the shipped tables, and 2
    once the printed b2 of the K-E row (2,3,5,9) of degree 18, which no
    erratum corrects, is one higher: the expectation is derived from the
    tables, so that row moves from l = 6 to l = 7 while its record stays.
    The mutant `theorem-a-row-b2-plus-one` makes that edit in the file."""
    records, _ = enumeration_150
    monkeypatch.setattr(cli, "verified_enumeration", lambda I_min, I_max, w_max: records)
    assert cli.main(["reproduce", "--table", "theorem-a"]) == 0

    def edit(raw):
        row, = (r for r in raw["sporadic"] if (r["weights"], r["degree"]) == ([2, 3, 5, 9], 18))
        row["b2_printed"] += 1

    patched_reference(edit)
    capsys.readouterr()
    assert cli.main(["reproduce", "--table", "theorem-a"]) == 2
    out = capsys.readouterr().out
    assert "\nl=6: rigid=0 families={5: 1} series=2  MISMATCH vs verified expectation " \
           "{'rigid': 0, 'families': {}, 'series': " in out
    assert "\nl=7: rigid=0 families={} series=1  [matches stated tally]  MISMATCH vs verified " \
           "expectation {'rigid': 0, 'families': {5: 1}, 'series': " in out


def test_theorem_a_tally_counts_only_ke_records():
    # the 73 sporadic rows and the families carry both flags; only the Y
    # rows are tallied, each once, and only the Y families, each by id
    families = catalog.reference_series() + catalog.errata_series()
    records = [build_record(row.candidate()) for row in catalog.reference_table1()]
    members = [build_record(fam.candidate_at(k)) for fam in families
               for k in (fam.k_min + 2, fam.k_min + 3)]
    assert {r.ke for r in records} == {f.ke for f in families} == {"Y", "?"}
    tally = catalog.theorem_a_tally(records + members)
    counted = sum(b["rigid"] + sum(b["families"].values()) for b in tally.values())
    assert counted == sum(r.ke == "Y" for r in records)
    ids = [sid for b in tally.values() for sid in b["series"]]
    assert sorted(ids) == sorted(f.id for f in families if f.ke == "Y")


def test_known_discrepancy_ids_unique():
    ids = [e["id"] for e in catalog.known_discrepancies()]
    assert len(ids) == len(set(ids))
    assert "table3-series-n" in ids
    assert "missing-series-i2" in ids


@pytest.fixture
def patched_reference(monkeypatch):
    """Swap in an edited copy of `reference.json` with the loader caches cleared."""
    cached = (catalog.reference_table1, catalog._sporadic_rows,
              catalog.reference_series, catalog.errata_series)

    def patch(edit):
        raw = copy.deepcopy(catalog._raw())
        edit(raw)
        monkeypatch.setattr(catalog, "_raw", lambda: raw)
        for fn in cached:
            fn.cache_clear()

    yield patch
    for fn in cached:
        fn.cache_clear()


def test_loader_rejects_a_missing_sporadic_row(patched_reference):
    patched_reference(lambda raw: raw["sporadic"].pop())
    with pytest.raises(CatalogIntegrityError, match="expected 73 sporadic rows, found 72"):
        catalog.reference_table1()


def test_loader_rejects_a_row_whose_index_is_not_weights_minus_degree(patched_reference):
    def edit(raw):
        raw["sporadic"][5]["degree"] += 1

    patched_reference(edit)
    with pytest.raises(CatalogIntegrityError, match=r"index != \|w\| - d"):
        catalog.reference_table1()


def test_find_series_match_rejects_overlapping_families(patched_reference):
    """Two families that both give (3,4,5,7) of degree 17, the k = 1 member
    of the errata family, are a catalog integrity error, not a match
    (mutant `series-overlap-needs-three`)."""
    from delpezzo.weights import Candidate, normalize_weights

    patched_reference(lambda raw: raw["errata_series"].append({**raw["errata_series"][0], "id": "copy"}))
    with pytest.raises(CatalogIntegrityError, match="matches several families"):
        catalog.find_series_match(Candidate(normalize_weights((3, 4, 5, 7)), 17))


def test_errata_index_keys():
    table3 = catalog.errata("table3")
    assert table3["(2,2k+1,2k+1,4k+1)"]["id"] == "table3-series-n"
    assert table3[(3, 5, 7, 14), 28]["id"] == "moduli-3-5-7-14"
    assert catalog.errata("table1")["(3,3k+1,3k+2,6k+1)"]["id"] == "missing-series-i2"
    assert catalog.moduli_errata() == {k: e for k, e in table3.items() if isinstance(k, tuple)}
    assert len(catalog.moduli_errata()) == 3 and len(catalog.b2_errata()) == 4
