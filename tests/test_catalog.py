import copy
import dataclasses

import pytest

from delpezzo import catalog
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
    """Each erratum's printed cells are those of the row it corrects: b2 in
    Table 1, m, n and l in Table 3, the series count in the stated Theorem-A
    tally.  A b2 erratum's computed l is its computed b2 - 1."""
    table1 = {(r.weights, r.degree): r for r in catalog.reference_table1()}
    table3 = {r.series_id or (r.weights, r.degree): r for r in catalog.reference_table3()}
    stated = catalog._tally("theorem_a")
    cells = 0
    for e in catalog.known_discrepancies():
        key = (tuple(e["weights"]), e["degree"]) if "weights" in e else e.get("series_id")
        for cell, value in e.get("printed", {}).items():
            if cell == "b2":
                assert table1[key].b2_printed == value, e["id"]
            elif cell in ("m", "n", "l"):
                assert getattr(table3[key], f"{cell}_printed") == value, e["id"]
            else:
                assert cell == "series" and stated[e["l"]]["series"] == value, e["id"]
            cells += 1
        if e["where"] == "table1" and "weights" in e:
            assert e["computed"]["l"] == e["computed"]["b2"] - 1, e["id"]
    assert cells == 14


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


def test_diff_detects_field_mismatch():
    records = [build_record(row.candidate()) for row in catalog.reference_table1()]
    # the K-E flag is read off the provenance, so flipping it flips the flag
    broken = dataclasses.replace(
        records[0], klt_provenance="cascade" if records[0].ke == "?" else "unknown")
    report = catalog.diff_against_reference([broken] + records[1:])
    assert any(field == "ke" for _, field, _, _ in report.mismatched)
    assert not report.clean


def test_diff_detects_extra_record():
    from delpezzo.weights import Candidate, normalize_weights

    records = [build_record(row.candidate()) for row in catalog.reference_table1()]
    # a quasi-smooth candidate outside every table: fabricate by replacing
    # the record's series tag so the diff cannot set it aside
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
    stated = catalog._tally("theorem_a")
    assert stated[1] == {"rigid": 14, "families": {}, "series": 0}
    assert stated[3] == {"rigid": 0, "families": {1: 4, 2: 2}, "series": 1}
    computed = catalog._tally("theorem_a_computed")
    assert computed[1] == {"rigid": 14, "families": {}, "series": []}
    assert set(computed) == set(range(1, 9))


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
    cached = (catalog.reference_table1, catalog._sporadic_keys)

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


def test_errata_index_keys():
    table3 = catalog.errata("table3")
    assert table3["(2,2k+1,2k+1,4k+1)"]["id"] == "table3-series-n"
    assert table3[(3, 5, 7, 14), 28]["id"] == "moduli-3-5-7-14"
    assert catalog.errata("table1")["(3,3k+1,3k+2,6k+1)"]["id"] == "missing-series-i2"
    assert catalog.moduli_errata() == {k: e for k, e in table3.items() if isinstance(k, tuple)}
    assert len(catalog.moduli_errata()) == 3 and len(catalog.b2_errata()) == 4
