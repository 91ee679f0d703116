"""Acceptance suite: one test per criterion, each printing a PASS line.

Deviations between the recomputation and the printed tables are accepted
only where the catalog ships a verified erratum for them; everything else
must match exactly.
"""

import itertools
import time
from fractions import Fraction
from math import gcd, lcm

from delpezzo import catalog
from delpezzo.klt import Certified, Unknown, certify_KE, gate_check
from delpezzo.moduli import aut_dimension, moduli_report
from delpezzo.topology import (
    characteristic_divisor,
    diffeo_type,
    milnor_number,
)
from delpezzo.quasismooth import _partner, hypersurface_rejection, is_quasismooth
from delpezzo.records import classify
from delpezzo.weights import Candidate, WeightSystem, is_well_formed, normalize_weights
from oracles import (
    char_mul,
    degree_sum,
    divisor_roots_oracle,
    is_minimal_torus,
    jacobian_quasismooth,
    milnor_orlik_invariants,
    roots_vector,
)


def test_criterion_1_table1_reproduction(enumeration_150):
    records, elapsed = enumeration_150
    report = catalog.diff_against_reference(records)
    assert not report.missing, report.summary()
    assert not report.extra, report.summary()
    assert not report.mismatched, report.summary()
    # partition: every record is a sporadic row or a tagged series instance
    sporadic_keys = {(r.index, r.weights, r.degree) for r in catalog.reference_table1()}
    matched = 0
    series_instances = 0
    errata_instances = 0
    printed_ids = {f.id for f in catalog.reference_series()}
    for rec in records:
        key = (rec.candidate.I, rec.candidate.weights.w, rec.candidate.d)
        if rec.series_id in printed_ids:
            series_instances += 1
        elif rec.series_id is not None:
            errata_instances += 1
        else:
            assert key in sporadic_keys, rec.candidate
            matched += 1
    assert matched == 73
    assert errata_instances == 22  # (3,3k+1,3k+2,6k+1): k = 1 and 4..24
    assert elapsed < 600, f"single-threaded enumeration took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 1 PASS: 73/73 sporadic rows, {series_instances} series "
        f"instances, {errata_instances} members of the documented omitted "
        f"family, 0 unexplained extras ({elapsed:.0f}s single-threaded)"
    )


def test_criterion_2_ke_column(enumeration_150):
    records, _ = enumeration_150
    by_key = {
        (r.candidate.I, r.candidate.weights.w, r.candidate.d): r for r in records
    }
    agree = 0
    for row in catalog.reference_table1():
        rec = by_key[(row.index, row.weights, row.degree)]
        assert rec.ke == row.ke, (row.weights, row.degree, rec.ke, row.ke)
        agree += 1
    assert agree == 73
    # near-equality rows the hand verification singled out
    assert certify_KE(Candidate(normalize_weights((5, 13, 19, 35)), 70)) == Certified(
        "R2", 280, 285
    )
    assert certify_KE(Candidate(normalize_weights((11, 13, 19, 25)), 63)) == Unknown()
    print("\nACCEPTANCE 2 PASS: certificate cascade matches the K-E column 73/73")


def test_criterion_3_topology_reproduction(enumeration_150):
    records, _ = enumeration_150
    errata = catalog.b2_errata()
    exact = 0
    documented = 0
    by_key = {
        (r.candidate.I, r.candidate.weights.w, r.candidate.d): r for r in records
    }
    for row in catalog.reference_table1():
        rec = by_key[(row.index, row.weights, row.degree)]
        err = errata.get((row.weights, row.degree))
        if err is None:
            assert rec.b2_orbifold == row.b2_printed, row
            exact += 1
        else:
            assert rec.b2_orbifold == err["computed"]["b2"], row
            documented += 1
    assert (exact, documented) == (69, 4)
    for fam in catalog.reference_series() + catalog.errata_series():
        for k in range(fam.k_min, fam.k_min + 5):
            c = fam.candidate_at(k)
            assert diffeo_type(c).b2_link + 1 == fam.b2_printed, (fam.id, k)
    # link-type column of the moduli table, by the catalog's one rule
    t3_exact = 0
    t3_documented = 0
    for check in catalog.table3_checks():
        link = diffeo_type(check.candidate).b2_link
        assert link == check.computed[2] == check.expected[2], check
        if link == check.printed[2]:
            t3_exact += 1
        else:
            assert check.errata, check
            t3_documented += 1
    assert (t3_exact, t3_documented) == (14, 2)
    print(
        "\nACCEPTANCE 3 PASS: orbifold b2 matches 69/73 printed cells exactly, "
        "4 verified errata; all series families match at first five k; "
        "link column 14/16 exact + 2 errata"
    )


def test_criterion_4_milnor_orlik_cross_checks(enumeration_150):
    records, _ = enumeration_150
    checked_oracle = 0
    for rec in records:
        c = rec.candidate
        div = characteristic_divisor(c)
        mu = milnor_number(c)
        assert degree_sum(div) == mu, c
        assert div[1] == 1, c
        assert all(type(v) is int for v in div.values()), c
        order = lcm(*(c.d // gcd(c.d, wi) for wi in c.weights.w))
        if order <= 10**4:
            oracle = divisor_roots_oracle(c)
            assert roots_vector(div, order) == oracle, c
            assert oracle[0] == rec.b2_link
            assert sum(oracle) == mu
            checked_oracle += 1
        # third route: the Milnor-algebra Poincare polynomial, no divisor calculus
        assert milnor_orlik_invariants(c.weights.w, c.d) == (rec.mu, rec.b2_link), c
    assert checked_oracle == len(records)  # every enumerated order is small
    print(
        f"\nACCEPTANCE 4 PASS: divisor degree, unit coefficient, integrality, "
        f"the root-of-unity oracle and the Milnor-Orlik Poincare polynomial "
        f"(mu and b2) agree on all {len(records)} records"
    )


def test_criterion_5_moduli_reproduction():
    families = {f.id: f for f in catalog.reference_series()}
    exact = 0
    documented = []
    for check in catalog.table3_checks():
        fam = families.get(check.row.series_id)
        # a series row holds for the first five members of its family
        members = [fam.candidate_at(k) for k in range(fam.k_min, fam.k_min + 5)] if fam else [check.candidate]
        values = set()
        for c in members:
            m = moduli_report(c).m
            values.add((m, m - aut_dimension(c.weights)))
        assert values == {check.computed[:2]} == {check.expected[:2]}, check
        if check.computed[:2] == check.printed[:2]:
            exact += 1
        else:
            assert check.errata, check
            documented.append(check.name)
    assert exact == 12 and len(documented) == 4
    # the worked classical anchors
    anchors = [
        ((1, 1, 1, 1), 3, 20, 4),
        ((1, 1, 1, 2), 4, 22, 6),
        ((1, 1, 2, 3), 6, 23, 8),
    ]
    for w, d, m, n in anchors:
        c = Candidate(normalize_weights(w), d)
        assert moduli_report(c).m == m
        assert m - aut_dimension(c.weights) == n
    assert aut_dimension(normalize_weights((1, 1, 2, 3))) == 15
    print(
        "\nACCEPTANCE 5 PASS: (m, n) matches 12/15 sporadic moduli rows exactly; "
        "series row reports computed (m=12, n=4) against printed n=5; "
        "3 further rows carry verified errata; classical anchors exact"
    )


def test_criterion_6_theorem_a_tally(enumeration_150):
    records, _ = enumeration_150
    tally = catalog.theorem_a_tally(records)
    ok, lines = catalog.compare_theorem_a(tally)
    assert ok, "\n".join(lines)
    # the S^2 x S^3 bucket: exactly 14 certified rigid structures
    assert tally[1] == {"rigid": 14, "families": {}, "series": []}
    # stated l=3 content {n=2 x2, n=1 x4} + 1 series: after the verified
    # errata the two 2-parameter rows are 1-parameter and a relocated row
    # joins, giving 7 one-parameter entries + the same series family
    assert tally[3] == {"rigid": 0, "families": {1: 7}, "series": ["(6,6k+5,12k+8,18k+15)"]}
    print("\nACCEPTANCE 6 PASS: tally matches the errata-adjusted expectation;")
    for line in lines:
        print("  " + line)


def test_criterion_7_oracle_equivalence(enumeration_150, structured_150, enumeration_60_both):
    records, _ = enumeration_150
    per_index = {}
    for rec in records:
        per_index.setdefault(rec.candidate.I, []).append(rec.key())
    for index in range(1, 11):
        skeys = [r.key() for r in structured_150[index]]
        assert per_index.get(index, []) == skeys, f"I={index} at w_max=150"
    brute60, structured60 = enumeration_60_both
    for index in range(1, 11):
        assert [r.key() for r in brute60[index]] == [
            r.key() for r in structured60[index]
        ], f"I={index} at w_max=60"
    from delpezzo.search import brute_force_enumerate, structured_enumerate

    for index in (11, 12):
        assert brute_force_enumerate(index, index, 150) == []
        assert structured_enumerate(index, 150) == []
    print(
        "\nACCEPTANCE 7 PASS: structured search equals the exhaustive oracle "
        "for I=1..10 at w_max 60 and 150; both empty at I=11, 12"
    )


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    # exact multiplication: commutativity and associativity on random
    # sparse characters (deterministic sample, orders <= 60)
    import random

    rng = random.Random(20260810)
    chars = []
    for _ in range(40):
        coeffs = {
            rng.randint(1, 60): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(rng.randint(1, 4))
        }
        chars.append(coeffs)
    for _ in range(250):
        a, b, c = rng.sample(chars, 3)
        assert char_mul(a, b) == char_mul(b, a)
        assert char_mul(char_mul(a, b), c) == char_mul(a, char_mul(b, c))
    # strictness on the 2Id = 3*w0*w2 boundary family
    for k in range(1, 21):
        w = normalize_weights((4, 2 * k + 1, 4 * k + 2, 6 * k + 1))
        c = Candidate(w, 12 * k + 6)
        assert certify_KE(c) == Unknown(), k
    # minimal torus iff automorphism dimension 4: catalog rows plus fuzz
    for row in catalog.reference_table1():
        w = row.candidate().weights
        assert is_minimal_torus(w) is (aut_dimension(w) == 4)
    rng2 = random.Random(987)
    fuzzed = 0
    while fuzzed < 10**4:
        raw = tuple(rng2.randint(1, 60) for _ in range(4))
        if gcd(*raw) != 1:
            continue
        w = normalize_weights(raw)
        assert is_minimal_torus(w) is (aut_dimension(w) == 4), w
        fuzzed += 1
    # the local klt bound alpha*ell*d*I < t0*t1*t2 on the certified series:
    # alpha = 5/7, ell = 6k+1, d = 18k+6, I = 2, triple (3, 6k+1, 9k+3)
    for k in range(1, 51):
        assert Fraction(5, 7) * (6 * k + 1) * (18 * k + 6) * 2 < 3 * (6 * k + 1) * (9 * k + 3)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"property suites took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 8 PASS: property suites completed in {elapsed:.1f}s")


def _jacobian_verdict(w, d) -> bool:
    """Quasi-smooth by the Jacobian oracle; a singular verdict needs two seeds."""
    return jacobian_quasismooth(w, d, 0) or jacobian_quasismooth(w, d, 1)


def test_criterion_9_jacobian_quasismoothness(enumeration_150):
    t0 = time.monotonic()
    records, _ = enumeration_150
    for rec in records:
        assert jacobian_quasismooth(rec.candidate.weights.w, rec.candidate.d, 0), rec.candidate
    # every well-formed, gate-passing (w, d) with weights <= 10 and I = 1..10
    cases = 0
    fail_III = 0
    fail_II = 0
    for w in itertools.combinations_with_replacement(range(1, 11), 4):
        if gcd(*w) != 1:
            continue
        ws = WeightSystem(w)
        if not is_well_formed(ws):
            continue
        for I in range(1, 11):
            d = sum(w) - I
            if d <= w[3] or gate_check(Candidate(ws, d)) is not None:
                continue
            cases += 1
            passes_I = all(_partner(w, d, i) is not None for i in range(4))
            rejection = hypersurface_rejection(Candidate(ws, d))
            fails_II = rejection is not None and rejection.reason == "X not well-formed"
            criterion = rejection is None or fails_II  # I and III
            assert _jacobian_verdict(w, d) is criterion, (w, d)
            assert is_quasismooth(ws, d) is (rejection is None), (w, d)
            fail_III += passes_I and not criterion
            if fails_II:
                fail_II += 1
                assert classify(w, d).reason == "X not well-formed", (w, d)
    assert (cases, fail_III) == (935, 49)
    assert fail_II == 14
    elapsed = time.monotonic() - t0
    print(
        f"\nACCEPTANCE 9 PASS: all {len(records)} records quasi-smooth by the Jacobian "
        f"oracle; Jacobian-QS == I and III on all {cases} well-formed gate-passing (w, d) "
        f"with w <= 10 ({fail_III} pass I but fail III; {fail_II} quasi-smooth ones fail "
        f"II, X not well-formed, and classify rejects all {fail_II} as such) ({elapsed:.1f}s)"
    )
