import itertools

import pytest

from delpezzo import catalog
from delpezzo.records import CandidateRecord, classify
from delpezzo.search import (
    BranchAssignment,
    _g1_rules_out,
    brute_force_enumerate,
    witness_branches,
    solve_condition_system,
    structured_enumerate,
)
from delpezzo.weights import Candidate, normalize_weights


def test_branch_count():
    branches = list(witness_branches(1))
    assert len(branches) == 5120  # 10 * 4 * 2 * 4^3
    assert len(set(branches)) == 5120
    for b in branches[:200]:
        assert 1 <= b.m[0] <= 10 and 1 <= b.m[1] <= 4 and 1 <= b.m[2] <= 2


def test_branch_ranges_validated():
    with pytest.raises(ValueError):
        BranchAssignment(m=(11, 1, 1), j=(0, 0, 0), index=1)
    with pytest.raises(ValueError):
        BranchAssignment(m=(1, 5, 1), j=(0, 0, 0), index=1)
    with pytest.raises(ValueError):
        BranchAssignment(m=(1, 1, 3), j=(0, 0, 0), index=1)


def test_branches_contain_series_generator():
    assert BranchAssignment(m=(3, 3, 2), j=(2, 1, 0), index=2) in set(
        witness_branches(2)
    )


def test_solve_series_branch():
    # the branch generating the (4,2k+1,2k+1,4k) family
    space = solve_condition_system(BranchAssignment(m=(3, 3, 2), j=(2, 1, 0), index=2))
    assert space.kind == "line"
    instances = list(space.instances(100))
    family = {tuple(sorted((4, 2 * k + 1, 2 * k + 1, 4 * k))) for k in range(2, 13)}
    assert family <= set(instances)
    # non-primitive members of the line are present here and discarded by
    # the admissibility filters downstream
    for w in instances:
        d = sum(w) - 2
        for i, (mi, ji) in enumerate(zip((3, 3, 2), (2, 1, 0)), start=1):
            assert mi * w[i] + w[ji] == d


def test_solve_branch_containing_sporadic_row():
    space = solve_condition_system(BranchAssignment(m=(5, 3, 1), j=(1, 1, 3), index=1))
    assert space.kind == "line"
    assert (2, 3, 5, 9) in set(space.instances(60))


def test_solve_inconsistent_branch_empty():
    # scan for a branch whose ordering constraints wipe the line out
    kinds = set()
    empties = 0
    for b in witness_branches(1):
        space = solve_condition_system(b)
        kinds.add(space.kind)
        if space.kind == "empty":
            empties += 1
    assert empties > 0
    assert kinds <= {"empty", "finite", "line", "plane"}


def test_structured_matches_unpruned_branches():
    """Leaving out the G1-pruned shapes and walking each line once loses nothing.

    The reference solves every one of the 5,120 branches at each index,
    keeps every instance (each checked against its own equations), and
    filters the union with `classify` and the bound w3 <= w_max alone.
    """
    w_max = 80
    branches = list(witness_branches(1))
    for I in range(1, 13):
        expected = {}
        for b in branches:
            b = BranchAssignment(m=b.m, j=b.j, index=I)
            A, rhs = b.equations()
            for w in solve_condition_system(b).instances(w_max):
                assert [sum(a * x for a, x in zip(row, w)) for row in A] == rhs
                r = classify(w, sum(w) - I)
                if w[3] <= w_max and isinstance(r, CandidateRecord):
                    expected[w] = r
        got = [r.key() for r in structured_enumerate(I, w_max)]
        assert got == sorted(r.key() for r in expected.values())
        assert (I >= 11) == (got == [])


def test_pruned_shapes_fix_two_weights_to_index():
    """Every shape the search leaves out has a row w_a + w_b = I, and only
    those shapes give a plane."""
    pruned = [b for b in witness_branches(1) if _g1_rules_out(b.m, b.j)]
    assert len(pruned) == 2715
    for b in pruned:
        A, rhs = b.equations()
        assert any(sorted(row) == [-1, -1, 0, 0] for row in A)
        assert rhs == [-1, -1, -1]
    for I in range(1, 11):
        for b in witness_branches(I):
            if solve_condition_system(b).kind == "plane":
                assert _g1_rules_out(b.m, b.j)


def test_brute_force_index3(enumeration_150):
    records = [r for r in enumeration_150[0] if r.candidate.I == 3]
    assert len(records) == 7
    assert all(r.candidate.I == 3 for r in records)
    assert all(r.series_id is None for r in records)


def test_brute_force_index1(enumeration_150):
    records = [r for r in enumeration_150[0] if r.candidate.I == 1]
    sporadic = [r for r in records if r.series_id is None]
    series = [r for r in records if r.series_id is not None]
    assert len(sporadic) == 19
    assert {r.series_id for r in series} == {"(2,2k+1,2k+1,4k+1)"}
    assert len(series) == 37  # 4k+1 <= 150
    keys = [r.key() for r in records]
    assert keys == sorted(keys)


def test_brute_force_deterministic_and_parallel():
    single = brute_force_enumerate(2, 2, 40, jobs=1)
    again = brute_force_enumerate(2, 2, 40, jobs=1)
    parallel = brute_force_enumerate(2, 2, 40, jobs=2)
    assert [r.key() for r in single] == [r.key() for r in again]
    assert [r.key() for r in single] == [r.key() for r in parallel]
    # one pool serves every index
    all_single = brute_force_enumerate(1, 10, 60, jobs=1)
    all_parallel = brute_force_enumerate(1, 10, 60, jobs=2)
    assert [r.key() for r in all_single] == [r.key() for r in all_parallel]


def test_oracle_matches_unpruned_scan():
    """The oracle's prunings lose nothing: compare with no pruning at all.

    The oracle skips 3*w0 <= 2I and w0 + w1 = 2I and tries only five
    values of w3 per (w0, w1, w2, I); the proofs are in
    `search._scan_w0`.  Here every ascending tuple and every index goes
    through `classify` and the bound w3 <= w_max alone.
    """
    w_max = 40
    expected = [
        (I, w)
        for w in itertools.combinations_with_replacement(range(1, w_max + 1), 4)
        for I in range(1, 11)
        if w[3] <= w_max and isinstance(classify(w, sum(w) - I), CandidateRecord)
    ]
    got = [(r.candidate.I, r.candidate.weights.w) for r in brute_force_enumerate(1, 10, w_max)]
    assert got == sorted(expected)
    assert len(got) == 123


def test_structured_includes_all_index2_series():
    records = structured_enumerate(2, 60)
    ids = {r.series_id for r in records if r.series_id is not None}
    printed = {f.id for f in catalog.reference_series() if f.index == 2}
    assert printed <= ids


def test_gate_soundness(enumeration_60_both):
    brute, _ = enumeration_60_both
    for recs in brute.values():
        for r in recs:
            c = r.candidate
            assert 2 * c.I < 3 * c.weights[0]
            assert 2 * c.I != c.weights[0] + c.weights[1]


def test_partition_sporadic_or_series(enumeration_60_both):
    brute, _ = enumeration_60_both
    sporadic_keys = {
        (r.index, r.weights, r.degree) for r in catalog.reference_table1()
    }
    for recs in brute.values():
        for r in recs:
            key = (r.candidate.I, r.candidate.weights.w, r.candidate.d)
            assert r.series_id is not None or key in sporadic_keys


def _series_tag(c):
    hit = catalog.find_series_match(c)
    return (hit[0].id, hit[1]) if hit else None


@pytest.mark.parametrize(
    "w,d,expected",
    [
        ((2, 3, 3, 5), 12, ("(2,2k+1,2k+1,4k+1)", 1)),
        ((2, 3, 5, 9), 18, None),
        ((6, 11, 20, 33), 66, ("(6,6k+5,12k+8,18k+15)", 1)),
    ],
)
def test_match_series(w, d, expected):
    c = Candidate(normalize_weights(w), d)
    assert _series_tag(c) == expected


def test_match_series_unique_over_instances():
    # every instantiation matches back to exactly its own family
    for fam in catalog.reference_series():
        for k in range(fam.k_min, fam.k_min + 6):
            c = fam.candidate_at(k)
            assert _series_tag(c) == (fam.id, k)


def test_sporadic_rows_never_match_series():
    for row in catalog.reference_table1():
        assert _series_tag(row.candidate()) is None
