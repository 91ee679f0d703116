import hashlib
import itertools
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import delpezzo
from delpezzo import catalog, search, serialize
from delpezzo.diophantine import BranchAssignment, _shape, solve_condition_system, witness_branches
from delpezzo.quasismooth import _failure, hypersurface_rejection
from delpezzo.records import CandidateRecord, classify
from delpezzo.search import (
    ORACLE_W_MAX,
    PASS_CAP,
    _g1_rules_out,
    _line_points,
    _lines,
    _oracle_points,
    _oracle_segments,
    _prefilter,
    _solve_shapes,
    _z2_candidates,
    brute_force_enumerate,
    structured_enumerate,
    structured_range,
    verified_enumeration,
)
from delpezzo.weights import Candidate, WeightSystem, normalize_weights


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


def test_solve_inconsistent_branch_empty(branch_spaces):
    """The legacy reference's kinds of the 5,120 branches at each index
    I = 1..10, and its instances at w <= 150: the figures the benchmark's
    traced probe reports as `search.branches_*` and `search.instances`."""
    spaces = [space for I in range(1, 11) for _, space in branch_spaces[I]]
    kinds = Counter(space.kind for space in spaces)
    assert kinds == {"empty": 40_281, "finite": 7_573, "line": 2_706, "plane": 640}
    assert sum(1 for space in spaces for _ in space.instances(150)) == 172_873


@pytest.fixture(scope="module")
def branch_spaces():
    """Every one of the 5,120 branches at each index I = 1..12, with its
    `solve_condition_system`: {I: [(branch, space), ...]}, solved once for
    the tests that pin the legacy branch reference or compare with it."""
    return {I: [(b, solve_condition_system(b)) for b in witness_branches(I)] for I in range(1, 13)}


def test_structured_matches_unpruned_branches(branch_spaces):
    """Leaving out the G1-pruned shapes and walking each line once loses nothing.

    The reference solves every one of the 5,120 branches at each index,
    keeps every instance (each checked against its own equations), and
    filters the union with `classify` and the bound w3 <= w_max alone.
    """
    w_max = 80
    for I in range(1, 13):
        verdicts = {}  # one `classify` per distinct point, however many branches hold it
        for b, space in branch_spaces[I]:
            A, rhs = b.equations()
            for w in space.instances(w_max):
                assert [sum(a * x for a, x in zip(row, w)) for row in A] == rhs
                if w not in verdicts:
                    verdicts[w] = classify(w, sum(w) - I)
        expected = {w: r for w, r in verdicts.items() if w[3] <= w_max and isinstance(r, CandidateRecord)}
        got = [r.key() for r in structured_enumerate(I, w_max)]
        assert got == sorted(r.key() for r in expected.values())
        assert (I >= 11) == (got == [])


def test_pruned_shapes_fix_two_weights_to_index(branch_spaces):
    """Every shape the search leaves out has a row w_a + w_b = I, and only
    those shapes give a plane."""
    pruned = [b for b in witness_branches(1) if _g1_rules_out(b.m, b.j)]
    assert len(pruned) == 2715
    for b in pruned:
        A, rhs = b.equations()
        assert any(sorted(row) == [-1, -1, 0, 0] for row in A)
        assert rhs == [-1, -1, -1]
    for I in range(1, 11):
        for b, space in branch_spaces[I]:
            if space.kind == "plane":
                assert _g1_rules_out(b.m, b.j)


def _kept_shapes():
    return [(b.m, b.j) for b in witness_branches(1) if not _g1_rules_out(b.m, b.j)]


def test_minors_solve_matches_smith_form():
    """On every shape the search keeps, the numpy minors solve and the
    Smith-form `_shape` agree on consistency, the step, the kernel up to
    sign and the base modulo Z*kernel; exactly two kept shapes, both of
    rank two, are inconsistent."""
    kept = _kept_shapes()
    assert len(kept) == 2405
    assert [s for s in kept if _shape(*s) is None] == [((4, 4, 2), (0, 0, 0)), ((6, 3, 2), (0, 0, 0))]
    step, base, kernel = _solve_shapes(*np.array(kept, dtype=np.int64).transpose(1, 0, 2))
    for s, st, b, k in zip(kept, step.tolist(), base.tolist(), kernel.tolist()):
        if _shape(*s) is None:
            assert st == 0 and k == [0, 0, 0, 0]
            continue
        ref_step, ref_base, (ref_kernel,) = _shape(*s)
        assert st == ref_step
        assert k in (list(ref_kernel), [-x for x in ref_kernel])
        diff = [x - y for x, y in zip(b, ref_base)]
        lam = next(dx // kx for dx, kx in zip(diff, k) if kx)
        assert diff == [lam * kx for kx in k]


def test_lines_match_branch_instances(branch_spaces):
    """The segments of `_lines` hold exactly the points the legacy
    `solve_condition_system` gives on the kept branches, every direction
    is lexicographically positive, as the deduplication needs, and the d
    row is |w| - I along each segment."""
    kept = set(_kept_shapes())
    for I in range(1, 13):
        spaces = [space for b, space in branch_spaces[I] if (b.m, b.j) in kept]
        for w_max in (80, 150, 600):
            expected = {w for space in spaces for w in space.instances(w_max)}
            start, step, length = _lines(I, w_max)
            assert (start[4] == start[:4].sum(axis=0) - I).all() and (step[4] == step[:4].sum(axis=0)).all()
            start, direction, length = start[:4].T.tolist(), step[:4].T.tolist(), length.tolist()
            got = {tuple(s + k * v for s, v in zip(p, d))
                   for p, d, n in zip(start, direction, length) for k in range(n)}
            assert got == expected
            assert all(next(x for x in d if x) > 0 for d in direction)


def test_both_routes_give_the_published_w600_json():
    """`enumerate --method both --max-weight 600` is checked by both routes:
    they agree on the 1,503 records, and their JSON has the sha256 that
    perfbench pins for the structured route alone."""
    records = verified_enumeration(1, 10, 600)
    assert len(records) == 1503
    digest = hashlib.sha256(serialize.to_json(records).encode()).hexdigest()
    assert digest == "a19f6db545553d7995966297a3bba20c7cc5a24c0308c37a57d343376b243f5e"


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


def test_brute_force_deterministic(enumeration_60_both):
    single = brute_force_enumerate(2, 2, 40)
    again = brute_force_enumerate(2, 2, 40)
    assert [r.key() for r in single] == [r.key() for r in again]
    # one call over every index gives the one-index calls' lists, in order
    brute, _ = enumeration_60_both
    assert brute_force_enumerate(1, 10, 60) == [r for I in range(1, 11) for r in brute[I]]


def test_oracle_matches_unpruned_scan():
    """The oracle's prunings lose nothing: compare with no pruning at all.

    The oracle skips 3*w0 <= 2I and w0 + w1 = 2I and tries only five
    values of w3 per (w0, w1, w2, I); the proofs are in
    `search._oracle_points`.  Here every ascending tuple and every index
    goes through `classify` and the bound w3 <= w_max alone.
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


def _docstring_scan(w_max):
    """(I, w) for every w0 <= w1 <= w2, every index 1..10 past gate G1 and
    every w3 case of `search._oracle_points` with w2 <= w3 <= w_max, one
    count per case that gives it."""
    out = Counter()
    for w0, w1, w2 in itertools.combinations_with_replacement(range(1, w_max + 1), 3):
        for I in range(1, 11):
            if 3 * w0 <= 2 * I:
                continue
            r = w0 + w1 + w2 - I  # S - I
            cases = [r, r - w0, r - w1, r - w2] + ([r // 2] if r % 2 == 0 else [])
            out.update((I, (w0, w1, w2, w3)) for w3 in cases if w2 <= w3 <= w_max)
    return out


@pytest.fixture(scope="module", params=[40, 61])
def oracle_expansion(request):
    """(w_max, {w0: (segments, passes)}): the segment table
    `_oracle_segments` gives for I = 1..10 and its points expanded in full
    by `_line_points`, shared by the two tests below."""
    w_max = request.param
    tables = {w0: _oracle_segments(w0, 1, 10, w_max) for w0 in range(1, w_max + 1)}
    return w_max, {w0: (t, list(_line_points(*t))) for w0, t in tables.items()}


def test_oracle_intervals_match_docstring_scan(oracle_expansion):
    """The interval generator emits exactly the points, with the repeats,
    that a plain loop over the conditions of `_oracle_points` gives, in
    passes of at most `PASS_CAP` points.  An odd bound reaches
    w3 = (S - I)/2 at the edge 2*w_max - T."""
    w_max, expansion = oracle_expansion
    got = Counter()
    for _, passes in expansion.values():
        for P in passes:
            assert P.shape[1] <= PASS_CAP
            *w, d = P.tolist()
            got.update((sum(x) - dd, x) for x, dd in zip(zip(*w), d))
    assert got == _docstring_scan(w_max)


def _point_keys(P):
    """One integer per column (w0, w1, w2, w3, d) of P, all entries < 256."""
    return 256 ** np.arange(4, -1, -1) @ P


def test_oracle_points_keep_every_z2_point(oracle_expansion):
    """Against the full expansion of each w0's segments, `_oracle_points`
    yields only points of the segments, every point that passes condition I
    for z2 and gate G2, and the same `_prefilter` survivors; some segment
    with a c_j = 0 holds points that pass, so its whole expansion is
    exercised."""
    w_max, expansion = oracle_expansion
    whole_passing = 0
    for w0, ((start, step, length), passes) in expansion.items():
        got = list(_oracle_points(w0, 1, 10, w_max))
        assert all(P.shape[1] <= PASS_CAP for P in got)
        full, got = (np.concatenate([np.zeros((5, 0), dtype=np.int64), *x], axis=1) for x in (passes, got))
        assert np.isin(_point_keys(got), _point_keys(full)).all()
        r = full[4] - full[:4]
        z2 = ((r >= full[2]) & (r % full[2] == 0)).any(axis=0)
        g2 = full[0] + full[1] != 2 * (full[:4].sum(axis=0) - full[4])
        assert np.isin(_point_keys(full[:, z2 & g2]), _point_keys(got)).all()
        kept_got, kept_full = (set(_point_keys(_prefilter(x, (1, 0, 2, 3))).tolist()) for x in (got, full))
        assert kept_got == kept_full
        c = step[2] * (start[4] - start[:4]) - (step[4] - step[:4]) * start[2]
        zero = np.repeat((c == 0).any(axis=0), length)  # per point of the full expansion
        whole_passing += (zero & z2 & g2).sum()
    assert whole_passing > 0


def test_oracle_w0_stops_where_w3_passes_w_max(oracle_expansion):
    """Past (2*w_max + I_max) // 3, one of the bounds where
    `search._oracle_passes` stops, every w0 has an empty segment table;
    the one at the bound does not, so the bound is tight at both w_max."""
    w_max, expansion = oracle_expansion
    top = (2 * w_max + 10) // 3
    assert [w0 for w0, ((_, _, length), _) in expansion.items() if len(length)][-1] == top


@pytest.mark.parametrize("I_min, I_max", [(1, 10), (4, 10), (1, 200), (12, 30)])
def test_oracle_passes_ask_for_every_w0_to_the_bound(oracle_expansion, monkeypatch, I_min, I_max):
    """`_oracle_passes` asks `_oracle_points`, once each and in order, for
    each w0 from the first that gate G1 allows at I_min to
    min(w_max, (2*w_max + I_max) // 3) that some index of the range
    allows, each for the indices from the first to the last that gate G1
    and `w0_ceiling` allow it, and for nothing else.  At I = 1..10 the
    last w0 is 15, asked for I = 3 alone; at I_max = 200 the last is
    w_max itself, and at I = 12..30 the bound (2*w_max + I_max) // 3 cuts
    below the ceiling.  No output can show an early stop, since no record
    at the tested bounds has w0 > 15; this kills the mutants
    `oracle-w0-stops-early` and `oracle-w0-skips-last-two`."""
    w_max, _ = oracle_expansion
    asked = []

    def spy(w0, *bounds):
        asked.append((w0, *bounds))
        return iter(())

    monkeypatch.setattr(search, "_oracle_points", spy)
    assert list(search._oracle_passes(I_min, I_max, w_max)) == []
    expected = []
    for w0 in range((2 * I_min) // 3 + 1, min(w_max, (2 * w_max + I_max) // 3) + 1):
        fits = [I for I in range(I_min, I_max + 1) if 2 * I < 3 * w0 and w0 <= search.w0_ceiling(I)]
        if fits:
            expected.append((w0, fits[0], fits[-1], w_max))
    assert asked == expected
    if (I_min, I_max) == (1, 10):
        assert asked[-1] == (15, 3, 3, w_max)
    if I_max == 200:
        assert asked[-1][0] == w_max


def test_z2_candidates_drop_the_segments_gate_g2_fails(oracle_expansion):
    """The G2 mask of `_z2_candidates` is gate G2, w0 + w1 != 2I, on every
    segment of the table: no segment that fails it gives a candidate, and
    each segment that passes it and holds a point passing condition I for
    z2 gives one.  Some failing segment holds such a point, so a mask that
    let it through, as the mutant `z2-g2-mask-minus-w3` does, is seen."""
    w_max, expansion = oracle_expansion
    failing_with_z2 = 0
    for (start, step, length), passes in expansion.values():
        whole, seg, _ = _z2_candidates(start, step, length)
        used = whole.copy()
        used[seg] = True
        g2 = start[0] + start[1] != 2 * (start[:4].sum(axis=0) - start[4])
        full = np.concatenate([np.zeros((5, 0), dtype=np.int32), *passes], axis=1)
        r = full[4] - full[:4]
        z2 = ((r >= full[2]) & (r % full[2] == 0)).any(axis=0)
        has_z2 = np.zeros(len(length), dtype=bool)
        has_z2[np.repeat(np.arange(len(length)), length)[z2]] = True
        assert not (used & ~g2).any() and not (g2 & has_z2 & ~used).any()
        failing_with_z2 += (~g2 & has_z2).sum()
    assert failing_with_z2 > 0


@pytest.mark.parametrize("route, w_max", [("_oracle_passes", 61), ("_structured_passes", 150)])
def test_routes_give_the_condition_i_their_prefilter_leaves_out(monkeypatch, route, w_max):
    """Every point a route hands to `_prefilter` passes condition I for
    each variable its call leaves out, as the route's docstring proves."""
    calls = []

    def kept_whole(P, variables):
        calls.append((P, variables))
        return P

    monkeypatch.setattr(search, "_prefilter", kept_whole)
    n = sum(P.shape[1] for P in getattr(search, route)(1, 10, w_max))
    assert n > 0 and sum(P.shape[1] for P, _ in calls) == n
    for P, variables in calls:
        r = P[4] - P[:4]
        for i in set(range(4)) - set(variables):
            assert ((r >= P[i]) & (r % P[i] == 0)).any(axis=0).all(), (route, i)


@pytest.mark.parametrize("cap", [1, 3, 7])
def test_line_points_cut_segments_anywhere(monkeypatch, cap):
    """Passes that cut segments anywhere still give every point once, in order."""
    monkeypatch.setattr(search, "PASS_CAP", cap)
    start = np.array([[5, 1, 0, 2], [0, 9, 3, 4]])
    step = np.array([[1, 0, 0, -1], [2, 0, 0, 0]])
    length = np.array([4, 0, 6, 3])
    passes = list(_line_points(start, step, length))
    assert all(P.shape[1] <= cap for P in passes)
    expected = [(start[0, s] + k * step[0, s], start[1, s] + k * step[1, s])
                for s in range(4) for k in range(length[s])]
    assert [tuple(x) for P in passes for x in P.T.tolist()] == expected


@st.composite
def _points(draw):
    w = tuple(sorted(draw(st.tuples(*[st.integers(1, 60)] * 4))))
    if draw(st.booleans()):  # a degree with z3^m z_j, so that condition I holds more often
        d = draw(st.integers(1, 3)) * w[3] + w[draw(st.integers(0, 3))]
    else:
        d = sum(w) - draw(st.integers(1, 10))
    assume(sum(w) - d >= 1)
    return w, d


# the sporadic rows and series members with weights <= 60, so that admissions are common
_admitted_cases = st.sampled_from(sorted(
    [(r.weights, r.degree) for r in catalog.reference_table1() if r.weights[3] <= 60]
    + [(c.weights.w, c.d) for f in catalog.reference_series()
       for c in map(f.candidate_at, range(f.k_min, f.k_min + 8)) if c.weights[3] <= 60]
))


@given(st.one_of(_points(), _admitted_cases))
@example(((2, 3, 4, 5), 13))  # condition II: gcd(w0, w2) = 2 does not divide d
@example(((1, 2, 2, 3), 7))  # bare (z1, z2), j(1) = j(2) = 3, passes III through z0, fails II
@example(((1, 2, 3, 3), 8))  # condition III fails
@example(((3, 4, 5, 7), 17))  # admitted, with the bare pair (z1, z3) and j(1) != j(3)
@example(((2, 4, 6, 8), 18))  # not primitive
@example(((2, 2, 2, 3), 8))  # P(w) not well-formed, though every pair's gcd divides d
@example(((2, 3, 5, 9), 9))  # d = w3: condition I for z3 fails, as d > w3 does
@settings(max_examples=400, deadline=None)
def test_numpy_admission_is_classify(case):
    """The prefilter keeps a point iff `classify` admits it."""
    w, d = case
    kept = _prefilter(np.array([[*w, d]], dtype=np.int64).T, (1, 0, 2, 3)).shape[1] == 1
    assert kept == isinstance(classify(w, d), CandidateRecord)


def test_pair_gcds_decide_conditions_iii_and_ii():
    """On every point that passes condition I and has P(w) well-formed,
    conditions III and II hold iff gcd(w_i, w_j) divides d for every pair,
    as `_prefilter` proves; here for every ascending w <= 24 and every
    degree w3 < d < |w|, with no gate, so that large indices count too.
    The failing pair's gcd never divides d, for III as for II, so every
    "X not well-formed" rejection says so."""
    P = np.array([(*w, d) for w in itertools.combinations_with_replacement(range(1, 25), 4)
                  for d in range(w[3] + 1, sum(w))], dtype=np.int64).T
    for i in range(4):
        r = P[4] - P[:4]
        P = P[:, ((r >= P[i]) & (r % P[i] == 0)).any(axis=0)]
    for a, b, c in itertools.combinations(range(4), 3):
        P = P[:, np.gcd(np.gcd(P[a], P[b]), P[c]) == 1]
    outcomes = Counter()
    for *w, d in P.T.tolist():
        pairs = all(d % math.gcd(w[i], w[j]) == 0 for i, j in itertools.combinations(range(4), 2))
        failure = _failure(tuple(w), d)
        assert pairs == (failure is None), (w, d, failure)
        outcomes[failure and failure[0]] += 1
        if failure is not None:
            i, j = failure[1][:2]
            assert d % math.gcd(w[i], w[j]), (w, d, failure)
            rejection = hypersurface_rejection(Candidate(WeightSystem(tuple(w)), d))
            assert rejection.reason != "X not well-formed" or "does not divide" in rejection.detail
    assert P.shape[1] == 6770 and outcomes["III"] == 2507 and outcomes["II"] == 1952


def _counting_classify(monkeypatch):
    """Patch `search.classify` to count its calls; returns the counter."""
    calls = Counter()

    def counted(w, d):
        calls["classify"] += 1
        return classify(w, d)

    monkeypatch.setattr(search, "classify", counted)
    return calls


def test_oracle_classifies_only_records(monkeypatch):
    calls = _counting_classify(monkeypatch)
    records = brute_force_enumerate(1, 10, 60)
    assert calls["classify"] == len(records) > 0


def test_verified_enumeration_builds_each_record_once(monkeypatch):
    """The cross-check compares the routes' points, so only the records
    it returns are built."""
    calls = _counting_classify(monkeypatch)
    records = verified_enumeration(1, 10, 60)
    assert calls["classify"] == len(records) > 0


def test_structured_range_concatenates_the_indices(structured_150):
    assert structured_range(1, 10, 150) == [r for I in range(1, 11) for r in structured_150[I]]


def test_structured_classifies_only_records(monkeypatch):
    calls = _counting_classify(monkeypatch)
    for I in range(1, 11):
        calls.clear()
        records = structured_enumerate(I, 150)
        assert calls["classify"] == len(records)


@pytest.mark.parametrize("args", [(0, 150), (-1, 150), (1, 0)])
def test_structured_rejects_bad_arguments(args):
    with pytest.raises(ValueError, match="bad"):
        structured_enumerate(*args)


def test_structured_past_gate_g1_is_empty_without_numpy_work():
    """Gate G1 leaves no record once 2I >= 3*w_max, so a huge index returns
    before it can wrap around in the int64 arrays of `_lines`."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert structured_enumerate(2**62, 50) == []
        assert structured_enumerate(10**19, 5) == []


@pytest.mark.parametrize("args", [(0, 3, 40), (2, 1, 40), (1, 3, 0), (1, 3, ORACLE_W_MAX + 1),
                                  (5, 2, 150), (1, 1, 2**63)])
@pytest.mark.parametrize("route", [brute_force_enumerate, structured_range, verified_enumeration],
                         ids=lambda route: route.__name__)
def test_routes_reject_bad_arguments(route, args):
    """Every route takes the one domain 1 <= I_min <= I_max and
    1 <= w_max <= ORACLE_W_MAX, and refuses the rest before any work."""
    with pytest.raises(ValueError, match="bad"):
        route(*args)


def test_import_leaves_numpy_out():
    """Only the enumeration routes need numpy, so they import it themselves;
    `cli.main` relies on it to set its BLAS default first.  No module
    imports `fractions` either."""
    src = str(Path(delpezzo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, delpezzo, delpezzo.cli\n"
            "loaded = {'numpy', 'fractions'} & set(sys.modules)\n"
            "assert not loaded, f'{loaded} loaded'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


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
