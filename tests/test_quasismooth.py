from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from delpezzo.quasismooth import (
    _failure,
    _partner,
    hypersurface_rejection,
    is_quasismooth,
)
from delpezzo.weights import (
    Candidate,
    WeightSystem,
    is_well_formed,
    normalize_weights,
    pair_has_monomial,
)
from oracles import pair_witness_extras, partner_oracle, quasismooth_failure_oracle


def _partners(w: tuple[int, ...], d: int) -> list[tuple[int, int] | None]:
    """Each variable's minimal condition-I partner (m, j), None where it has none."""
    return [_partner(w, d, i) for i in range(4)]


def test_condition_I_minimal_witness():
    w = normalize_weights((2, 3, 5, 9)).w
    partners = _partners(w, 18)
    assert None not in partners
    assert all(m * w[i] + w[j] == 18 for i, (m, j) in enumerate(partners))
    # z3^2 for the heaviest variable, z2^3 z1 for the third
    assert partners[3] == (1, 3)
    assert partners[2] == (3, 1)


def test_condition_I_no_witness():
    # the second variable admits no monomial: 4m + w_j = 18 is insoluble
    assert _partners(normalize_weights((3, 4, 5, 7)).w, 18)[1] is None


def test_condition_I_quadric():
    # m = 1 everywhere, and the smallest-j tie break on equal weights
    assert _partners(normalize_weights((1, 1, 1, 1)).w, 2) == [(1, 0)] * 4


def test_condition_I_unit_weight_always_solvable():
    # w0 = 1 gives z_0^{d-1} z_0 whenever d >= 2, even if another variable fails
    for d in range(2, 60):
        for rest in [(2, 3, 7), (5, 5, 6), (11, 13, 29)]:
            w = normalize_weights((1, *rest))
            assert _partner(w.w, d, 0) is not None


@pytest.mark.parametrize(
    "w,d,expected",
    [
        ((2, 3, 4, 5), 13, False),  # pair (2,4) needs 2a+4b=13, parity
        ((2, 3, 5, 9), 18, True),
        ((1, 2, 3, 5), 10, True),
    ],
)
def test_condition_II(w, d, expected):
    rejection = hypersurface_rejection(Candidate(normalize_weights(w), d))
    if expected:
        assert rejection is None
    else:
        assert rejection.reason == "X not well-formed"
        assert rejection.detail.startswith("gcd(w0, w2) = 2 does not divide 13")


@pytest.mark.parametrize(
    "w,d",
    [
        ((2, 3, 5, 9), 18),
        ((1, 1, 1, 1), 2),
        ((9, 11, 12, 17), 45),
    ],
)
def test_condition_III_examples(w, d):
    assert _failure(normalize_weights(w).w, d) is None


def test_condition_III_witness_pair():
    # the (12, 17)-pair of (9,11,12,17) at degree 45 has no pure monomial;
    # z_2^3 z_0 and z_3^2 z_1 supply both extra directions
    w = normalize_weights((9, 11, 12, 17))
    assert not pair_has_monomial(12, 17, 45)
    assert pair_witness_extras(w.w, 45, 2, 3) == {0, 1}
    assert _failure(w.w, 45) is None


def test_condition_III_one_witness_pair_fails():
    # the (2,2)-pair has no pure monomial and only z_0 as a witness, so
    # the two-witness rule rejects it, ahead of condition II on the same pair
    w = normalize_weights((1, 2, 2, 2))
    d = 3
    assert not pair_has_monomial(w[1], w[2], d)
    assert pair_witness_extras(w.w, d, 1, 2) == {0}
    assert _failure(w.w, d) == ("III", (1, 2, 0))


@st.composite
def _weights_and_degree(draw):
    raw = draw(st.lists(st.integers(1, 30), min_size=4, max_size=4))
    if draw(st.booleans()):  # a degree with z3^m z_j, so that condition I holds more often
        return raw, draw(st.integers(1, 3)) * max(raw) + raw[draw(st.integers(0, 3))]
    return raw, draw(st.integers(1, 120))


@settings(max_examples=400)
@given(_weights_and_degree())
def test_condition_I_partners_witness_every_pair(case):
    """Lemma behind the single condition III: under condition I, a pair
    without a pure monomial has both partners j(i) and j(j) among its
    witness variables, so one witness always exists."""
    raw, d = case
    if gcd(*raw) != 1:
        return
    w = normalize_weights(raw)
    partners = _partners(w.w, d)
    if None in partners:
        return
    for i in range(4):
        for j in range(i + 1, 4):
            if not pair_has_monomial(w[i], w[j], d):
                assert {partners[i][1], partners[j][1]} <= pair_witness_extras(w.w, d, i, j)


@pytest.mark.parametrize(
    "w,d,expected",
    [
        ((2, 3, 5, 9), 18, True),
        ((2, 3, 4, 5), 13, False),
        ((1, 1, 1, 1), 2, True),
        ((3, 4, 5, 7), 18, False),
    ],
)
def test_is_quasismooth(w, d, expected):
    assert is_quasismooth(normalize_weights(w), d) is expected


@given(
    st.tuples(*[st.integers(1, 15)] * 4),
    st.integers(2, 60),
)
def test_condition_I_matches_linear_system(raw, d):
    # witness existence is exactly solvability of m_i w_i + w_j = d, m_i >= 1
    if gcd(*raw) != 1:
        return
    w = normalize_weights(raw)
    partners = _partners(w.w, d)
    solvable = all(
        any((d - w[j]) >= w[i] and (d - w[j]) % w[i] == 0 for j in range(4))
        for i in range(4)
    )
    assert (None not in partners) is solvable
    if solvable:
        assert all(m * w[i] + w[j] == d for i, (m, j) in enumerate(partners))


@st.composite
def _ascending_case(draw):
    """Ascending primitive weights up to 5,000 (the range of the benchmark's
    random inputs), with d = |w| - I or with d = m*w3 + w_j, which gives z3
    a partner, so that conditions II and III are reached more often."""
    w = tuple(sorted(draw(st.lists(st.integers(1, 5000), min_size=4, max_size=4))))
    assume(gcd(*w) == 1)
    if draw(st.booleans()):
        return w, sum(w) - draw(st.integers(1, 10))
    return w, draw(st.integers(1, 3)) * w[3] + w[draw(st.integers(0, 3))]


@settings(max_examples=300)
@given(_ascending_case())
@example(((1, 2, 3, 5), 10))  # z0 has four partners; the minimal one is the last found
@example(((2, 3, 4, 5), 13))  # passes I and III, fails II
@example(((1, 2, 2, 2), 3))  # passes I, fails III
def test_condition_I_witness_matches_scan(case):
    """Each variable's partner is the minimal (m, j) of a blunt scan, and
    None exactly where the scan finds none; a variable without one fails
    `is_quasismooth`; and on a well-formed P(w) `is_quasismooth` agrees
    with `hypersurface_rejection`."""
    w, d = case
    ws = WeightSystem(w)
    partners = [partner_oracle(w, d, i) for i in range(4)]
    assert _partners(w, d) == partners
    if None in partners:
        assert not is_quasismooth(ws, d)
    if is_well_formed(ws) and w[3] < d < sum(w):
        assert is_quasismooth(ws, d) is (hypersurface_rejection(Candidate(ws, d)) is None)


@settings(max_examples=300)
@given(_ascending_case())
@example(((2, 3, 4, 5), 13))  # passes I and III, fails II
@example(((1, 2, 2, 2), 3))  # fails III and II on the same pair; III comes first
def test_failure_matches_literal_rule(case):
    """`_failure` reads III off the condition-I partners and II off the bare
    pairs; the oracle scans every pair's witnesses literally."""
    w, d = case
    assert _failure(w, d) == quasismooth_failure_oracle(w, d)


def test_failure_matches_literal_rule_small_weights():
    """Every ascending w with w3 <= 12 and every degree w3 < d < |w| + w3."""
    seen = set()
    for w in combinations_with_replacement(range(1, 13), 4):
        for d in range(w[3] + 1, sum(w) + w[3]):
            failure = _failure(w, d)
            assert failure == quasismooth_failure_oracle(w, d), (w, d)
            seen.add(failure and failure[0])
    assert seen == {None, "I", "III", "II"}
