import pickle
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delpezzo.errors import NonPrimitiveWeights
from delpezzo.weights import (
    Candidate,
    WeightSystem,
    count_monomials,
    is_well_formed,
    normalize_weights,
    pair_has_monomial,
)
from oracles import count_monomials_oracle, pair_solvable_oracle


def test_normalize_sorts():
    assert normalize_weights((5, 3, 2, 9)).w == (2, 3, 5, 9)
    assert normalize_weights((1, 1, 1, 1)).w == (1, 1, 1, 1)


def test_normalize_rejects_common_factor():
    with pytest.raises(NonPrimitiveWeights):
        normalize_weights((2, 4, 6, 8))


def test_normalize_rejects_nonpositive():
    with pytest.raises(ValueError):
        normalize_weights((0, 1, 2, 3))


def test_weight_system_requires_ascending():
    with pytest.raises(ValueError):
        WeightSystem((3, 2, 5, 9))
    # out of order only in w1, w2 (w1 <= w3 holds), with the weight 1 present:
    # kills `w[3]` for `w[2]` in the order check and `min(w) <= 1` in its message
    with pytest.raises(ValueError, match=r"^weights must be ascending, got \(1, 3, 2, 4\)$"):
        WeightSystem((1, 3, 2, 4))


@pytest.mark.parametrize(
    "w,expected",
    [
        ((1, 2, 3, 5), True),
        ((2, 2, 2, 3), False),
        ((6, 9, 10, 13), True),
        ((3, 3, 5, 5), True),
    ],
)
def test_well_formed(w, expected):
    assert is_well_formed(normalize_weights(w)) is expected


@pytest.mark.parametrize(
    "w,d,count",
    [
        ((1, 1, 1, 1), 3, 20),
        ((2, 3, 5, 9), 18, 13),
        ((2, 3, 5, 9), 1, 0),
        ((1, 1, 1, 2), 4, 22),
    ],
)
def test_monomial_counts(w, d, count):
    ws = normalize_weights(w)
    assert count_monomials(ws, d) == count
    assert count_monomials_oracle(ws.w, d) == count


def test_candidate_invariants():
    c = Candidate(normalize_weights((2, 3, 5, 9)), 18)
    assert c.I == 1
    # the stored index takes no part in repr, equality or hashing
    assert repr(c) == "Candidate(weights=WeightSystem(w=(2, 3, 5, 9)), d=18)"
    assert c == Candidate(normalize_weights((2, 3, 5, 9)), 18)
    assert hash(c) == hash((c.weights, c.d))
    assert pickle.loads(pickle.dumps(c)).I == 1


def test_candidate_rejects_linear_cone():
    # degree equal to the top weight is a hyperplane in disguise
    with pytest.raises(ValueError):
        Candidate(normalize_weights((1, 1, 1, 1)), 1)
    with pytest.raises(ValueError):
        Candidate(normalize_weights((1, 2, 3, 5)), 5)


def test_candidate_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        Candidate(normalize_weights((1, 1, 1, 1)), 8)


weights_strategy = st.tuples(*[st.integers(1, 30)] * 4).filter(lambda t: gcd(*t) == 1)


@given(weights_strategy)
def test_normalize_idempotent(raw):
    ws = normalize_weights(raw)
    assert normalize_weights(ws.w).w == ws.w


def test_monomial_count_nondecreasing_past_frobenius():
    # far past the Frobenius number of the weights the count cannot drop
    ws = normalize_weights((2, 3, 5, 9))
    bound = ws[2] * ws[3]  # crude but sufficient threshold for sampling
    counts = [count_monomials(ws, d) for d in range(bound, bound + 40)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


@st.composite
def _pair_and_degree(draw):
    """(wi, wj, d) with d drawn at random or as an exact multiple b*wj."""
    wi, wj = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    d = draw(st.one_of(st.integers(-5, 400), st.integers(0, 30).map(lambda b: b * wj)))
    return wi, wj, d


@settings(max_examples=400)
@given(_pair_and_degree())
@example((3, 2, 4))  # b0 = 2 and b0*wj = d: the bound is inclusive
@example((7, 5, 35))  # d = wi*wj: b0 = 0
@example((4, 6, 10))  # gcd 2 divides d, b0 = 1
@example((4, 6, 9))  # gcd 2 does not divide d
@example((5, 3, 0))  # d = 0: a = b = 0
@example((6, 1, -1))  # d < 0
def test_pair_has_monomial_matches_scan(case):
    """The residue-class decision equals the blunt scan of the oracle."""
    wi, wj, d = case
    assert pair_has_monomial(wi, wj, d) is pair_solvable_oracle(wi, wj, d)


@settings(max_examples=300)
@given(weights_strategy, st.integers(-5, 150))
@example((1, 2, 3, 5), 17)  # w0 = 1: every a1 in range counts
@example((4, 6, 7, 9), 40)  # gcd(w0, w1) = 2: the class exists only for even r2
@example((6, 9, 10, 25), 57)  # gcd(w0, w1) = 3, and w0/g = 2
@example((2, 3, 5, 9), -1)  # d < 0
def test_count_monomials_matches_oracle(raw, d):
    """The residue-class count equals the blunt count of the oracle."""
    ws = normalize_weights(raw)
    assert count_monomials(ws, d) == count_monomials_oracle(ws.w, d)
