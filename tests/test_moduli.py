from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo.errors import PreconditionError
from delpezzo.moduli import aut_dimension, moduli_report
from delpezzo.weights import Candidate, normalize_weights
from oracles import is_minimal_torus


def cand(w, d):
    return Candidate(normalize_weights(w), d)


@pytest.mark.parametrize(
    "w,d,m",
    [
        ((1, 1, 1, 2), 4, 22),
        ((2, 3, 5, 9), 18, 13),
        ((3, 4, 10, 15), 30, 10),
        ((1, 1, 1, 1), 3, 20),
    ],
)
def test_monomial_dimension(w, d, m):
    assert moduli_report(cand(w, d)).m == m


def test_monomial_dimension_requires_quasismooth():
    with pytest.raises(PreconditionError):
        moduli_report(cand((2, 3, 4, 5), 13))


@pytest.mark.parametrize(
    "w,dim",
    [
        ((1, 1, 1, 1), 16),
        ((1, 1, 2, 3), 15),
        ((2, 3, 5, 9), 8),
        ((1, 1, 1, 2), 16),
    ],
)
def test_aut_dimension(w, dim):
    assert aut_dimension(normalize_weights(w)) == dim


@pytest.mark.parametrize(
    "w,d,n",
    [
        ((1, 1, 2, 3), 6, 8),
        ((2, 3, 5, 9), 18, 5),
        ((3, 3, 5, 5), 15, 2),
        ((1, 1, 1, 1), 3, 4),
        ((1, 1, 1, 2), 4, 6),
    ],
)
def test_moduli_dimension(w, d, n):
    assert moduli_report(cand(w, d)).n == n


def test_classical_triple():
    # the three anticanonically regular rows: (m, dimG, n)
    anchors = [
        ((1, 1, 1, 1), 3, (20, 16, 4)),
        ((1, 1, 1, 2), 4, (22, 16, 6)),
        ((1, 1, 2, 3), 6, (23, 15, 8)),
    ]
    for w, d, (m, g, n) in anchors:
        rep = moduli_report(cand(w, d))
        assert (rep.m, rep.dim_aut, rep.n) == (m, g, n)


@pytest.mark.parametrize(
    "w,expected",
    [
        ((5, 19, 27, 31), True),
        ((1, 1, 2, 3), False),
        ((2, 3, 5, 9), False),  # 5 = 2 + 3
        ((3, 3, 5, 5), False),  # repeated weight
    ],
)
def test_is_minimal_torus(w, expected):
    assert is_minimal_torus(normalize_weights(w)) is expected


@given(st.tuples(*[st.integers(1, 40)] * 4).filter(lambda t: gcd(*t) == 1))
@settings(max_examples=400, deadline=None)
def test_minimal_torus_iff_dim4(raw):
    w = normalize_weights(raw)
    assert is_minimal_torus(w) is (aut_dimension(w) == 4)
