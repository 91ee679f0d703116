import importlib.util
import re
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo import catalog
from delpezzo.errors import InvariantViolation, PreconditionError
from delpezzo.topology import (
    characteristic_divisor,
    diffeo_type,
    milnor_number,
)
from delpezzo.weights import Candidate, normalize_weights
from oracles import (
    char_add,
    char_mul,
    char_sub,
    degree_sum,
    divisor_roots_oracle,
    fraction_divisor,
    milnor_oracle,
    roots_vector,
)

ONE = {1: 1}


def L(n, coeff=1):
    return {n: coeff}


def cand(w, d):
    return Candidate(normalize_weights(w), d)


def test_char_mul_relations():
    assert char_mul(L(2), L(2)) == L(2, 2)
    assert char_mul(L(4), L(6)) == L(12, 2)
    assert char_mul(L(3), L(5)) == L(15)
    assert char_mul(ONE, L(7)) == L(7)


def test_char_square_identity():
    diff = char_sub(L(3), ONE)
    assert char_mul(diff, diff) == char_add(L(3), ONE)


sparse_chars = st.dictionaries(
    st.integers(1, 60),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).filter(lambda f: f != 0),
    min_size=1,
    max_size=4,
)


@given(sparse_chars, sparse_chars)
@settings(max_examples=150, deadline=None)
def test_char_mul_commutative(a, b):
    assert char_mul(a, b) == char_mul(b, a)


@given(sparse_chars, sparse_chars, sparse_chars)
@settings(max_examples=150, deadline=None)
def test_char_mul_associative(a, b, c):
    assert char_mul(char_mul(a, b), c) == char_mul(a, char_mul(b, c))


@given(sparse_chars, sparse_chars, sparse_chars)
@settings(max_examples=60, deadline=None)
def test_char_mul_distributive(a, b, c):
    assert char_mul(a, char_add(b, c)) == char_add(char_mul(a, b), char_mul(a, c))


@pytest.mark.parametrize(
    "w,d,mu",
    [
        ((1, 1, 1, 1), 2, 1),
        ((1, 1, 1, 1), 3, 16),
        ((2, 3, 3, 5), 12, 63),
        ((2, 3, 5, 9), 18, 104),
    ],
)
def test_milnor_number(w, d, mu):
    assert milnor_number(cand(w, d)) == mu


def test_characteristic_divisor_quadric():
    assert characteristic_divisor(cand((1, 1, 1, 1), 2)) == ONE


def test_characteristic_divisor_cubic():
    div = characteristic_divisor(cand((1, 1, 1, 1), 3))
    assert div == {1: 1, 3: 5}


def test_characteristic_divisor_series_member():
    div = characteristic_divisor(cand((2, 3, 3, 5), 12))
    assert div == {1: 1, 4: 2, 6: -1, 12: 5}


@pytest.mark.parametrize(
    "w,d,b2",
    [
        ((1, 1, 1, 1), 2, 1),
        ((2, 3, 3, 5), 12, 7),
        ((2, 3, 5, 9), 18, 6),
        ((1, 1, 1, 1), 3, 6),
    ],
)
def test_second_betti_link(w, d, b2):
    assert diffeo_type(cand(w, d)).b2_link == b2


@pytest.mark.parametrize(
    "w,d,l",
    [
        ((2, 3, 5, 9), 18, 6),
        ((1, 1, 1, 1), 3, 6),
        ((1, 1, 1, 1), 2, 1),
        ((1, 2, 3, 5), 6, 0),  # the link is S^5
    ],
)
def test_diffeo_type(w, d, l):
    report = diffeo_type(cand(w, d))
    assert report.b2_link == l
    assert degree_sum(report.divisor) == report.mu


def test_diffeo_type_requires_well_formed():
    with pytest.raises(PreconditionError):
        diffeo_type(cand((2, 2, 2, 3), 8))


def test_diffeo_type_requires_quasismooth():
    with pytest.raises(PreconditionError):
        diffeo_type(cand((2, 3, 4, 5), 13))


@pytest.mark.parametrize(
    "w,d,b2",
    [
        ((2, 3, 3, 5), 12, 8),
        ((2, 3, 5, 9), 18, 7),
        # the printed table says 5 here; the eigenvalue count (and a direct
        # join computation) gives 9, recorded as a catalog erratum
        ((3, 3, 5, 5), 15, 9),
    ],
)
def test_orbifold_b2(w, d, b2):
    assert diffeo_type(cand(w, d)).b2_link + 1 == b2


@pytest.mark.parametrize(
    "w,d",
    [
        ((2, 3, 5, 9), 18),
        ((3, 4, 10, 15), 30),
        ((5, 13, 19, 35), 70),
        ((13, 14, 19, 29), 71),
        ((11, 49, 69, 128), 256),
        ((3, 3, 5, 5), 15),
    ],
)
def test_divisor_against_roots_oracle(w, d):
    c = cand(w, d)
    div = characteristic_divisor(c)
    order = lcm(*(c.d // gcd(c.d, wi) for wi in c.weights.w))
    assert roots_vector(div, order) == divisor_roots_oracle(c)
    oracle = divisor_roots_oracle(c)
    assert oracle[0] == diffeo_type(c).b2_link  # multiplicity of the root 1
    assert sum(oracle) == milnor_number(c)  # total multiset size


def test_unit_coefficient_and_integrality():
    for w, d in [((2, 3, 5, 9), 18), ((9, 15, 23, 23), 69), ((7, 26, 39, 55), 117)]:
        div = characteristic_divisor(cand(w, d))
        assert div[1] == 1
        assert all(type(v) is int for v in div.values())


def test_degree_identity():
    for w, d in [((2, 3, 4, 7), 14), ((5, 6, 8, 9), 24), ((6, 9, 10, 13), 36)]:
        c = cand(w, d)
        assert degree_sum(characteristic_divisor(c)) == milnor_number(c)


_families = catalog.reference_series() + catalog.errata_series()
catalog_candidates = st.one_of(
    st.sampled_from([row.candidate() for row in catalog.reference_table1()]),
    st.builds(
        lambda fam, k: fam.candidate_at(fam.k_min + k),
        st.sampled_from(_families),
        st.integers(0, 40),
    ),
)


@given(catalog_candidates)
@settings(max_examples=200, deadline=None)
def test_integer_divisor_matches_fraction_fold(c):
    div = characteristic_divisor(c)
    assert div == fraction_divisor(c)
    assert all(type(v) is int for v in div.values())
    assert list(div) == sorted(div)
    assert milnor_number(c) == milnor_oracle(c.weights.w, c.d)


@given(st.lists(st.integers(1, 30), min_size=4, max_size=4), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_integer_divisor_checks_match_fraction_fold(raw, index):
    """On any candidate, quasi-smooth or not, the integer expansion raises
    exactly when the Fraction fold is not integral or has unit coefficient
    other than 1, and equals it otherwise."""
    w = sorted(raw)
    assume(gcd(*w) == 1 and sum(w) - index > w[3])
    c = cand(w, sum(w) - index)
    expected = fraction_divisor(c)
    if all(v.denominator == 1 for v in expected.values()) and expected.get(1) == 1:
        assert characteristic_divisor(c) == expected
    else:
        with pytest.raises(InvariantViolation):
            characteristic_divisor(c)
    mu = milnor_oracle(w, c.d)
    if mu.denominator == 1 and mu > 0:
        assert milnor_number(c) == mu
    else:
        with pytest.raises(InvariantViolation):
            milnor_number(c)


@pytest.mark.parametrize("check, w, d, text", [
    (characteristic_divisor, (7, 15, 19, 32), 70, "characteristic divisor coefficient -1/3 of L14 not integral"),
    (milnor_number, (2, 2, 3, 5), 6, "Milnor number 4/5 is not a positive integer"),
])
def test_non_integral_values_are_named_in_lowest_terms(check, w, d, text):
    """A value that is not integral is named as the reduced fraction it is."""
    with pytest.raises(InvariantViolation, match=f"^{re.escape(str(cand(w, d)))}: {text}$"):
        check(cand(w, d))


def test_b2_errata_agree_with_milnor_algebra_spectra(capsys):
    """`scripts/verify_b2_errata.py` re-derives every b2 erratum, and a
    control row, from the monodromy spectrum of an explicit member's Milnor
    algebra (sympy's Groebner basis), without the divisor calculus."""
    pytest.importorskip("sympy")
    path = Path(__file__).resolve().parents[1] / "scripts" / "verify_b2_errata.py"
    spec = importlib.util.spec_from_file_location("verify_b2_errata", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert set(catalog.b2_errata()) <= {(w, d) for w, d, _, _ in script.MEMBERS}
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.endswith("-> agree") for line in lines)
