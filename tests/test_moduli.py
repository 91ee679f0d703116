from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from delpezzo import catalog, serialize
from delpezzo.errors import PreconditionError
from delpezzo.moduli import aut_dimension, moduli_report
from delpezzo.quasismooth import hypersurface_rejection
from delpezzo.records import CandidateRecord, classify
from delpezzo.weights import Candidate, WeightSystem, count_monomials, normalize_weights
from oracles import is_minimal_torus, milnor_orlik_oracle

GOLDEN = Path(__file__).resolve().parent / "golden" / "records.csv"


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


@pytest.mark.parametrize(
    "w,d,triple",
    [
        ((1, 1, 1, 1), 2, (10, 16, 0)),  # the quadric: its stabilizer O(4) is not finite
        ((2, 2 * 10**9 + 1, 2 * 10**9 + 1, 4 * 10**9 + 1), 8 * 10**9 + 4, (12, 8, 4)),
    ],
    ids=["quadric", "series-k-1e9"],
)
def test_moduli_report_returns_on_every_admitted_input(w, d, triple):
    """`moduli_report` returns (m, dim G(w), n) on every input its
    precondition admits: on the quadric, gated by G1, n = [t^d] P(t) = 0
    lies above m - dim G(w) = -6; on the k = 10^9 member of
    (2,2k+1,2k+1,4k+1) it is the erratum's n = 4, in time independent of k."""
    rep = moduli_report(cand(w, d))
    assert (rep.m, rep.dim_aut, rep.n) == triple


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


def _jacobian_ring_degree_d(w, d: int) -> int:
    """[t^d] of the Milnor-Orlik polynomial: dim of the degree-d piece of S/J_F."""
    poly = milnor_orlik_oracle(w, d)
    return poly[d] if d < len(poly) else 0


def test_moduli_is_the_jacobian_ring_degree_d_piece():
    """n is the degree-d piece of the Jacobian ring, read off the
    Milnor-Orlik Poincare polynomial (proof in the `moduli` docstring), and
    on a record it is m - dim G(w) as well: on the 416 golden records, and
    on every moduli-table row, a series row at its first five members, with
    the errata's corrected n."""
    golden = serialize.csv_rows(GOLDEN.read_text())
    assert len(golden) == 416
    assert serialize.CSV_COLUMNS[16:19] == ["moduli_m", "moduli_dimG", "moduli_n"]
    for row in golden:
        w, d, (m, dim_aut, n) = row[1:5], row[5], row[16:19]
        assert _jacobian_ring_degree_d(w, d) == n == m - dim_aut, row[:6]
    families = {f.id: f for f in catalog.reference_series()}
    for check in catalog.table3_checks():
        fam = families.get(check.row.series_id)
        members = [fam.candidate_at(k) for k in range(fam.k_min, fam.k_min + 5)] if fam else [check.candidate]
        for c in members:
            assert _jacobian_ring_degree_d(c.weights.w, c.d) == moduli_report(c).n == check.expected[1], c


@given(st.tuples(*[st.integers(1, 30)] * 4).map(lambda t: tuple(sorted(t))))
@example((1, 1, 1, 1))  # the quadric, d = 2, whose stabilizer O(4) is not finite
@example((2, 3, 3, 5))  # the erratum series (2,2k+1,2k+1,4k+1) at k = 1: n = 4, printed 5
@settings(max_examples=150, deadline=None)
def test_moduli_bounds_the_jacobian_ring_degree_d_piece(w):
    """On every quasi-smooth (w, d), [t^d] P(t) = m - dim G(w) + dim Stab(F)
    is `moduli_report`'s n and at least m - dim G(w), and equal to it, and
    to the record's n, where `classify` admits (w, d)."""
    assume(gcd(*w) == 1)
    ws = WeightSystem(w)
    for d in range(w[3] + 1, sum(w)):  # 1 <= I and d > w3, as `Candidate` asks
        if hypersurface_rejection(Candidate(ws, d)) is not None:
            continue
        piece = _jacobian_ring_degree_d(w, d)
        n = count_monomials(ws, d) - aut_dimension(ws)
        assert moduli_report(Candidate(ws, d)).n == piece >= n, (w, d)
        r = classify(w, d)
        if isinstance(r, CandidateRecord):
            assert piece == n == r.moduli_n, (w, d)
