from fractions import Fraction

import pytest

from delpezzo.errors import PreconditionError
from delpezzo.klt import (
    Certified,
    NotKltGate,
    Unknown,
    _cascade,
    certify_KE,
    gate_check,
)
from delpezzo.weights import Candidate, normalize_weights, pair_has_monomial
from oracles import pair_solvable_oracle


def cand(w, d):
    return Candidate(normalize_weights(w), d)


def test_gate_51_fires_for_small_w0():
    # (1,1,k,k) of degree 2k has index 2 and 2I = 4 >= 3*w0
    for k in (2, 3, 7):
        assert gate_check(cand((1, 1, k, k), 2 * k)) == "G1"
    # on the boundary 2I = 3*w0: (2,3,5,7) of degree 14 has index 3 (kills `>` for `>=`)
    assert gate_check(cand((2, 3, 5, 7), 14)) == "G1"


def test_gate_52_fires_for_pair_sum():
    # (I-n, I+n, w, w+n) instance with 3n < I so that gate G1 stays silent
    c = cand((3, 5, 5, 6), 15)  # I = 4, 2I = 8 = 3 + 5, and 8 < 9
    assert c.I == 4
    assert gate_check(c) == "G2"
    assert gate_check(cand((3, 5, 6, 7), 17)) == "G2"  # w1 < w2 (kills w[2] for w[1])


def test_gate_order_51_before_52():
    # (1,3,5,6) at index 2 satisfies both 2I >= 3w0 and 2I = w0+w1;
    # the first check wins
    c = cand((1, 3, 5, 6), 13)
    assert c.I == 2
    assert 2 * c.I >= 3 * c.weights[0] and 2 * c.I == c.weights[0] + c.weights[1]
    assert gate_check(c) == "G1"


def test_no_gate():
    assert gate_check(cand((2, 3, 5, 9), 18)) is None


def test_cascade_takes_each_rule_exactly_when_it_holds():
    """R1, R2, R3 in order, each taken exactly when its inequality and its
    side condition hold: R2 needs some z2^a z3^b of degree d (the line
    z0=z1=0 is free), R3 needs w3 | d (the vertex (0,0,0,1) is free).

    The cascade is arithmetic in (w, d), so it is called on each case past
    gates and quasi-smoothness alike.  (3,5,7,11) at 25 takes R2 with w3
    not dividing d.  (3,4,6,6) at 18 sits on R1's bound and (2,2,3,3) at 9
    on R3's, so neither rule may take it.  In the last two cases a side
    condition alone decides: (13,14,19,29) at 71 meets R2's and R3's
    inequalities with neither point free, and (2,3,3,5) at 12 meets R3's
    with 5 not dividing 12.  Kills `r2-ignores-line-23` and
    `r3-ignores-vertex-3`."""
    cases = [  # (w, d, line z0=z1=0 free, vertex (0,0,0,1) free)
        ((2, 3, 5, 9), 18, True, True),
        ((9, 11, 12, 17), 45, False, False),
        ((1, 1, 1, 1), 3, True, True),
        ((1, 2, 3, 5), 10, True, True),
        ((5, 7, 11, 13), 33, True, False),
        ((5, 14, 17, 21), 56, False, False),
        ((3, 5, 7, 11), 25, True, False),
        ((3, 4, 6, 6), 18, True, True),
        ((2, 2, 3, 3), 9, True, True),
        ((13, 14, 19, 29), 71, False, False),
        ((2, 3, 3, 5), 12, True, False),
    ]
    taken = []
    for w, d, line_free, vertex_free in cases:
        assert pair_solvable_oracle(w[2], w[3], d) is line_free
        assert (d % w[3] == 0) is vertex_free
        c = cand(w, d)
        lhs = 2 * c.I * d
        rules = [Certified(rule, lhs, 3 * w[0] * w[i]) for rule, i in (("R1", 1), ("R2", 2), ("R3", 3))
                 if lhs < 3 * w[0] * w[i]]
        side = {"R1": True, "R2": line_free, "R3": vertex_free}
        verdict = _cascade(c)
        assert verdict == next((v for v in rules if side[v.rule]), Unknown()), (w, d)
        taken.append(getattr(verdict, "rule", None))
    assert taken == ["R3", None, None, None, None, "R1", "R2", "R2", None, None, None]


@pytest.mark.parametrize(
    "w,d,expected",
    [
        ((2, 3, 5, 9), 18, True),
        ((9, 11, 12, 17), 45, False),
        ((1, 1, 1, 1), 3, True),
    ],
)
def test_line_23_free(w, d, expected):
    # R2's side condition as `_cascade` states it, against a scan for z2^a z3^b
    ws = normalize_weights(w)
    assert pair_has_monomial(ws[2], ws[3], d) is expected
    assert pair_solvable_oracle(ws[2], ws[3], d) is expected


@pytest.mark.parametrize(
    "w,d,expected",
    [
        ((2, 3, 5, 9), 18, True),
        ((1, 2, 3, 5), 10, True),
        ((5, 7, 11, 13), 33, False),
    ],
)
def test_vertex_3_free(w, d, expected):
    # R3's side condition as `_cascade` states it, against a scan for z3^k
    ws = normalize_weights(w)
    assert (d % ws[3] == 0) is expected
    assert any(k * ws[3] == d for k in range(d // ws[3] + 1)) is expected


def test_certificate_must_be_strict():
    # kills `<=` for `<` in the check
    with pytest.raises(ValueError, match="not strict: 54 < 54 fails"):
        Certified("R3", 54, 54)


def test_certify_R3_after_R1_R2_fail():
    verdict = certify_KE(cand((2, 3, 5, 9), 18))
    assert verdict == Certified("R3", 36, 54)


def test_certify_unknown():
    assert certify_KE(cand((1, 2, 3, 5), 10)) == Unknown()


def test_certify_near_equality_rows():
    # 280 < 285 certifies; 630 < 627 fails, leaving the verdict open
    assert certify_KE(cand((5, 13, 19, 35), 70)) == Certified("R2", 280, 285)
    assert certify_KE(cand((11, 13, 19, 25), 63)) == Unknown()


def test_certify_gated():
    verdict = certify_KE(cand((1, 1, 4, 4), 8))
    assert verdict == NotKltGate("G1")


def test_certify_requires_quasismooth():
    with pytest.raises(PreconditionError):
        certify_KE(cand((2, 3, 4, 5), 13))


def test_boundary_equality_never_certifies():
    # the series (4,2k+1,4k+2,6k+1) sits exactly on 2Id = 3*w0*w2 for k >= 2;
    # strictness keeps every member unknown
    for k in range(1, 21):
        w = tuple(sorted((4, 2 * k + 1, 4 * k + 2, 6 * k + 1)))
        d = 12 * k + 6
        c = cand(w, d)
        assert c.I == 2
        verdict = certify_KE(c)
        assert verdict == Unknown(), (k, verdict)
        if k >= 2:
            assert 2 * c.I * d == 3 * c.weights[0] * c.weights[2]
            assert pair_solvable_oracle(c.weights[2], c.weights[3], d)


def test_cascade_certifies_two_series_for_all_k():
    for k in range(1, 30):
        c1 = cand((3, 3 * k + 1, 6 * k + 1, 9 * k + 3), 18 * k + 6)
        assert isinstance(certify_KE(c1), Certified)
        c2 = cand((6, 6 * k + 5, 12 * k + 8, 18 * k + 15), 36 * k + 30)
        assert isinstance(certify_KE(c2), Certified)


def test_rule_order_does_not_change_outcome():
    # evaluating the three inequalities independently must agree with the
    # cascade's certified-vs-unknown split
    rows = [
        ((2, 3, 5, 9), 18),
        ((1, 2, 3, 5), 10),
        ((5, 13, 19, 35), 70),
        ((13, 35, 81, 128), 256),
        ((7, 10, 15, 19), 45),
    ]
    for w, d in rows:
        c = cand(w, d)
        if gate_check(c) is not None:
            continue
        lhs = 2 * c.I * c.d
        ws = c.weights
        rules = [
            lhs < 3 * ws[0] * ws[1],
            pair_solvable_oracle(ws[2], ws[3], d) and lhs < 3 * ws[0] * ws[2],
            d % ws[3] == 0 and lhs < 3 * ws[0] * ws[3],
        ]
        verdict = certify_KE(c)
        assert isinstance(verdict, Certified) == any(rules)


def test_scaling_monotonicity_vs_local_bound():
    # a cascade certificate implies the local bound alpha*ell*d*I < t0*t1*t2
    # with alpha=2/3, ell=1 and the rule's weight triple: R1 folds in the
    # generic bound (w0,w1,w3), R2 the line-free bound (w0,w2,w3), R3 the
    # vertex-free bound (w1,w2,w3)
    rule_triples = {"R1": (0, 1, 3), "R2": (0, 2, 3), "R3": (1, 2, 3)}
    for w, d in [((2, 3, 5, 9), 18), ((5, 13, 19, 35), 70), ((9, 15, 17, 20), 60)]:
        c = cand(w, d)
        verdict = certify_KE(c)
        assert isinstance(verdict, Certified)
        t0, t1, t2 = (c.weights[i] for i in rule_triples[verdict.rule])
        assert Fraction(2, 3) * 1 * c.d * c.I < t0 * t1 * t2


def test_local_bound_examples():
    # alpha*ell*d*I < t0*t1*t2, strict: the (3,3k+1,6k+1,9k+3) singular-point
    # computation at k=1 (alpha=5/7, ell=7, d=24, I=2, triple (3,7,12)) holds;
    # it fails on equality (alpha=1, all ones) and at alpha=2/3, d=3 (2 > 1)
    assert Fraction(5, 7) * 7 * 24 * 2 < 3 * 7 * 12
    assert not Fraction(1) * 1 * 1 * 1 < 1 * 1 * 1
    assert not Fraction(2, 3) * 1 * 3 * 1 < 1 * 1 * 1


def test_local_bound_series_family():
    # alpha=5/7, ell=6k+1, d=18k+6, I=2, triple (3, 6k+1, 9k+3)
    for k in range(1, 51):
        assert Fraction(5, 7) * (6 * k + 1) * (18 * k + 6) * 2 < 3 * (6 * k + 1) * (9 * k + 3)
