from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delpezzo import catalog
from delpezzo.errors import PreconditionError
from delpezzo.klt import Certified, Unknown, gate_check
from delpezzo.quasismooth import Rejection, hypersurface_rejection, is_quasismooth
from delpezzo.records import CandidateRecord, build_record, classify
from delpezzo.weights import Candidate, WeightSystem, is_well_formed, normalize_weights


def cand(w, d):
    return Candidate(normalize_weights(w), d)


@pytest.mark.parametrize(
    "w,d,reason",
    [
        ((2, 2, 2, 3), 8, "not well-formed"),
        ((2, 3, 4, 5), 13, "X not well-formed"),
        ((1, 1, 4, 4), 8, "gate G1"),  # quasi-smooth, X and P(w) well-formed
        ((3, 3, 4, 5), 12, "gate G2"),  # the same
    ],
)
def test_build_record_checks_preconditions(w, d, reason):
    with pytest.raises(PreconditionError, match=reason):
        build_record(cand(w, d))


@pytest.mark.parametrize(
    "w,d,reason",
    [
        ((3, 2, 5, 9), 18, "not a candidate"),  # not ascending
        ((2, 3, 5, 9), 9, "not a candidate"),  # d <= w3
        ((2, 4, 6, 8), 18, "not primitive"),
        ((1, 1, 4, 4), 8, "gate G1"),
        ((3, 3, 4, 5), 12, "gate G2"),
        ((2, 2, 2, 3), 8, "P(w) not well-formed"),
        ((1, 2, 2, 5), 9, "condition I fails"),
        ((1, 2, 3, 3), 8, "condition III fails"),
        ((2, 3, 4, 5), 13, "X not well-formed"),
    ],
)
def test_classify_rejection_reasons(w, d, reason):
    rejection = classify(w, d)
    assert isinstance(rejection, Rejection)
    assert rejection.reason == reason
    assert "\n" not in str(rejection) and str(rejection).startswith(reason + ": ")


@pytest.mark.parametrize(
    "w,d,detail",
    [
        ((2, 2, 2, 3), 8, "gcd(w0, w1, w2) = 2"),
        ((1, 1, 1, 3), 5, "no monomial z3^m z_j has degree 5"),
        ((1, 2, 3, 3), 8, "z2^a z3^b z_k does only for z_k in {z1}"),
        ((2, 3, 4, 5), 13, "gcd(w0, w2) = 2 does not divide 13, so X contains the line z1 = z3 = 0"),
    ],
)
def test_rejection_names_its_witness(w, d, detail):
    """`build_record` names `classify`'s rejection: for (1,1,1,3) at degree 5,
    gate G2 comes before the condition I failure."""
    c = cand(w, d)
    assert detail in hypersurface_rejection(c).detail
    with pytest.raises(PreconditionError) as exc:
        build_record(c)
    assert str(exc.value) == f"{c}: {classify(w, d)}"


def _chain_admits(w, d) -> Candidate | None:
    """The public admission chain: WeightSystem, is_well_formed, gate_check,
    is_quasismooth."""
    ws = WeightSystem(w)
    if d <= w[3]:
        return None
    c = Candidate(ws, d)
    if not is_well_formed(ws) or gate_check(c) is not None or not is_quasismooth(ws, d):
        return None
    return c


primitive_weights = st.tuples(*[st.integers(1, 60)] * 4).map(lambda t: tuple(sorted(t))).filter(
    lambda t: gcd(*t) == 1
)
# the sporadic rows with weights <= 60 at their own index, so that admissions are common
table1_cases = st.sampled_from(
    sorted((r.weights, r.index) for r in catalog.reference_table1() if r.weights[3] <= 60)
)


@given(st.one_of(st.tuples(primitive_weights, st.integers(1, 10)), table1_cases))
@example(((2, 3, 4, 5), 1))  # quasi-smooth, X not well-formed
@example(((1, 2, 2, 3), 1))  # the same
@example(((1, 2, 3, 3), 1))  # fails conditions II and III
@settings(max_examples=400, deadline=None)
def test_classify_admits_exactly_the_public_chain(case):
    """`classify` admits what the chain does, and on every `Candidate` the
    stream builds, `build_record` returns its record or raises its rejection."""
    w, I = case
    d = sum(w) - I
    got = classify(w, d)
    c = _chain_admits(w, d)
    if c is None:
        assert isinstance(got, Rejection)
    else:
        assert isinstance(got, CandidateRecord)
    if d <= w[3]:  # the stream's weights are primitive with I >= 1: only d > w3 can fail
        return
    c = Candidate(WeightSystem(w), d)
    if isinstance(got, Rejection):
        with pytest.raises(PreconditionError) as exc:
            build_record(c)
        assert str(exc.value) == f"{c}: {got}"
    else:
        assert build_record(c) == got


# The provenances `_record` may give each verdict: a family's only to an
# uncertified member of a proven family.
PROVENANCES = {Certified: {"cascade"},
               Unknown: {"cascade", "case-analysis", "prior-work", "unknown"}}


def test_record_gives_each_verdict_only_its_provenances(enumeration_150):
    """`_record` gives a certificate "cascade", and an uncertified candidate
    its proven family's provenance or "unknown"."""
    records, _ = enumeration_150
    pairs = {(type(r.klt), r.klt_provenance) for r in records}
    assert {cls for cls, _ in pairs} == {Certified, Unknown}
    assert pairs <= {(cls, p) for cls, ps in PROVENANCES.items() for p in ps}
    for fam in catalog.reference_series() + catalog.errata_series():
        assert fam.klt_provenance in PROVENANCES[Unknown], fam.id
