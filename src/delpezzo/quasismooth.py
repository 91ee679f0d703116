"""Quasi-smoothness of the general degree-d hypersurface in P(w).

`is_quasismooth` checks three arithmetic conditions on (w, d):

  I.   each variable z_i admits a monomial z_i^{m_i} z_j of degree d,
  II.  each pair with gcd(w_i, w_j) > 1 admits a monomial z_i^a z_j^b,
  III. each pair without a monomial z_i^a z_j^b admits monomials
       z_i^a z_j^b z_k and z_i^c z_j^e z_l with k != l, both outside {i, j}.

I and III together are Iano-Fletcher's criterion for the general member
to be quasi-smooth, i.e. to have an affine cone smooth away from the
origin (Iano-Fletcher, "Working with weighted complete intersections",
LMS LN 281, 2000, Thm 8.1).  II is not part of it: it says that X is
well-formed, i.e. contains no singular line of P(w) (ibid. section 6).
III is the two-witness form; `_failing_pair_III` proves that the
one-witness reading follows from I.

`hypersurface_rejection` is the one precondition check of every invariant:
P(w) well-formed, then I, III and II, each failure reported as a
`Rejection` that names its variable, pair or triple.

The predicates unpack the plain int tuple `w.w` once and the private scans
index it directly.  Condition I short-circuits: it stops at the first
variable without a partner, so `is_quasismooth` rejects most inputs
before it scans a single pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .errors import PreconditionError
from .weights import Candidate, WeightSystem, is_well_formed, pair_has_monomial

_PAIRS = tuple(combinations(range(4), 2))
_TRIPLES = tuple(combinations(range(4), 3))


@dataclass(frozen=True)
class Rejection:
    """Why a (w, d) is not admitted: a short reason and a one-line detail."""

    reason: str
    detail: str

    def __str__(self) -> str:
        return f"{self.reason}: {self.detail}"


@dataclass(frozen=True)
class ConditionIWitness:
    """Minimal exponents m_i and partners j(i) with m_i*w_i + w_{j(i)} = d."""

    m: tuple[int, int, int, int]
    j: tuple[int, int, int, int]

    def check(self, w: WeightSystem, d: int) -> bool:
        return all(self.m[i] * w[i] + w[self.j[i]] == d for i in range(4))


def condition_I(w: WeightSystem, d: int) -> ConditionIWitness | None:
    """Minimal witness of condition I, or None if some variable has no monomial.

    For each i the witness takes the smallest m_i >= 1 with
    m_i*w_i + w_j = d for some j, ties broken by the smallest j.
    """
    t = w.w
    partners = []
    for i in range(4):
        p = _partner(t, d, i)
        if p is None:
            return None
        partners.append(p)
    m, j = zip(*partners)
    return ConditionIWitness(m, j)


def _partner(w: tuple[int, ...], d: int, i: int) -> tuple[int, int] | None:
    """Smallest (m, j) with m >= 1 and m*w_i + w_j = d, ties to the smallest j."""
    wi = w[i]
    best = None
    for j in range(4):
        r = d - w[j]
        if r >= wi and r % wi == 0:
            m = r // wi
            if best is None or m < best[0]:
                best = (m, j)
    return best


def _failing_pair_II(w: tuple[int, ...], d: int) -> tuple[int, int] | None:
    """The first pair (i, j) that condition II rejects, or None.

    Condition II asks every pair with non-coprime weights to support a pure
    pair monomial z_i^a z_j^b of degree d.
    """
    for i, j in _PAIRS:
        if gcd(w[i], w[j]) > 1 and not pair_has_monomial(w[i], w[j], d):
            return i, j
    return None


def _pair_witness_extras(w: tuple[int, ...], d: int, i: int, j: int) -> set[int]:
    """Indices k outside {i,j} with a monomial z_i^a z_j^b z_k of degree d."""
    extras = set()
    for k in range(4):
        if k == i or k == j:
            continue
        if pair_has_monomial(w[i], w[j], d - w[k]):
            extras.add(k)
    return extras


def _failing_pair_III(w: tuple[int, ...], d: int) -> tuple[int, int] | None:
    """The first pair (i, j) that condition III rejects, or None.

    Condition III asks every pair without a pure monomial to have witnesses
    for two other variables.  The one-witness reading ({k, l} != {i, j}
    with k = l allowed) follows from condition I, so it never rejects
    anything I accepts.  Let the pair (i, j) have no monomial z_i^a z_j^b
    of degree d.  Condition I gives z_i^{m_i} z_{j(i)} of degree d; j(i)
    in {i, j} would make it a pure pair monomial, so j(i) = k lies outside
    {i, j}, and the same monomial is the witness z_i^{m_i} z_j^0 z_k.
    Hence j(i) and j(j) are both in `_pair_witness_extras`, and a single
    witness always exists.  What III checks is that the extras hold two
    distinct variables.
    """
    for i, j in _PAIRS:
        if not pair_has_monomial(w[i], w[j], d) and len(_pair_witness_extras(w, d, i, j)) < 2:
            return i, j
    return None


def is_quasismooth(w: WeightSystem, d: int) -> bool:
    """Quasi-smooth (I and III) and X well-formed (II).

    The enumeration admits exactly this conjunction on well-formed P(w);
    `hypersurface_rejection` tells the three apart.
    """
    t = w.w
    for i in range(4):
        if _partner(t, d, i) is None:
            return False
    return _failing_pair_II(t, d) is None and _failing_pair_III(t, d) is None


def hypersurface_rejection(c: Candidate) -> Rejection | None:
    """The first failing precondition of `c`, or None if it has none.

    In order: P(w) well-formed (no triple of weights shares a factor),
    condition I, condition III, and condition II, reported as "X not
    well-formed".  Each condition runs once, as the search for its failing
    variable or pair that `is_quasismooth` also uses; the failing triple
    is looked up only when P(w) is not well-formed.
    """
    w, d = c.weights.w, c.d
    if not is_well_formed(c.weights):
        for a, b, e in _TRIPLES:
            g = gcd(w[a], w[b], w[e])
            if g > 1:
                return Rejection("P(w) not well-formed", f"gcd(w{a}, w{b}, w{e}) = {g}")
    for i in range(4):
        if _partner(w, d, i) is None:
            return Rejection("condition I fails", f"no monomial z{i}^m z_j has degree {d}")
    pair = _failing_pair_III(w, d)
    if pair is not None:
        i, j = pair
        found = ", ".join(f"z{k}" for k in sorted(_pair_witness_extras(w, d, i, j)))
        return Rejection("condition III fails", f"no z{i}^a z{j}^b has degree {d}, and "
                         f"z{i}^a z{j}^b z_k does only for z_k in {{{found}}}; two are needed")
    pair = _failing_pair_II(w, d)
    if pair is not None:
        i, j = pair
        k, l = (x for x in range(4) if x not in pair)
        g = gcd(w[i], w[j])
        why = f"does not divide {d}" if d % g else f"> 1 and no z{i}^a z{j}^b has degree {d}"
        return Rejection("X not well-formed", f"gcd(w{i}, w{j}) = {g} {why}, so X contains "
                         f"the line z{k} = z{l} = 0")
    return None


def require_hypersurface(c: Candidate) -> None:
    """Raise PreconditionError naming the first failing precondition of `c`.

    The one check behind every invariant that needs a quasi-smooth,
    well-formed hypersurface in a well-formed P(w).
    """
    rejection = hypersurface_rejection(c)
    if rejection is not None:
        raise PreconditionError(f"{c}: {rejection}")
