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
III is the two-witness form; `condition_III` proves that the one-witness
reading follows from I.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .weights import WeightSystem, pair_has_monomial


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
    ms = []
    js = []
    for i in range(4):
        best = None
        for j in range(4):
            r = d - w[j]
            if r >= w[i] and r % w[i] == 0:
                m = r // w[i]
                if best is None or m < best[0]:
                    best = (m, j)
        if best is None:
            return None
        ms.append(best[0])
        js.append(best[1])
    return ConditionIWitness(tuple(ms), tuple(js))


def condition_II(w: WeightSystem, d: int) -> bool:
    """Every pair with non-coprime weights must support a pure pair monomial."""
    for i in range(4):
        for j in range(i + 1, 4):
            if gcd(w[i], w[j]) > 1 and not pair_has_monomial(w[i], w[j], d):
                return False
    return True


def _pair_witness_extras(w: WeightSystem, d: int, i: int, j: int) -> set[int]:
    """Indices k outside {i,j} with a monomial z_i^a z_j^b z_k of degree d."""
    extras = set()
    for k in range(4):
        if k == i or k == j:
            continue
        if pair_has_monomial(w[i], w[j], d - w[k]):
            extras.add(k)
    return extras


def condition_III(w: WeightSystem, d: int) -> bool:
    """Every pair without a pure monomial has witnesses for two other variables.

    The one-witness reading ({k, l} != {i, j} with k = l allowed) follows
    from condition I, so it never rejects anything I accepts.  Let the
    pair (i, j) have no monomial z_i^a z_j^b of degree d.  Condition I
    gives z_i^{m_i} z_{j(i)} of degree d; j(i) in {i, j} would make it a
    pure pair monomial, so j(i) = k lies outside {i, j}, and the same
    monomial is the witness z_i^{m_i} z_j^0 z_k.  Hence j(i) and j(j) are
    both in `_pair_witness_extras`, and a single witness always exists.
    What III checks is that the extras hold two distinct variables.
    """
    for i in range(4):
        for j in range(i + 1, 4):
            if not pair_has_monomial(w[i], w[j], d) and len(_pair_witness_extras(w, d, i, j)) < 2:
                return False
    return True


def is_quasismooth(w: WeightSystem, d: int) -> bool:
    """Conjunction of conditions I, II, III for the general member."""
    return condition_I(w, d) is not None and condition_II(w, d) and condition_III(w, d)
