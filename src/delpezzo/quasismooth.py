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

One private pass, `_failure`, decides the three conditions in the order
I, III, II and names where the first one fails.  It finds each variable's
minimal partner j(i) once and lists the "bare" pairs, those without a
monomial z_i^a z_j^b, once; III reads the partners of a bare pair, and II
is a bare pair with non-coprime weights.  Its docstring proves that the
partners are III's witnesses.  `is_quasismooth` and
`hypersurface_rejection` are the two readings of that pass.

`hypersurface_rejection` is the one precondition check of every invariant:
P(w) well-formed, then I, III and II, each failure reported as a
`Rejection` that names its variable, pair or triple.

The pass indexes the plain int tuple `w.w` directly.  Condition I
short-circuits: it stops at the first variable without a partner, so most
inputs are rejected before a single pair is tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .errors import PreconditionError
from .weights import Candidate, WeightSystem, pair_has_monomial

_PAIRS = tuple(combinations(range(4), 2))
_TRIPLES = tuple(combinations(range(4), 3))


@dataclass(frozen=True)
class Rejection:
    """Why a (w, d) is not admitted: a short reason and a one-line detail."""

    reason: str
    detail: str

    def __str__(self) -> str:
        return f"{self.reason}: {self.detail}"


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


def _failure(w: tuple[int, ...], d: int) -> tuple[str, int | tuple[int, ...]] | None:
    """The first condition that fails, in the order I, III, II, and where.

    Returns ("I", i) for a variable without a partner, ("III", (i, j, k))
    for a pair whose only witness is z_k, ("II", (i, j)) for a pair that
    condition II rejects, or None if all three hold.

    Condition I gives each z_i its minimal partner, z_i^{m_i} z_{j(i)} of
    degree d.  Call a pair (i, j) bare if no z_i^a z_j^b has degree d.
    On a bare pair j(i) lies outside {i, j}, since otherwise the partner
    monomial would be a pure pair monomial; so z_i^{m_i} z_j^0 z_{j(i)} is
    a witness z_i^a z_j^b z_k of condition III with k = j(i), and likewise
    for j(j).  Hence a bare pair with j(i) != j(j) has two distinct
    witnesses and passes III.  If j(i) = j(j) = k, the only other variable
    outside the pair is the fourth one, l = 6 - i - j - k, and the pair
    passes exactly when some z_i^a z_j^b z_l has degree d; when it fails,
    z_k is its only witness.  (So the one-witness reading of III follows
    from I and never rejects anything.)  Condition II asks every pair with
    gcd(w_i, w_j) > 1 to support a pure pair monomial: it fails exactly on
    a bare pair with non-coprime weights.  Each pair's monomials are tested
    at most twice: once to decide whether it is bare, and once for z_l.
    """
    partner = []
    for i in range(4):
        p = _partner(w, d, i)
        if p is None:
            return "I", i
        partner.append(p[1])
    bare = [(i, j) for i, j in _PAIRS if not pair_has_monomial(w[i], w[j], d)]
    for i, j in bare:
        k = partner[i]
        if k == partner[j] and not pair_has_monomial(w[i], w[j], d - w[6 - i - j - k]):
            return "III", (i, j, k)
    for i, j in bare:
        if gcd(w[i], w[j]) > 1:
            return "II", (i, j)
    return None


def is_quasismooth(w: WeightSystem, d: int) -> bool:
    """Quasi-smooth (I and III) and X well-formed (II).

    The enumeration admits exactly this conjunction on well-formed P(w);
    `hypersurface_rejection` tells the three apart.
    """
    return _failure(w.w, d) is None


def hypersurface_rejection(c: Candidate) -> Rejection | None:
    """The first failing precondition of `c`, or None if it has none.

    In order: P(w) well-formed (no triple of weights shares a factor),
    condition I, condition III, and condition II, reported as "X not
    well-formed".  One scan over the triples names the first one that
    shares a factor; the three conditions are one `_failure` pass, the one
    `is_quasismooth` also reads.
    """
    w, d = c.weights.w, c.d
    for a, b, e in _TRIPLES:
        g = gcd(w[a], w[b], w[e])
        if g > 1:
            return Rejection("P(w) not well-formed", f"gcd(w{a}, w{b}, w{e}) = {g}")
    failure = _failure(w, d)
    if failure is None:
        return None
    condition, at = failure
    if condition == "I":
        return Rejection("condition I fails", f"no monomial z{at}^m z_j has degree {d}")
    i, j = at[:2]
    if condition == "III":
        return Rejection("condition III fails", f"no z{i}^a z{j}^b has degree {d}, and "
                         f"z{i}^a z{j}^b z_k does only for z_k in {{z{at[2]}}}; two are needed")
    k, l = (x for x in range(4) if x not in at)
    return Rejection("X not well-formed", f"gcd(w{i}, w{j}) = {gcd(w[i], w[j])} does not divide {d}, "
                     f"so X contains the line z{k} = z{l} = 0")


def require_hypersurface(c: Candidate) -> None:
    """Raise PreconditionError naming the first failing precondition of `c`.

    The one check behind every invariant that needs a quasi-smooth,
    well-formed hypersurface in a well-formed P(w).
    """
    rejection = hypersurface_rejection(c)
    if rejection is not None:
        raise PreconditionError(f"{c}: {rejection}")
