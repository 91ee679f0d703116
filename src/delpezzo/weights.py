"""Weight systems, weighted monomial counting, degree/index bookkeeping.

A weight system is an ascending primitive 4-tuple of positive integers
(w0, w1, w2, w3).  A degree-d hypersurface in the corresponding weighted
projective 3-space has Fano index I = w0+w1+w2+w3 - d.  All arithmetic in
this module is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import NonPrimitiveWeights


@dataclass(frozen=True, order=True)
class WeightSystem:
    """Four ascending positive integer weights with gcd 1."""

    w: tuple[int, int, int, int]

    def __post_init__(self):
        w = self.w
        if len(w) != 4:
            raise ValueError(f"need exactly four weights, got {w!r}")
        if not 0 < w[0] <= w[1] <= w[2] <= w[3]:
            problem = "positive" if min(w) < 1 else "ascending"
            raise ValueError(f"weights must be {problem}, got {w!r}")
        g = gcd(*w)
        if g != 1:
            raise NonPrimitiveWeights(f"weights {w!r} have common factor {g}")

    def __getitem__(self, i: int) -> int:
        return self.w[i]

    def __iter__(self):
        return iter(self.w)

    def __str__(self) -> str:
        return "({},{},{},{})".format(*self.w)


def normalize_weights(raw) -> WeightSystem:
    """Sort a 4-tuple of positive integers into a canonical WeightSystem.

    `WeightSystem` rejects a tuple that is not four positive weights (sorted,
    a non-positive weight comes first), and a non-primitive one rather than
    rescaling it, so that caller bugs are not silently masked.
    """
    return WeightSystem(tuple(sorted(int(x) for x in raw)))


@dataclass(frozen=True)
class Candidate:
    """A degree-d hypersurface family in P(w) with its Fano index I = |w| - d.

    Degrees equal to a weight (linear cones) are excluded: d > w3 is
    required, which rules out every d = w_i since the weights ascend, and
    makes d positive, as w3 >= 1.  I is computed once; it takes no part in
    equality, hashing or repr.
    """

    weights: WeightSystem
    d: int
    I: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w, d = self.weights.w, self.d
        object.__setattr__(self, "I", sum(w) - d)
        if self.I < 1:
            raise ValueError(f"index {self.I} < 1 for weights {self.weights} degree {d}")
        if d <= w[3]:
            raise ValueError(
                f"degree {d} <= largest weight {w[3]}: linear cone "
                f"or empty monomial space, excluded"
            )

    def key(self) -> tuple:
        """Canonical sort key: index ascending, then weights, then degree."""
        return (self.I, self.weights.w, self.d)

    def __str__(self) -> str:
        return f"{self.weights} d={self.d} I={self.I}"


def count_monomials(w: WeightSystem, d: int) -> int:
    """The number of monomials z0^a0 z1^a1 z2^a2 z3^a3 of weighted degree d.

    For fixed (a3, a2) with remainder r2, the monomials are the a1 in
    [0, r2 // w1] with a1*w1 = r2 (mod w0).  With g = gcd(w0, w1) and
    q = w0/g, there are none unless g | r2, and then they are the a1 =
    (r2/g) * (w1/g)^-1 (mod q): one residue class mod q, whose smallest
    member a < q lies in the range iff r2 // w1 >= a.  Its members in the
    range number (r2 // w1 - a) // q + 1, which is 0 when r2 // w1 < a.
    """
    if d < 0:
        return 0
    w0, w1, w2, w3 = w.w
    g = gcd(w0, w1)
    q = w0 // g
    inv = pow(w1 // g, -1, q)
    n = 0
    for a3 in range(d // w3 + 1):
        r3 = d - a3 * w3
        for a2 in range(r3 // w2 + 1):
            r2 = r3 - a2 * w2
            if r2 % g == 0:
                n += (r2 // w1 - r2 // g * inv % q) // q + 1
    return n


def is_well_formed(w: WeightSystem) -> bool:
    """True iff every triple of weights is coprime (no codimension-1 singularities)."""
    a, b, c, e = w.w
    return (
        gcd(a, b, c) == 1
        and gcd(a, b, e) == 1
        and gcd(a, c, e) == 1
        and gcd(b, c, e) == 1
    )


def pair_has_monomial(wi: int, wj: int, d: int) -> bool:
    """Does a*wi + b*wj = d have a solution in non-negative integers?

    The residue-class argument of `count_monomials`: with g = gcd(wi, wj)
    and q = wi/g there is none unless g | d, and then the b that work are
    b = (d/g) * (wj/g)^-1 (mod q), whose smallest member b0 gives one iff
    b0*wj <= d.
    """
    if d < 0:
        return False
    g = gcd(wi, wj)
    if d % g:
        return False
    q = wi // g
    b0 = d // g * pow(wj // g, -1, q) % q
    return b0 * wj <= d
