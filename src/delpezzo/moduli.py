"""Moduli bookkeeping: monomial space dimension, automorphism group, quotient.

The quasi-smooth members of degree d form a dense open subset of the span
of all degree-d monomials, so the ambient dimension m is the plain monomial
count.  The graded automorphism group G(w) sends each generator z_i to an
arbitrary weighted-homogeneous polynomial of degree w_i, so its dimension
is the sum of the four generator-degree monomial counts.  The moduli
dimension is the difference n = m - dim G(w).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .quasismooth import require_hypersurface
from .weights import Candidate, WeightSystem, count_monomials


@dataclass(frozen=True)
class ModuliReport:
    m: int  # dimension of the degree-d monomial space
    dim_aut: int  # dimension of the graded automorphism group G(w)
    n: int  # moduli dimension, m - dim_aut

    def __post_init__(self):
        if self.n != self.m - self.dim_aut:
            raise InvariantViolation("moduli dimension is not m - dim G")
        if self.dim_aut < 4:
            raise InvariantViolation("G(w) contains the diagonal torus, dim >= 4")


def monomial_dimension(c: Candidate) -> int:
    """Number of degree-d monomials; requires `require_hypersurface` to pass."""
    require_hypersurface(c)
    return count_monomials(c.weights, c.d)


def aut_dimension(w: WeightSystem) -> int:
    """dim G(w): one parameter per degree-w_i monomial, per generator."""
    return sum(count_monomials(w, wi) for wi in w)


def moduli_report(c: Candidate) -> ModuliReport:
    """m, dim G(w) and n; requires `require_hypersurface` to pass."""
    return _moduli_report(c, monomial_dimension(c))


def _moduli_report(c: Candidate, m: int) -> ModuliReport:
    """`moduli_report` given m, for callers that have made its check."""
    g = aut_dimension(c.weights)
    if m - g < 0:
        raise InvariantViolation(f"{c}: moduli dimension {m - g} < 0")
    return ModuliReport(m=m, dim_aut=g, n=m - g)


def is_minimal_torus(w: WeightSystem) -> bool:
    """True iff the automorphism group is only the diagonal torus.

    Holds exactly when no w_i (i >= 1) is a non-negative integer combination
    of the earlier weights, i.e. no degree-w_i monomial in z_0..z_{i-1}
    exists.  Equivalent to aut_dimension(w) == 4, and kept as an
    independent check of it: the `_representable` recursion deliberately
    does not go through `count_monomials`, so the two cannot share a bug.
    """
    for i in range(1, 4):
        if _representable(w.w[:i], w[i]):
            return False
    return True


def _representable(weights: tuple[int, ...], target: int) -> bool:
    if not weights:
        return target == 0
    head, tail = weights[0], weights[1:]
    return any(
        _representable(tail, target - a * head) for a in range(target // head + 1)
    )
