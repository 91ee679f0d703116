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
        if self.dim_aut < 4:
            raise InvariantViolation("G(w) contains the diagonal torus, dim >= 4")


def aut_dimension(w: WeightSystem) -> int:
    """dim G(w): one parameter per degree-w_i monomial, per generator."""
    return sum(count_monomials(w, wi) for wi in w)


def moduli_report(c: Candidate) -> ModuliReport:
    """m, dim G(w) and n; requires `require_hypersurface` to pass."""
    require_hypersurface(c)
    return _moduli_report(c)


def _moduli_report(c: Candidate) -> ModuliReport:
    """`moduli_report` without its precondition check, for callers that
    have made it."""
    m = count_monomials(c.weights, c.d)
    g = aut_dimension(c.weights)
    if m - g < 0:
        raise InvariantViolation(f"{c}: moduli dimension {m - g} < 0")
    return ModuliReport(m=m, dim_aut=g, n=m - g)
