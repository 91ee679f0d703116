"""Moduli bookkeeping: monomial space dimension, automorphism group, quotient.

The quasi-smooth members of degree d form a dense open subset of the span
of all degree-d monomials, so the ambient dimension m is the plain monomial
count.  The graded automorphism group G(w) sends each generator z_i to an
arbitrary weighted-homogeneous polynomial of degree w_i, so its dimension
is the sum of the four generator-degree monomial counts.  The moduli
dimension n is the degree-d piece of the Jacobian ring (Milnor and Orlik,
"Isolated singularities defined by weighted homogeneous polynomials",
Topology 9, 1970), which is m - dim G(w) exactly when the general member's
stabilizer in G(w) is finite:

* Let F be a quasi-smooth member and S = C[z0, z1, z2, z3].  By Euler's
  formula d*F = sum w_i*z_i*dF/dz_i, a common zero of the partials lies
  on the cone F = 0, which is smooth off the origin.  So the four
  partials, of degrees d - w_i, vanish together only at the origin; they
  are a regular sequence in S, and the Jacobian ring S/J_F has the Hilbert
  series P(t) = prod (1 - t^(d - w_i)) / (1 - t^(w_i)).
* The degree-d piece of J_F is the image of phi: (g_0, .., g_3) ->
  sum g_i*dF/dz_i, with g_i of degree w_i.  Its source has dimension
  sum count(w, w_i) = dim G(w), and it is the Lie algebra of G(w): phi is
  the tangent map at F of the action, z_i -> z_i + e*g_i.  Its kernel is
  the Lie algebra of the stabilizer of F.
* So [t^d] P(t) = m - rank(phi) = m - dim G(w) + dim Stab(F)
  >= m - dim G(w), with equality exactly when the stabilizer is finite.
* Expanding the numerator, [t^d] P(t) is the sum over S in {0..3} of
  (-1)^|S| * count(w, d - sum_{i in S} (d - w_i)), a negative degree
  counting 0.  The terms with |S| = 1 have degrees w_i and sum to dim G(w);
  those with |S| >= 2 have degrees at most w2 + w3 - d, so they vanish
  when w2 + w3 < d, and then n = m - dim G(w) with no further count.

The quadric (1,1,1,1) of degree 2, whose stabilizer O(4) is not finite,
has m = 10, dim G(w) = 16 and n = 0.  `tests/test_moduli.py` checks n
against the truncated Poincare series on every record at w <= 150, on
every moduli-table row and on random quasi-smooth (w, d), and m - dim G(w)
against it on every record.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvariantViolation
from .quasismooth import require_hypersurface
from .weights import Candidate, WeightSystem, count_monomials


@dataclass(frozen=True)
class ModuliReport:
    m: int  # dimension of the degree-d monomial space
    dim_aut: int  # dimension of the graded automorphism group G(w)
    n: int  # moduli dimension, [t^d] P(t); m - dim_aut when the stabilizer is finite

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
    w, d = c.weights.w, c.d
    m = count_monomials(c.weights, d)
    g = aut_dimension(c.weights)
    n = m - g  # the terms of [t^d] P(t) with |S| <= 1
    if w[2] + w[3] >= d:
        n += sum((-1) ** size * count_monomials(c.weights, d - sum(d - w[i] for i in S))
                 for size in (2, 3, 4) for S in combinations(range(4), size))
        if n < m - g:
            raise InvariantViolation(f"{c}: moduli dimension {n} < m - dim G = {m - g}")
    return ModuliReport(m=m, dim_aut=g, n=n)
