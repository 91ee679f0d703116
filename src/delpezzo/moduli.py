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
  counting 0.  The terms with |S| = 1 have degrees w_i and sum to dim G(w).
  Those with |S| = 2 have degrees w_a + w_b - d, at most w2 + w3 - d, so
  they vanish when w2 + w3 < d.  Those with |S| >= 3 always vanish: the
  |S| = 3 terms have degrees w_a + w_b + w_c - 2d <= w1 + w2 + w3 - 2d,
  and the |S| = 4 term has degree (w1 + w2 + w3 - 2d) + (w0 - d), and
  w1 + w2 + w3 < 2d (below) while w0 < d.  So n = m - dim G(w) plus the
  six pair counts, which are never negative: n >= m - dim G(w) holds on
  every input, with no check left to make.
* w1 + w2 + w3 < 2d on every input `require_hypersurface` admits.
  Condition I for z3 gives d = m*w3 + w_j with m >= 1.  If d >= 2*w3,
  then w1 + w2 + w3 <= 3*w3 < 2d.  Otherwise d = w3 + w_j with j < 3, and
  2d - (w1 + w2 + w3) is w3 + w2 - w1 > 0 for j = 2, w3 + w1 - w2 > 0 for
  j = 1, and w3 + 2*w0 - w1 - w2 for j = 0.  There condition I for z2
  gives m'*w2 = d - w_k = w3 + w0 - w_k with m' >= 1: k = 1 makes
  w1 + w2 <= w3 + w0, k = 2 makes 2*w2 <= w3 + w0, and k = 3 makes
  w2 <= w0, so w1 + w2 < w3 + 2*w0 each time.  k = 0 makes w3 = m'*w2,
  and w1 + w2 <= 2*w2 <= w3 when m' >= 2.  When m' = 1, w2 = w3, and
  condition II asks that w3 = gcd(w2, w3) divide d = w3 + w0 when
  w3 > 1 (z2^a z3^b has degree d only if w3 divides d), so w3 <= w0:
  all four weights are equal, and P(w) well-formed makes them 1, with
  d = 2 and 3 < 4.

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
        n += sum(count_monomials(c.weights, w[a] + w[b] - d)  # |S| = 2; the others are 0
                 for a, b in combinations(range(4), 2))
    return ModuliReport(m=m, dim_aut=g, n=n)
