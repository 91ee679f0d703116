"""Topology of the link: Milnor number, characteristic divisor, Betti number.

The 5-manifold link of the affine cone over a quasi-smooth member is
simply connected with torsion-free H2 when the weights are well-formed,
so its diffeomorphism type is S^5 # l(S^2 x S^3).  The integer l equals
the second Betti number of the link, which is read off the divisor of
the characteristic polynomial of the monodromy.

That divisor lives in the integral ring Z[C*] with basis elements L_n
("all n-th roots of unity"), multiplied by L_a * L_b = gcd(a,b) * L_lcm(a,b),
and equals the four-fold product of (L_{u_i}/v_i - 1) where d/w_i = u_i/v_i
in lowest terms.  It is held as a plain dict {n: c_n}.  The product is
expanded in integers with each factor scaled by v_i, as the product of
(L_{u_i} - v_i), and divided by the product of the v_i once at the end;
integrality is asserted, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvariantViolation
from .quasismooth import require_hypersurface
from .weights import Candidate


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms, as `fractions.Fraction` prints a non-integer
    (den > 0); the module is not imported for two error messages."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def milnor_number(c: Candidate) -> int:
    """Product of (d/w_i - 1) = (d - w_i)/w_i over the four weights.

    The numerator and denominator products are divided once; a remainder is
    an invariant violation.  Both products are positive, as d > w3 >= w_i,
    so a quotient without remainder is a positive integer.
    """
    num = den = 1
    for wi in c.weights.w:
        num *= c.d - wi
        den *= wi
    mu, rem = divmod(num, den)
    if rem:
        raise InvariantViolation(
            f"{c}: Milnor number {_ratio(num, den)} is not a positive integer"
        )
    return mu


def characteristic_divisor(c: Candidate) -> dict[int, int]:
    """Expand the product of (L_{u_i}/v_i - 1) over the four reduced ratios.

    Scaled by the product of the v_i, this is the product of (L_{u_i} - v_i),
    folded in plain int dicts by the two-term case of the rule
    L_a * L_b = gcd(a,b) * L_lcm(a,b): c*L_n times (L_u - v) is
    c*gcd(n, u)*L_lcm(n, u) - v*c*L_n.  The product of the v_i is then
    divided out once.  The result {n: c_n} is in ascending n with no zero
    coefficient; it must be integral with L_1 coefficient exactly 1, and
    anything else signals an invalid candidate upstream.
    """
    scaled = {1: 1}
    scale = 1
    for wi in c.weights.w:
        g = gcd(c.d, wi)
        u, v = c.d // g, wi // g  # d/w_i in lowest terms
        out = {}
        for n, cn in scaled.items():
            g = gcd(n, u)
            k = n // g * u
            out[k] = out.get(k, 0) + cn * g
            out[n] = out.get(n, 0) - v * cn
        scaled = out
        scale *= v
    div = {}
    for n in sorted(scaled):
        q, rem = divmod(scaled[n], scale)
        if rem:
            raise InvariantViolation(
                f"{c}: characteristic divisor coefficient {_ratio(scaled[n], scale)} of L{n} not integral"
            )
        if q:
            div[n] = q
    if div.get(1) != 1:
        raise InvariantViolation(f"{c}: divisor unit coefficient {div.get(1, 0)} != 1")
    return div


@dataclass(frozen=True)
class LinkReport:
    """Milnor number, characteristic divisor, and the link's b2, the l of
    its type S^5 # l(S^2 x S^3).

    The classification tables print the base orbifold's second Betti
    number, b2_link + 1; the link itself realizes one less.
    """

    mu: int
    divisor: dict[int, int]
    b2_link: int

    def __post_init__(self):
        degree = sum(n * c for n, c in self.divisor.items())
        if degree != self.mu:
            raise InvariantViolation(f"divisor degree {degree} != Milnor number {self.mu}")


def diffeo_type(c: Candidate) -> LinkReport:
    """Full link report; valid only when torsion vanishes and Smale applies.

    Requires a well-formed P(w) and a quasi-smooth, well-formed general
    member (`require_hypersurface`), which together guarantee H2 of the
    link is torsion-free.
    """
    require_hypersurface(c)
    return _link_report(c)


def _link_report(c: Candidate) -> LinkReport:
    """`diffeo_type` without its precondition checks, for callers that have
    already made them.  The divisor is expanded once, and the link's b2 (the
    l of S^5 # l(S^2 x S^3)) is its coefficient sum: 1 + the L_j coefficients for j >= 2, since
    the L_1 coefficient is always 1."""
    div = characteristic_divisor(c)
    b2 = sum(div.values())
    if b2 < 0:
        raise InvariantViolation(f"{c}: link b2 = {b2} is negative")
    return LinkReport(mu=milnor_number(c), divisor=div, b2_link=b2)
