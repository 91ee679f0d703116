"""Topology of the link: Milnor number, characteristic divisor, Betti number.

The 5-manifold link of the affine cone over a quasi-smooth member is
simply connected with torsion-free H2 when the weights are well-formed,
so its diffeomorphism type is S^5 # l(S^2 x S^3).  The integer l equals
the second Betti number of the link, which is read off the divisor of
the characteristic polynomial of the monodromy.

That divisor lives in the integral ring Z[C*] with basis elements L_n
("all n-th roots of unity"), multiplied by L_a * L_b = gcd(a,b) * L_lcm(a,b),
and equals the four-fold product of (L_{u_i}/v_i - 1) where d/w_i = u_i/v_i
in lowest terms.  The product is expanded in integers with each factor
scaled by v_i, as the product of (L_{u_i} - v_i), and divided by the
product of the v_i once at the end; integrality is asserted, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvariantViolation
from .quasismooth import require_hypersurface
from .weights import Candidate


class VirtualCharacter:
    """Sparse element sum_n c_n * L_n of Z[C*] with exact coefficients c_n.

    Integral coefficients are stored as int and others as Fraction, so
    integral characters are summed and multiplied in plain integers.  L_1
    is the multiplicative unit; zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int | Fraction] | None = None):
        clean: dict[int, int | Fraction] = {}
        for n, c in (coeffs or {}).items():
            if n < 1:
                raise ValueError(f"character order must be positive, got {n}")
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c != 0:
                clean[int(n)] = c
        self.coeffs = clean

    @classmethod
    def lam(cls, n: int, coeff=1) -> "VirtualCharacter":
        return cls({n: coeff})

    @classmethod
    def one(cls) -> "VirtualCharacter":
        return cls({1: 1})

    def coeff(self, n: int) -> int | Fraction:
        return self.coeffs.get(n, 0)

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, 0) + c
        return VirtualCharacter(out)

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, 0) - c
        return VirtualCharacter(out)

    def scaled(self, s) -> "VirtualCharacter":
        s = Fraction(s)
        return VirtualCharacter({n: c * s for n, c in self.coeffs.items()})

    def __mul__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return char_mul(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualCharacter) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def coefficient_sum(self) -> int | Fraction:
        return sum(self.coeffs.values())

    def degree_sum(self) -> int | Fraction:
        """sum_n n * c_n: the size of the underlying root-of-unity multiset."""
        return sum(n * c for n, c in self.coeffs.items())

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n in sorted(self.coeffs):
            c = self.coeffs[n]
            term = "1" if n == 1 else f"L{n}"
            if n > 1 and c == 1:
                coef = ""
            elif n > 1 and c == -1:
                coef = "-"
            else:
                coef = str(c) if c.denominator > 1 else str(c.numerator)
            txt = f"{coef}{term}" if n > 1 else str(c)
            if parts and not txt.startswith("-"):
                parts.append("+ " + txt)
            elif parts:
                parts.append("- " + txt[1:])
            else:
                parts.append(txt)
        return " ".join(parts)

    __repr__ = __str__


def char_mul(a: VirtualCharacter, b: VirtualCharacter) -> VirtualCharacter:
    """Bilinear extension of L_a * L_b = gcd(a,b) * L_lcm(a,b)."""
    return VirtualCharacter(_mul(a.coeffs, b.coeffs))


def _mul(a: dict, b: dict) -> dict:
    """`char_mul` on plain coefficient dicts, unvalidated; zeros may remain."""
    out: dict = {}
    for n, cn in a.items():
        for m, cm in b.items():
            g = gcd(n, m)
            k = n // g * m
            out[k] = out.get(k, 0) + cn * cm * g
    return out


def reduced_ratios(c: Candidate) -> list[tuple[int, int]]:
    """d/w_i in lowest terms (u_i, v_i) for i = 0..3."""
    d = c.d
    out = []
    for wi in c.weights.w:
        g = gcd(d, wi)
        out.append((d // g, wi // g))
    return out


def milnor_number(c: Candidate) -> int:
    """Product of (d/w_i - 1) = (d - w_i)/w_i over the four weights.

    The numerator and denominator products are divided once; a remainder or
    a non-positive quotient is an invariant violation.
    """
    num = den = 1
    for wi in c.weights.w:
        num *= c.d - wi
        den *= wi
    mu, rem = divmod(num, den)
    if rem or mu <= 0:
        raise InvariantViolation(
            f"{c}: Milnor number {Fraction(num, den)} is not a positive integer"
        )
    return mu


def characteristic_divisor(c: Candidate) -> VirtualCharacter:
    """Expand the product of (L_{u_i}/v_i - 1) over the four reduced ratios.

    Scaled by the product of the v_i, this is the product of (L_{u_i} - v_i),
    folded in plain int dicts by the two-term case of `char_mul`'s rule:
    c*L_n times (L_u - v) is c*gcd(n, u)*L_lcm(n, u) - v*c*L_n.  The
    product of the v_i is then divided out once, and one `VirtualCharacter`
    is built at the end.  The result must have integral coefficients with
    L_1 coefficient exactly 1; anything else signals an invalid candidate
    upstream.
    """
    scaled = {1: 1}
    scale = 1
    for u, v in reduced_ratios(c):
        out = {}
        for n, cn in scaled.items():
            g = gcd(n, u)
            k = n // g * u
            out[k] = out.get(k, 0) + cn * g
            out[n] = out.get(n, 0) - v * cn
        scaled = out
        scale *= v
    coeffs = {}
    for n, cn in scaled.items():
        q, rem = divmod(cn, scale)
        if rem:
            rational = VirtualCharacter(scaled).scaled(Fraction(1, scale))
            raise InvariantViolation(f"{c}: characteristic divisor {rational} not integral")
        coeffs[n] = q
    div = VirtualCharacter(coeffs)
    if div.coeff(1) != 1:
        raise InvariantViolation(f"{c}: divisor unit coefficient {div.coeff(1)} != 1")
    return div


@dataclass(frozen=True)
class LinkReport:
    """Milnor number, characteristic divisor, and S^5 # l(S^2 x S^3) type.

    The classification tables print the base orbifold's second Betti
    number, b2_link + 1; the link itself realizes one less.
    """

    mu: int
    divisor: VirtualCharacter
    b2_link: int
    l: int

    def __post_init__(self):
        if self.divisor.degree_sum() != self.mu:
            raise InvariantViolation(
                f"divisor degree {self.divisor.degree_sum()} != Milnor number {self.mu}"
            )


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
    already made them.  The divisor is expanded once, and the link's b2 (and
    l) is its coefficient sum: 1 + the L_j coefficients for j >= 2, since
    the L_1 coefficient is always 1."""
    div = characteristic_divisor(c)
    b2 = div.coefficient_sum()
    if b2 < 0:
        raise InvariantViolation(f"{c}: link b2 = {b2} is negative")
    return LinkReport(mu=milnor_number(c), divisor=div, b2_link=b2, l=b2)
