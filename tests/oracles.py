"""Independent brute-force oracles the implementation must agree with.

Everything here deliberately avoids the package's algebra: the divisor
oracle works with explicit root-of-unity multisets in Z[Z/L], and the
monomial oracle counts lattice points by blunt iteration.
"""

from fractions import Fraction
from math import gcd, lcm

from delpezzo.topology import VirtualCharacter, reduced_ratios


def roots_vector(char: VirtualCharacter, L: int) -> list:
    """Multiplicity of each L-th root of unity in a virtual character."""
    out = [0] * L
    for n, c in char.coeffs.items():
        assert L % n == 0, (n, L)
        step = L // n
        for j in range(n):
            out[j * step] += c
    return out


def divisor_roots_oracle(candidate) -> list[int]:
    """Expand the characteristic divisor as explicit root multiplicities.

    Each factor (Lambda_u / v - 1) contributes the multiset of all u-th
    roots of unity with weight 1/v minus the trivial root; the product is
    convolution in the group ring Q[Z/L].  Each factor is scaled by v (all
    u-th roots with weight 1, minus v times the trivial root) so that the
    convolution runs in Z[Z/L]; the product of the v is divided out once
    at the end, and that division must be exact.
    """
    ratios = reduced_ratios(candidate)
    L = lcm(*(u for u, _ in ratios))
    acc = [0] * L
    acc[0] = 1
    scale = 1
    for u, v in ratios:
        step = L // u
        nxt = [-v * ca for ca in acc]  # the trivial root, weight -v
        for a, ca in enumerate(acc):
            if ca:
                for b in range(a, a + L, step):  # all u-th roots, weight 1
                    nxt[b % L] += ca
        acc = nxt
        scale *= v
    out = []
    for ca in acc:
        q, r = divmod(ca, scale)
        assert r == 0, (candidate, ca, scale)
        out.append(q)
    return out


def milnor_orlik_oracle(weights, d: int) -> list[int]:
    """Coefficients of the Poincare polynomial of the Milnor algebra.

    P(t) = prod (1 - t^(d - w_i)) / prod (1 - t^(w_i)) (Milnor-Orlik): the
    numerator is multiplied out over ints, and each division by
    (1 - t^w) is a running sum with stride w.  The quotient must be a
    polynomial of degree sum (d - 2 w_i); that is asserted.  Then
    mu = P(1), and the monomial of degree k contributes the monodromy
    eigenvalue exp(2 pi i (k + |w|) / d), so b2 of the link is the sum of
    the coefficients at the k with d | k + |w|.
    """
    top = sum(d - w for w in weights)
    poly = [0] * (top + 1)
    poly[0] = 1
    for w in weights:
        e = d - w
        for k in range(top, e - 1, -1):
            poly[k] -= poly[k - e]
    for w in weights:
        for k in range(w, top + 1):
            poly[k] += poly[k - w]
    degree = sum(d - 2 * w for w in weights)
    assert degree >= 0 and not any(poly[degree + 1:]), (weights, d)
    return poly[: degree + 1]


def milnor_orlik_invariants(weights, d: int) -> tuple[int, int]:
    """(mu, b2 of the link) read off the Milnor-Orlik Poincare polynomial."""
    poly = milnor_orlik_oracle(weights, d)
    total = sum(weights)
    return sum(poly), sum(c for k, c in enumerate(poly) if (k + total) % d == 0)


def count_monomials_oracle(weights, d: int) -> int:
    """Count solutions of sum a_i w_i = d by nested iteration."""
    w0, w1, w2, w3 = weights
    count = 0
    for a3 in range(d // w3 + 1):
        for a2 in range((d - a3 * w3) // w2 + 1):
            rem = d - a3 * w3 - a2 * w2
            count += sum(1 for a1 in range(rem // w1 + 1) if (rem - a1 * w1) % w0 == 0)
    return count


def pair_solvable_oracle(wi: int, wj: int, d: int) -> bool:
    if d < 0:
        return False
    return any((d - b * wj) % wi == 0 for b in range(d // wj + 1))


def order_dividing(n: int, L: int) -> bool:
    return L % n == 0


def milnor_oracle(weights, d: int) -> Fraction:
    mu = Fraction(1)
    for w in weights:
        mu *= Fraction(d - w, w)
    return mu


def gcd4(*xs) -> int:
    g = 0
    for x in xs:
        g = gcd(g, x)
    return g
