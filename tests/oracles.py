"""Independent brute-force oracles the implementation must agree with.

Everything here deliberately avoids the package's algebra: the divisor
oracle works with explicit root-of-unity multisets in Z[Z/L], the
Fraction fold multiplies the divisor's factors out in Q[C*] one at a time,
the monomial oracle counts lattice points by blunt iteration, and the
Jacobian oracle decides quasi-smoothness by linear algebra over F_p.
"""

import random
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import numpy as np


def _nonzero(coeffs: dict) -> dict:
    return {n: c for n, c in coeffs.items() if c}


def char_add(a: dict, b: dict) -> dict:
    """a + b for virtual characters {n: c_n} = sum c_n L_n; zeros dropped,
    so that dict equality is equality in the ring."""
    out = dict(a)
    for n, c in b.items():
        out[n] = out.get(n, 0) + c
    return _nonzero(out)


def char_sub(a: dict, b: dict) -> dict:
    return char_add(a, {n: -c for n, c in b.items()})


def char_mul(a: dict, b: dict) -> dict:
    """Bilinear extension of L_a * L_b = gcd(a,b) * L_lcm(a,b); zeros dropped."""
    out = {}
    for n, cn in a.items():
        for m, cm in b.items():
            g = gcd(n, m)
            k = n // g * m
            out[k] = out.get(k, 0) + cn * cm * g
    return _nonzero(out)


def reduced_ratios(candidate) -> list[tuple[int, int]]:
    """d/w_i in lowest terms, as (u_i, v_i) for i = 0..3."""
    d = candidate.d
    return [(d // gcd(d, wi), wi // gcd(d, wi)) for wi in candidate.weights.w]


def fraction_divisor(candidate) -> dict:
    """The characteristic divisor as a fold of Fraction-coefficient factors
    (L_u/v - 1), one `char_mul` per reduced ratio u/v = d/w_i."""
    div = {1: 1}
    for u, v in reduced_ratios(candidate):
        div = char_mul(div, char_sub({u: Fraction(1, v)}, {1: 1}))
    return div


def degree_sum(char: dict):
    """sum_n n * c_n: the size of the root-of-unity multiset of a character."""
    return sum(n * c for n, c in char.items())


def roots_vector(char: dict, L: int) -> list:
    """Multiplicity of each L-th root of unity in a virtual character."""
    out = [0] * L
    for n, c in char.items():
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


def is_minimal_torus(weights) -> bool:
    """True iff the graded automorphism group of P(w) is only the diagonal torus.

    Holds exactly when no w_i (i >= 1) is a non-negative integer combination
    of the earlier weights, i.e. no degree-w_i monomial in z_0..z_{i-1}
    exists, which is `moduli.aut_dimension(w) == 4`.  The `_representable`
    recursion does not go through `count_monomials`, so the two cannot
    share a bug.
    """
    return not any(_representable(weights[:i], weights[i]) for i in range(1, 4))


def _representable(weights: tuple[int, ...], target: int) -> bool:
    if not weights:
        return target == 0
    head, tail = weights[0], weights[1:]
    return any(
        _representable(tail, target - a * head) for a in range(target // head + 1)
    )


def partner_oracle(weights, d: int, i: int) -> tuple[int, int] | None:
    """Minimal (m, j) with m >= 1 and m*w_i + w_j = d, by scanning m upward
    and, for each m, j upward; None if there is none."""
    for m in range(1, d // weights[i] + 1):
        for j in range(4):
            if m * weights[i] + weights[j] == d:
                return m, j
    return None


def pair_solvable_oracle(wi: int, wj: int, d: int) -> bool:
    if d < 0:
        return False
    return any((d - b * wj) % wi == 0 for b in range(d // wj + 1))


def pair_witness_extras(weights, d: int, i: int, j: int) -> set[int]:
    """Indices k outside {i, j} with a monomial z_i^a z_j^b z_k of degree d."""
    return {k for k in range(4) if k not in (i, j)
            and pair_solvable_oracle(weights[i], weights[j], d - weights[k])}


def quasismooth_failure_oracle(weights, d: int):
    """The first of conditions I, III and II that fails, read literally.

    I: a variable with no partner (`partner_oracle`) gives ("I", i).  III:
    the first pair (i, j) with no z_i^a z_j^b and fewer than two witness
    variables gives ("III", (i, j, *witnesses)).  II: the first pair with
    gcd(w_i, w_j) > 1 and no z_i^a z_j^b gives ("II", (i, j)).  None if
    all three hold.
    """
    for i in range(4):
        if partner_oracle(weights, d, i) is None:
            return "I", i
    bare = [(i, j) for i in range(4) for j in range(i + 1, 4)
            if not pair_solvable_oracle(weights[i], weights[j], d)]
    for i, j in bare:
        extras = pair_witness_extras(weights, d, i, j)
        if len(extras) < 2:
            return "III", (i, j, *sorted(extras))
    for i, j in bare:
        if gcd(weights[i], weights[j]) > 1:
            return "II", (i, j)
    return None


def milnor_oracle(weights, d: int) -> Fraction:
    mu = Fraction(1)
    for w in weights:
        mu *= Fraction(d - w, w)
    return mu


JACOBIAN_P = 2**31 - 1  # prime; products of two residues fit in int64


@cache
def _monomials(weights, D: int) -> np.ndarray:
    """Exponent vectors (one row each) of every monomial of weighted degree D."""
    w0, w1, w2, w3 = weights
    out = []
    for a3 in range(D // w3 + 1 if D >= 0 else 0):
        for a2 in range((D - a3 * w3) // w2 + 1):
            rem = D - a3 * w3 - a2 * w2
            out += [((rem - a1 * w1) // w0, a1, a2, a3)
                    for a1 in range(rem // w1 + 1) if (rem - a1 * w1) % w0 == 0]
    return np.array(out, dtype=np.int64).reshape(len(out), 4)


def _in_row_space(A: np.ndarray, t: np.ndarray) -> bool:
    """Is the vector t an F_p-combination of the rows of A?  Row echelon form.

    Rows are scaled rather than normalized, so every product is of two
    residues below p < 2^31 and stays inside int64.
    """
    P = JACOBIAN_P
    A = A.copy()
    r = 0
    for col in range(A.shape[1]):
        if r == A.shape[0]:
            break
        k = r + int(np.argmax(A[r:, col] != 0))
        if not A[k, col]:
            continue
        A[[r, k]] = A[[k, r]]
        piv = A[r, col]
        A[r + 1:, col:] = (A[r + 1:, col:] * piv - A[r + 1:, col, None] * A[r, col:]) % P
        t[col:] = (t[col:] * piv - t[col] * A[r, col:]) % P
        r += 1
    return not t.any()


def jacobian_quasismooth(weights, d: int, seed: int) -> bool:
    """Is the cone over a random degree-d F in P(weights) smooth off the origin?

    Decided from the definition, with none of the package's conditions.
    The cone is smooth away from 0 iff the partials of F vanish together
    only at 0 (Euler: d*F = sum w_i x_i dF/dx_i), iff the Milnor algebra
    k[x]/J_F is finite-dimensional.  If it is, the partials are a regular
    sequence of degrees d - w_i, so k[x]/J_F has Hilbert series
    prod (1 - t^(d - w_i)) / (1 - t^(w_i)), a polynomial of degree
    s = 4d - 2|w|, and x_i^(N_i) lies in J_F whenever N_i*w_i > s.
    Conversely x_i^(N_i) in J_F for every i leaves 0 as the only common
    zero.  So the test is x_i^(N_i) in J_F for the least N_i >= 0 with
    N_i*w_i > s; for s < 0 that is N_i = 0, i.e. J_F = (1).  Membership is
    exact elimination in the degree-N_i*w_i piece over F_p, cheapest
    piece first.

    F has uniform random coefficients mod p = 2^31 - 1 drawn from `seed`.
    True is sound: the coefficient vectors whose cone is singular off 0
    form a closed set defined over Z (elimination over the proper P(w)),
    so an F with only the trivial common zero mod p lifts to an integer F
    with only the trivial common zero over C, and the general member is
    quasi-smooth.  False can come from an unlucky F or prime; callers
    confirm it with a second seed.
    """
    weights = tuple(weights)
    P = JACOBIAN_P
    rng = random.Random(seed)
    exps = _monomials(weights, d)
    coeffs = np.array([rng.randrange(1, P) for _ in range(len(exps))], dtype=np.int64)
    partials = []  # (degree, exponents, coefficients) of dF/dx_j
    for j in range(4):
        has = exps[:, j] > 0
        e = exps[has]  # a mask index copies
        e[:, j] -= 1
        partials.append((d - weights[j], e, coeffs[has] * exps[has, j] % P))
    s = 4 * d - 2 * sum(weights)
    systems = []
    for i, w in enumerate(weights):
        D = max(0, s // w + 1) * w
        basis = _monomials(weights, D)
        radix = D + 1  # every exponent in degree D is at most D
        keys = basis @ radix ** np.arange(4)
        order = np.argsort(keys)
        blocks = [np.zeros((0, len(basis)), dtype=np.int64)]
        for deg, e, c in partials:
            m = _monomials(weights, D - deg)
            if len(m) and len(e):
                cols = order[np.searchsorted(keys[order], (m[:, None, :] + e) @ radix ** np.arange(4))]
                block = np.zeros((len(m), len(basis)), dtype=np.int64)
                np.put_along_axis(block, cols, np.broadcast_to(c, cols.shape), axis=1)
                blocks.append(block)
        A = np.vstack(blocks)
        target = np.zeros(len(basis), dtype=np.int64)
        target[order[np.searchsorted(keys[order], D // w * radix**i)]] = 1
        if not A[:, target == 1].any():  # no generator multiple reaches x_i^N_i
            return False
        systems.append((A, target))
    return all(_in_row_space(A, t) for A, t in sorted(systems, key=lambda x: x[0].size))
