"""The oracle's w0 ceiling, derived again by the case analysis that proves it.

`search.w0_ceiling` keeps the ceiling as two constants, W0_CEILING for
I = 1..10 and W0_SLOPE past them, and proves them in its docstring.  Here
that proof's finite case analysis runs in exact integers and must give the
same constants, and the oracle's loop without the ceiling must admit
nothing above them at w <= 150.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from delpezzo import search
from delpezzo.records import CandidateRecord, classify
from delpezzo.search import (
    W0_CEILING,
    W0_SLOPE,
    _admit,
    _oracle_passes,
    _oracle_points,
    _prefilter,
    w0_ceiling,
)

# A linear form is a tuple of integer coefficients on (w0, w1, w2, w3, I).
# The weights are held as forms N_k over one common denominator D > 0.
UNIT = [tuple(int(k == n) for k in range(5)) for n in range(5)]
Z3_CASES = ((1, 3), (2, 3), (2, 0), (2, 1), (2, 2))  # (m3, j3): the five w3 of `_oracle_points`


def _region(f):
    """The coefficients of a form without w3 on (I, u, s1, s2), where
    w0 = I + u, w1 = w0 + s1 and w2 = w1 + s2."""
    c0, c1, c2, _, cI = f
    return c0 + c1 + c2 + cI, c0 + c1 + c2, c1 + c2, c2


def _never_zero(f):
    """True when f = 0 has no point with I, u >= 1 and s1, s2 >= 0."""
    c = _region(f)
    return (c[0] != 0 or c[1] != 0) and (min(c) >= 0 or max(c) <= 0)


def _witnesses(N, D, i):
    """The form D*(m*w_i + w_j - d) of each witness z_i^m z_j step 3 leaves:
    m <= the largest region coefficient of d - w_j, and no pair monomial."""
    d = [sum(col) for col in zip(*N)]
    d[4] -= D
    for j in range(4):
        r = [a - b for a, b in zip(d, N[j])]
        for m in range(1, max(_region(r)) // D + 1):
            if m > 1 or j == i:
                yield [m * a - b for a, b in zip(N[i], r)]


def _put(N, D, E, i):
    """The weights (N, D) with x_i solved from E = 0 and put in, reduced."""
    c = E[i]
    N = [tuple((c * a - f[i] * e) * (1 if c > 0 else -1) for a, e in zip(f, E)) for f in N]
    g = math.gcd(D * abs(c), *(x for f in N for x in f))
    return [tuple(x // g for x in f) for f in N], D * abs(c) // g


def _case_analysis():
    """(rays, lines) of steps 2-4 of `w0_ceiling`'s proof: each ray as the
    rational v with w = I*v, each line as (r, ((slope, I-coefficient) of
    w0..w3 in t = w1)), with w0 = r*I."""
    rays, lines = set(), set()
    for m3, j3 in Z3_CASES:
        E = [m3 * a + b - 1 for a, b in zip(UNIT[3][:4], UNIT[j3][:4])] + [1]
        N, D = _put(UNIT[:4], 1, E, 3)
        for E2 in _witnesses(N, D, 2):
            if not E2[2]:
                assert _never_zero(E2), E2
                continue
            N2, D2 = _put(N, D, E2, 2)
            for E1 in _witnesses(N2, D2, 1):
                if E1[1]:
                    N1, D1 = _put(N2, D2, E1, 1)
                    for E0 in _witnesses(N1, D1, 0):
                        assert E0[0] or _never_zero(E0), E0
                        if E0[0]:
                            r = Fraction(-E0[4], E0[0])
                            rays.add(tuple(Fraction(f[0], D1) * r + Fraction(f[4], D1) for f in N1))
                elif not _never_zero(E1):
                    assert E1[0] and not any(E1[1:4]), E1  # w0 = r*I
                    r = Fraction(-E1[4], E1[0])
                    assert r > 1
                    lines.add((r, tuple((Fraction(f[1], D2), Fraction(f[0], D2) * r + Fraction(f[4], D2))
                                        for f in N2)))
    return rays, lines


def _ray_points(rays):
    """(step, p) of step 4: the one point of each ray with w0 > I, when
    `classify` admits it."""
    out = []
    for v in rays:
        if 1 < v[0] <= v[1] <= v[2] <= v[3]:
            step = math.lcm(*(x.denominator for x in v))
            p = tuple(int(x * step) for x in v)
            if isinstance(classify(p, sum(p) - step), CandidateRecord):
                out.append((step, p))
    return out


def _primes(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % k for k in range(2, math.isqrt(q) + 1))]


def _line_passes(r, forms, I):
    """Step 5: whether some ascending t in one period of the line at index
    I passes the four necessary conditions."""
    if (r * I).denominator != 1:
        return False
    w0 = int(r * I)
    coef = [(a, b * I) for a, b in forms]
    coef.append((sum(a for a, _ in coef), sum(b for _, b in coef) - I))  # d
    L = math.lcm(*(x.denominator for c in coef for x in c))
    A, B = (np.array([int(c[n] * L) for c in coef], dtype=np.int64)[:, None] for n in (0, 1))
    lo, hi = w0, None  # w1 >= w0, then w2 >= w1 and w3 >= w2
    for k in (1, 2):
        a, b = A[k + 1, 0] - A[k, 0], B[k + 1, 0] - B[k, 0]  # L*(w_{k+1} - w_k) = a*t + b
        if a > 0:
            lo = max(lo, -(b // a))
        elif a < 0:
            hi = b // -a if hi is None else min(hi, b // -a)
        elif b < 0:
            return False
    N = w0 * I
    t = np.arange(lo, lo + L * N if hi is None else min(hi + 1, lo + L * N), dtype=np.int64)
    V = A * t + B
    ok = (V % L == 0).all(axis=0)
    w, d = V[:4] // L, V[4] // L
    ok &= ((d - w) % w0 == 0).any(axis=0)  # z0
    for q in _primes(N):
        ok &= (w % q == 0).sum(axis=0) < 3  # P(w) well-formed
        e = q
        while N % e == 0:  # X well-formed
            ok &= ((w % e == 0).sum(axis=0) < 2) | (d % e == 0)
            e *= q
    return bool(ok.any())


def test_w0_ceiling_is_derived():
    """The case analysis of `w0_ceiling` gives its constants and figures:
    7,640 rays leave 62 admitted points, all at step <= 7; of the 57
    lines, r <= 6, and those step 5 leaves at I <= 10 have r*I <= 9.  The
    mutant `oracle-w0-ceiling-minus-one` fails here."""
    rays, lines = _case_analysis()
    points = _ray_points(rays)
    assert (len(rays), len(points), len(lines)) == (7640, 62, 57)
    assert max(step for step, _ in points) == 7
    left = {I: [int(r * I) for r, forms in lines if _line_passes(r, forms, I)] for I in range(1, 11)}
    assert max(max(w0s, default=0) for w0s in left.values()) == 9
    table = tuple(max([I, *left[I], *(p[0] for step, p in points if step == I)]) for I in range(1, 11))
    assert (table, max(r for r, _ in lines)) == (W0_CEILING, W0_SLOPE)
    assert [w0_ceiling(I) for I in (1, 10, 11, 40)] == [13, 10, 66, 240]


@pytest.fixture(scope="module")
def unceilinged_150():
    """The points the oracle's loop admits at w <= 150, I = 1..10, with
    every w0 up to (2*w_max + I_max) // 3 asking for every index."""
    w_max, I_max = 150, 10
    passes = (_prefilter(P, (1, 0, 2)) for w0 in range(1, (2 * w_max + I_max) // 3 + 1)
              for P in _oracle_points(w0, 1, I_max, w_max))
    return _admit(passes)


def test_oracle_loop_without_the_ceiling_admits_nothing_past_it(unceilinged_150):
    """No point the unceilinged loop admits has w0 > w0_ceiling(I); the
    ceiling is the largest w0 at I = 1..7, and I itself at I = 8..10,
    where the largest w0 is 7.  The mutant `oracle-w0-ceiling-minus-one`
    fails here."""
    top = {}
    for w, d in unceilinged_150:
        I = sum(w) - d
        top[I] = max(top.get(I, 0), w[0])
    assert all(top[I] <= w0_ceiling(I) for I in top)
    assert [top[I] for I in range(1, 11)] == [13, 14, 15, 13, 13, 13, 11, 7, 7, 7]
    assert all(top[I] == w0_ceiling(I) for I in range(1, 8))


def test_the_ceiling_drops_only_empty_passes(unceilinged_150, monkeypatch):
    """With the ceiling the oracle admits the same 416 points, and asks
    for no w0 past 15 at I <= 10."""
    asked = []
    real = search._oracle_points

    def spy(w0, *bounds):
        asked.append(w0)
        return real(w0, *bounds)

    monkeypatch.setattr(search, "_oracle_points", spy)
    assert _admit(_oracle_passes(1, 10, 150)) == unceilinged_150
    assert len(unceilinged_150) == 416 and max(asked) == 15
