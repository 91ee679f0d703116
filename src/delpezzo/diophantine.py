"""The legacy branch reference: the witness branches solved by Smith form.

Not a route.  The structured route, `search.structured_range`, solves the
branch shapes by 3x3 minors (`search._solve_shapes`) and never calls this
module.  It is kept as the independent reference the tests compare the
live route with, shape by shape and point by point, and for the
benchmark's layer probes.

Smith normal form over the integers gives, for a consistent system A*x = b,
one particular integer solution plus a lattice basis of the kernel.  Box
enumeration then lists every solution with lo <= x_i <= hi; kernels of
dimension up to two are supported, which covers every branch system.
`_interval` is the one integer-interval step, shared by the box and by the
ordering constraints of `solve_condition_system`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import gcd, lcm

from .search import M1_MAX, M2_MAX, M3_MAX


def _eye(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def diagonalize(A):
    """Return (D, U, V) with U*A*V = D diagonal and U, V unimodular.

    Plain integer diagonalization; the divisor-chain normalization of the
    full Smith form is not needed for solving.
    """
    D = [row[:] for row in A]
    rows, cols = len(D), len(D[0])
    U = _eye(rows)
    V = _eye(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):  # row_dst += q * row_src
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for r in D:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    t = 0
    while t < min(rows, cols):
        # move a nonzero pivot of minimal magnitude to (t, t)
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] != 0 and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, rows):
            if D[i][t]:
                q = D[i][t] // D[t][t]
                add_row(t, i, -q)
                if D[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if D[t][j]:
                q = D[t][j] // D[t][t]
                add_col(t, j, -q)
                if D[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders left, reduce again around the same pivot
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return D, U, V


def solve_linear_system(A, b):
    """Integer solution set of A*x = b as (particular, kernel_basis), or None.

    `particular` is one integer solution; `kernel_basis` lists integer
    vectors spanning all integer solutions of A*x = 0 (as a lattice).
    """
    rows, cols = len(A), len(A[0])
    D, U, V = diagonalize(A)
    c = [sum(U[i][k] * b[k] for k in range(rows)) for i in range(rows)]
    y = [0] * cols
    rank = 0
    for i in range(min(rows, cols)):
        if D[i][i] != 0:
            rank = i + 1
    for i in range(rows):
        di = D[i][i] if i < cols else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di:
                return None
            y[i] = c[i] // di
    particular = [sum(V[i][k] * y[k] for k in range(cols)) for i in range(cols)]
    basis = [[V[i][k] for i in range(cols)] for k in range(rank, cols)]
    return particular, basis


def _interval(constraints):
    """Integer [lo, hi] satisfying a*k <= c for every (a, c); None bounds = open."""
    lo, hi = None, None
    for a, cst in constraints:
        if a == 0:
            if cst < 0:
                return 1, 0  # infeasible
            continue
        if a > 0:
            v = cst // a
            hi = v if hi is None else min(hi, v)
        else:
            v = -(-cst // a)
            lo = v if lo is None else max(lo, v)
    return lo, hi


def _segment(start, step, count: int):
    """The tuples start + k*step for k = 0..count-1, built a coordinate at a time."""
    return zip(*(range(s, s + count * t, t) if t else itertools.repeat(s, count) for s, t in zip(start, step)))


def box_solutions(particular, basis, lo: int, hi: int):
    """All lattice points particular + sum k_j * basis_j with lo <= x_i <= hi.

    Supports kernel dimension 0, 1 or 2.  Raises for higher dimensions,
    which do not occur in the branch systems this backs.
    """
    n = len(particular)
    if len(basis) == 0:
        if all(lo <= x <= hi for x in particular):
            yield tuple(particular)
        return
    if len(basis) == 1:
        v = basis[0]
        cons = []
        for i in range(n):
            cons.append((v[i], hi - particular[i]))  # v_i*k <= hi - p_i
            cons.append((-v[i], particular[i] - lo))  # -v_i*k <= p_i - lo
        klo, khi = _interval(cons)
        if klo is None or khi is None:
            raise ValueError("unbounded one-parameter family inside a finite box")
        yield from _segment([particular[i] + klo * v[i] for i in range(n)], v, khi - klo + 1)
        return
    if len(basis) == 2:
        v1, v2 = basis
        # Bound k1 by Fourier-Motzkin elimination of k2, then slice.
        cons2 = []  # a*k1 + b*k2 <= c
        for i in range(n):
            cons2.append((v1[i], v2[i], hi - particular[i]))
            cons2.append((-v1[i], -v2[i], particular[i] - lo))
        k1cons = [(a, c) for a, b, c in cons2 if b == 0]
        # eliminate k2: pair each upper bound (b > 0) with each lower (b < 0);
        # (cl - al*k1)/bl <= (cu - au*k1)/bu  cross-multiplied by bl*bu < 0
        # gives (bu*al - bl*au)*k1 <= bu*cl - bl*cu
        for au, bu, cu in [(a, b, c) for a, b, c in cons2 if b > 0]:
            for al, bl, cl in [(a, b, c) for a, b, c in cons2 if b < 0]:
                k1cons.append((bu * al - bl * au, bu * cl - bl * cu))
        k1lo, k1hi = _interval(k1cons)
        if k1lo is None or k1hi is None:
            raise ValueError("unbounded two-parameter family inside a finite box")
        for k1 in range(k1lo, k1hi + 1):
            cons = []
            for i in range(n):
                base = particular[i] + k1 * v1[i]
                cons.append((v2[i], hi - base))
                cons.append((-v2[i], base - lo))
            k2lo, k2hi = _interval(cons)
            if k2lo is None or k2hi is None:
                raise ValueError("unbounded slice in two-parameter family")
            yield from _segment([particular[i] + k1 * v1[i] + k2lo * v2[i] for i in range(n)],
                                v2, k2hi - k2lo + 1)
        return
    raise ValueError(f"kernel dimension {len(basis)} > 2 not supported")


@dataclass(frozen=True)
class BranchAssignment:
    """Witness exponents (m_1, m_2, m_3) and partners j(i) for i = 1, 2, 3."""

    m: tuple[int, int, int]
    j: tuple[int, int, int]
    index: int

    def __post_init__(self):
        m1, m2, m3 = self.m
        if not (1 <= m1 <= M1_MAX and 1 <= m2 <= M2_MAX and 1 <= m3 <= M3_MAX):
            raise ValueError(f"witness exponents {self.m} out of range")
        if any(not 0 <= jj <= 3 for jj in self.j):
            raise ValueError(f"partners {self.j} out of range")
        if self.index < 1:
            raise ValueError(f"index must be positive, got {self.index}")

    def equations(self):
        """Rows (coeffs, rhs) of m_i*w_i + w_{j(i)} - sum(w) = -I for i=1,2,3."""
        rows = []
        for i, (mi, ji) in enumerate(zip(self.m, self.j), start=1):
            coeffs = [-1, -1, -1, -1]
            coeffs[i] += mi
            coeffs[ji] += 1
            rows.append(coeffs)
        return rows, [-self.index] * 3


def witness_branches(I: int):
    """All branch assignments within the widened exponent ranges, no duplicates.

    The lower ends are widened to m_i >= 1: the exceptional escapes of the
    classical bound analysis all satisfy a gate condition and are discarded later, so
    nothing below the classical lower bounds is lost by including them.
    """
    # one tuple per j for every m, since the shape cache keeps them
    js = list(itertools.product(range(4), repeat=3))
    for m in itertools.product(range(1, M1_MAX + 1), range(1, M2_MAX + 1), range(1, M3_MAX + 1)):
        for j in js:
            yield BranchAssignment(m=m, j=j, index=I)


@cache
def _shape(m, j):
    """One diagonalization U*A*V = D of the branch matrix of the shape (m, j).

    `solve_condition_system` calls it; the tests use it as the independent
    reference for `search._solve_shapes`.

    The right-hand side at index I is -I*(1,1,1), so with u = -U*(1,1,1) the
    system is consistent iff u_i = 0 wherever D_ii = 0 and D_ii divides
    I*u_i elsewhere, that is iff `step` divides I.  The particular solution
    is then (I // step) * `base`.  Returns (step, base, kernel basis), or
    None for a shape that is inconsistent at every index.
    """
    D, U, V = diagonalize(BranchAssignment(m, j, 1).equations()[0])
    u = [-sum(row) for row in U]
    if any(D[i][i] == 0 and u[i] for i in range(3)):
        return None
    step = lcm(*(D[i][i] // gcd(D[i][i], u[i]) for i in range(3) if D[i][i]))
    y = [step * u[i] // D[i][i] if D[i][i] else 0 for i in range(3)] + [0]
    base = tuple(sum(V[i][k] * y[k] for k in range(4)) for i in range(4))
    # the pivots come first, so the kernel is spanned by the columns past them
    return step, base, tuple(tuple(r[k] for r in V) for k in range(4) if k == 3 or not D[k][k])


@dataclass(frozen=True)
class SolutionSpace:
    """Integer solutions of a branch system, intersected with ordering.

    A consistent system's solutions are the coset origin + Z*directions;
    its instances are the coset's positive ascending points in a box.  The
    kind says how many there are without a bound:

    kind "empty":  inconsistent (no origin), or no solution is positive
                   and ascending.
    kind "finite": finitely many solutions are.
    kind "line":   a ray of solutions is; instances still need the
                   pointwise filters (primitivity, quasi-smoothness, gates).
    kind "plane":  a two-parameter coset; only shapes that
                   `search._g1_rules_out` marks give it, so gate G1 rejects
                   every member.
    """

    index: int
    kind: str
    origin: tuple[int, int, int, int] | None = None
    directions: tuple[tuple[int, int, int, int], ...] = ()

    def instances(self, w_max: int):
        """Ascending weight tuples of the space with all entries in 1..w_max."""
        if self.kind == "empty":
            return
        for w in box_solutions(self.origin, self.directions, 1, w_max):
            if w[0] <= w[1] <= w[2] <= w[3]:
                yield w


def solve_condition_system(b: BranchAssignment) -> SolutionSpace:
    """Integer solution space of the three witness equations of a branch.

    Full-rank branches give a line of solutions, whose positive ascending
    points are one k-interval of p + k*v, by the seven constraints
    w_i >= 1 and w_{i+1} >= w_i: empty, bounded (finite) or a ray (line).
    Coinciding equations give a plane.  Three equations in four unknowns
    always leave a kernel.  Inconsistent systems give the empty space, not
    an error.
    """
    shape = _shape(b.m, b.j)
    if shape is None or b.index % shape[0]:
        return SolutionSpace(index=b.index, kind="empty")
    step, base, basis = shape
    p = tuple(b.index // step * x for x in base)
    if len(basis) == 2:
        return SolutionSpace(index=b.index, kind="plane", origin=p, directions=basis)
    (v,) = basis
    # as a*k <= c: -v_i*k <= p_i - 1 and (v_i - v_{i+1})*k <= p_{i+1} - p_i
    lo, hi = _interval([(-v[i], p[i] - 1) for i in range(4)]
                       + [(v[i] - v[i + 1], p[i + 1] - p[i]) for i in range(3)])
    if lo is None or hi is None:
        return SolutionSpace(index=b.index, kind="line", origin=p, directions=basis)
    if lo > hi:
        return SolutionSpace(index=b.index, kind="empty")
    if hi - lo > 200_000:
        raise AssertionError(f"branch {b}: ordering window [{lo}, {hi}] too wide")
    return SolutionSpace(index=b.index, kind="finite", origin=p, directions=basis)
