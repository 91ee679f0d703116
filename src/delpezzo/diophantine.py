"""Exact integer solutions of small linear systems A*x = b.

Smith normal form over the integers gives, for a consistent system, one
particular integer solution plus a lattice basis of the kernel.  Box
enumeration then lists every solution with lo <= x_i <= hi; kernels of
dimension up to two are supported, which covers every branch system of
the structured search.
"""

from __future__ import annotations


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
        for k in range(klo, khi + 1):
            yield tuple(particular[i] + k * v[i] for i in range(n))
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
            for k2 in range(k2lo, k2hi + 1):
                yield tuple(
                    particular[i] + k1 * v1[i] + k2 * v2[i] for i in range(n)
                )
        return
    raise ValueError(f"kernel dimension {len(basis)} > 2 not supported")
