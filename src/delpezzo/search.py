"""Candidate enumeration: exhaustive bounded oracle and structured branch solver.

Two independent routes produce the classification below a weight bound:

* `brute_force_enumerate` scans every ascending primitive weight system with
  weights <= w_max and keeps the well-formed, quasi-smooth candidates that
  pass both exclusion gates.  It solves w3 from condition I for z3 instead
  of scanning it; every pruning is proved in `_oracle_points`.  Complete
  below its bound by construction; it is the semantic ground truth.

* `structured_range` follows the search the classification proof runs:
  for each variable i = 1, 2, 3 the quasi-smoothness witness gives an
  equation m_i*w_i + w_{j(i)} = d, and with the witness exponents bounded
  as below, finitely many branch shapes (m, j) remain, each a system of
  three linear equations in the four weights.  The shapes gate G1 rules
  out are skipped (proof in `_g1_rules_out`); `_line_shapes` solves the
  rest exactly in one numpy pass, by 3x3 minors and Cramer's rule (proof
  in `_solve_shapes`), and each index expands every distinct solution
  segment once (`_lines`).

The witness-exponent bounds.  Let a candidate pass the gates and condition
I, with m_i*w_i + w_j = d for some partner j:

* m_3 <= M3_MAX = 2 is proved in `_oracle_points`, which also shows d >= 2*w3:
  d = (m_3 + 1)*w3 when j = 3, and d = 2*w3 + w_j otherwise.
* m_2 <= M2_MAX = 4.  From d >= 2*w3 and d = w0 + w1 + w2 + w3 - I,
  w3 <= w0 + w1 + w2 - I < 3*w2.  Then
  m_2*w2 = d - w_j <= d - w0 = w1 + w2 + w3 - I < 5*w2.
* m_1 <= M1_MAX = 10 is asserted, not proved.  The largest minimal m_1
  among the 1,503 records at w <= 600 is 7, and `verified_enumeration`
  checks the bound only below the oracle's weight bound.

One pipeline serves both routes, in three stages:

1. The route hands over its candidate points (w0, w1, w2, w3, d) as
   integer arrays, a pass at a time (`_oracle_passes`, `_structured_passes`),
   each through the shared numpy `_prefilter`.  It keeps exactly the points
   `classify` admits: condition I, the gates, P(w) well-formed, and
   conditions III and II in the form of one gcd test per pair (proof in
   `_prefilter`).  Each route names the variables whose condition I it
   tests there, leaving out those its construction already gives.
2. `_admit` keeps the distinct points of the passes.
3. `_records` builds the record of each admitted point once, with
   `classify`, which still checks every condition itself.

The two routes must agree: `verified_enumeration` compares their admitted
points before any record is built, and builds the records once, from the
oracle's points, only when they do.

Every route takes one domain, 1 <= I_min <= I_max and
1 <= w_max <= ORACLE_W_MAX, the command line's, and refuses any other
arguments with a ValueError (`_check_bounds`) before it does any work.
"""

from __future__ import annotations

import itertools
from functools import cache

from .errors import RouteDisagreement
from .records import CandidateRecord, classify

M1_MAX = 10
M2_MAX = 4
M3_MAX = 2


def _g1_rules_out(m, j):
    """True for a shape whose every solution fails gate G1 at every index;
    m and j are (..., 3) arrays or tuples, one answer per shape.

    That is a shape with some m_i = 1 and j(i) != i.  Its row i reads
    w_i + w_{j(i)} - sum(w) = -I, that is w_a + w_b = I for the two other
    variables a, b.  Then w0 <= min(w_a, w_b) <= I/2, so 3*w0 < 2I and G1
    rejects the solution.
    """
    import numpy as np

    return ((np.asarray(m) == 1) & (np.asarray(j) != (1, 2, 3))).any(axis=-1)


@cache
def _line_shapes():
    """The distinct solved shapes the structured route walks, as read-only
    arrays (step, base, kernel) with one row per shape; see `_solve_shapes`.

    `_g1_rules_out` leaves 2,405 of the 5,120 shapes, and it removes all 64
    that give a plane.  Two of the rest have rank two: ((4,4,2), (0,0,0))
    and ((6,3,2), (0,0,0)).  Their w0 column is zero and their 3x3 block is
    singular, with the row relation y = (1,1,2), resp. (1,2,3), and
    y*(1,1,1) != 0 makes them inconsistent at every index.  The other
    2,403 have rank three, so each solution set is a line, and 1,849
    distinct (step, base, kernel) remain.
    """
    import numpy as np

    grid = np.indices((M1_MAX, M2_MAX, M3_MAX, 4, 4, 4), dtype=np.int8).reshape(6, -1).T  # every (m - 1, j)
    m, j = grid[:, :3] + 1, grid[:, 3:]
    kept = ~_g1_rules_out(m, j)
    step, base, kernel = _solve_shapes(m[kept], j[kept])
    table = _distinct_rows(np.column_stack([step, base, kernel])[step > 0])
    table.setflags(write=False)
    return table[:, 0], table[:, 1:5], table[:, 5:]


def _solve_shapes(m, j):
    """Arrays (step, base, kernel) for the shapes with rows m[s], j[s].

    Shape s at index I is A*w = -I*(1,1,1), with row i of A equal to
    m_i*e_i + e_{j(i)} - (1,1,1,1).  Its integer solutions are
    (I // step)*base + Z*kernel when step divides I, and none otherwise;
    step is 0 for a shape whose 3x3 minors all vanish.

    * Kernel.  Let K_c be (-1)^c times the minor of A without column c.
      Each A_r*K is the expansion of a 4x4 determinant with row A_r twice,
      so A*K = 0.  When some K_c != 0, A has rank three, its rational
      kernel is the line through K, and kernel = K/gcd(K) spans its
      integer points.
    * Base at a fixed I.  Take the column c with the smallest nonzero
      |kernel_c|.  Setting w_c = t leaves a 3x3 system in the other
      weights with determinant +-K_c != 0, solved by Cramer's rule as
      numerators over K_c; the point is integral iff K_c divides them.
      The integer solutions at I, if any, are p + Z*kernel, so their w_c
      fill one class mod |kernel_c|, and exactly one t in
      0..|kernel_c| - 1 gives a solution: scanning one period is complete.
    * Step.  The indices with an integer solution are closed under sums
      and negation, so they are step*Z, and step is the first I = 1, 2, ...
      at which the scan finds one; that solution is base.  Each shape is
      solved by I = |K_c|: every numerator at t = 0 is I times an integer
      determinant, so t = 0 solves there.
    * A shape whose minors all vanish has rank two at most; it is left
      with step 0.  `_line_shapes` shows the two it keeps are inconsistent.
    """
    import numpy as np

    n, ix, rows = len(m), np.arange(len(m)), np.arange(3)
    A = np.full((n, 3, 4), -1, dtype=np.int64)
    A[:, rows, rows + 1] += m
    A[ix[:, None], rows, j] += 1
    cols = A.transpose(0, 2, 1)  # cols[s, c] is column c of shape s
    others = np.array([[k for k in range(4) if k != c] for c in range(4)])
    sign = np.array([1, -1, 1, -1])
    K = sign * np.stack([_det3(*cols[:, others[k]].transpose(1, 0, 2)) for k in range(4)], axis=1)
    kernel = K // np.maximum(np.gcd.reduce(K, axis=1), 1)[:, None]
    c = np.where(kernel != 0, np.abs(kernel), 1 << 62).argmin(axis=1)
    period = np.abs(kernel[ix, c])
    # Cramer at w_c = t: w = (I*u + t*drift) / det, with det the minor of
    # the other columns, u the numerators for w_c = 0 at I = 1 (u_c = 0)
    # and drift = det*K/K_c, so that w_c = t
    rest = cols[ix[:, None], others[c]]
    det = sign[c] * K[ix, c]
    ones = np.ones((n, 3), dtype=np.int64)
    u = np.zeros((n, 4), dtype=np.int64)
    np.put_along_axis(u, others[c], -np.stack(
        [_det3(*(ones if q == k else rest[:, q] for q in range(3))) for k in range(3)], axis=1), axis=1)
    drift = sign[c, None] * K
    step, base = np.zeros(n, dtype=np.int64), np.zeros((n, 4), dtype=np.int64)
    s, t = np.nonzero(np.arange(period.max(initial=0)) < period[:, None])  # (shape, t), t < period
    I = 0
    while len(s):  # ends by I = max |det|, where t = 0 solves every shape left
        I += 1
        num = I * u[s] + t[:, None] * drift[s]
        hit = (num % det[s, None] == 0).all(axis=1)
        solved, first = np.unique(s[hit], return_index=True)  # the first t of each shape
        step[solved], base[solved] = I, num[hit][first] // det[solved, None]
        s, t = s[step[s] == 0], t[step[s] == 0]
    return step, base, kernel


def _distinct_rows(a):
    """The distinct rows of a 2-D array, sorted.  `np.unique(a, axis=0)`
    would import `numpy.ma` on first use, about 20 ms per process."""
    import numpy as np

    a = a[np.lexsort(a.T[::-1])]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[keep]


def _det3(a, b, c):
    """Exact determinants of the 3x3 matrices with columns a, b, c (int arrays)."""
    import numpy as np

    return (a * np.cross(b, c)).sum(axis=-1)


def _lines(I: int, w_max: int):
    """The distinct segments the line shapes give at index I, as int arrays
    (start, step, length): start and step have the rows (w0, w1, w2, w3, d)
    and one column per segment, ready for `_line_points`.

    A shape whose step divides I gives the line p + k*v, with
    p = (I // step)*base and v its kernel.  Its positive ascending points
    with w3 <= w_max are one k-interval, cut by eight constraints a*k >= c:
    w_i >= 1, w_{i+1} >= w_i and w3 <= w_max.  A constraint with a > 0
    gives k >= ceil(c/a), one with a < 0 gives k <= floor(c/a), and one
    with a = 0 and c > 0 leaves nothing.  Both sides are bounded: by
    w3 <= w_max and w3 >= 1 when v3 != 0, and otherwise by some w_i with
    v_i != 0, which lies between 1 and the constant w3.  So the sentinels
    of an open side never survive.  The direction is made lexicographically
    positive, starting at the segment's lower end, so two shapes with the
    same solution line give the same row, and one copy is kept.  The d
    row is |w| - I at the start and |v| along the step.
    """
    import numpy as np

    step, base, v = _line_shapes()
    on = I % step == 0
    p, v = I // step[on, None] * base[on], v[on]
    a = np.column_stack([v, np.diff(v), -v[:, 3]])
    c = np.column_stack([1 - p, -np.diff(p), p[:, 3] - w_max])
    div = np.where(a == 0, 1, a)
    lo = np.where(a > 0, -(-c // div), -(1 << 62)).max(axis=1)
    hi = np.where(a < 0, c // div, 1 << 62).min(axis=1)
    on = (lo <= hi) & ~((a == 0) & (c > 0)).any(axis=1)
    p, v, lo, hi = p[on], v[on], lo[on], hi[on]
    flip = v[np.arange(len(v)), (v != 0).argmax(axis=1)] < 0  # the first nonzero entry
    start = p + np.where(flip, hi, lo)[:, None] * v
    v = np.where(flip[:, None], -v, v)
    rows = _distinct_rows(np.column_stack([start, start.sum(axis=1) - I, v, v.sum(axis=1), hi - lo + 1]))
    return rows[:, :5].T, rows[:, 5:10].T, rows[:, 10]


def _structured_passes(I_min: int, I_max: int, w_max: int):
    """The passes of points the structured route hands to `_admit`: the
    segments of `_lines` at each index of I_min..I_max, expanded once
    each into point arrays, which end at w3 = w_max, and each pass
    filtered by `_prefilter` with condition I tested for z0 alone.  Every
    point lies on the solution line of a shape, whose equations
    m_i*w_i + w_{j(i)} = d with m_i >= 1 are condition I for z1, z2 and z3.

    The range is clipped at (3*w_max - 1) // 2, since no index past it has
    a record: a record passes gate G1, 3*w0 > 2I, and has w0 <= w_max, so
    2I < 3*w0 <= 3*w_max.  So a huge range costs no more than its nonempty
    part, and no such index, however large, reaches the int64 arrays of
    `_lines`.
    """
    _check_bounds(I_min, I_max, w_max)
    top = min(I_max, (3 * w_max - 1) // 2)
    return (_prefilter(P, (0,)) for I in range(I_min, top + 1) for P in _line_points(*_lines(I, w_max)))


def structured_range(I_min: int, I_max: int, w_max: int) -> list[CandidateRecord]:
    """The structured route's records for I_min..I_max below w_max, in
    canonical order: one record per distinct admitted point."""
    return _records(_admit(_structured_passes(I_min, I_max, w_max)))


def structured_enumerate(I: int, w_max: int) -> list[CandidateRecord]:
    """`structured_range` at the one index I."""
    return structured_range(I, I, w_max)


PASS_CAP = 1 << 13  # points per numpy pass, so that no pass grows with w_max
ORACLE_W_MAX = (1 << 28) - 1  # the oracle's int32 arrays are exact below it (`_oracle_points`)


def _check_bounds(I_min: int, I_max: int, w_max: int) -> None:
    """Refuse, with a ValueError, arguments outside both routes' one domain."""
    if not 1 <= I_min <= I_max:
        raise ValueError(f"bad index range [{I_min}, {I_max}]")
    if not 1 <= w_max <= ORACLE_W_MAX:
        raise ValueError(f"bad weight bound {w_max}")


def _line_points(start, step, length):
    """The points start[:, s] + k*step[:, s], k = 0..length[s]-1, of each segment s.

    `start` and `step` hold one column per segment.  Yields arrays with
    the same rows, one column per point, at most `PASS_CAP` columns each;
    a pass may cut a segment.
    """
    import numpy as np

    ends = np.cumsum(length)
    total = int(ends[-1]) if len(ends) else 0
    moving = np.flatnonzero(step.any(axis=1))  # the rows some segment steps
    for a in range(0, total, PASS_CAP):
        b = min(a + PASS_CAP, total)  # the points a..b-1, counted over all segments
        s0, s1 = np.searchsorted(ends, [a, b - 1], side="right")  # their first and last segment
        seg = slice(s0, s1 + 1)
        firsts = ends[seg] - length[seg]
        n = np.minimum(ends[seg], b) - np.maximum(firsts, a)  # points of each in the pass
        P = np.repeat(start[:, seg], n, axis=1)
        P[moving] += (np.arange(a, b) - np.repeat(firsts, n)) * np.repeat(step[moving, seg], n, axis=1)
        yield P


def _prefilter(P, variables):
    """The columns of P that `classify` admits, given that every column
    passes condition I for each z_i with i not in `variables`.

    P has rows (w0, w1, w2, w3, d) with ascending positive weights and
    I = |w| - d >= 1.  Each route names in `variables` the z_i whose
    condition I its own construction does not give, with its proof.
    What this keeps is what the routes hand over as admitted:
    `verified_enumeration` compares these points, before any record is
    built, and `_records` builds each record once from them.  `classify`
    checks every condition again, so a point this wrongly keeps is still
    rejected there.  A point that a test both routes make wrongly drops is
    lost to both alike, and `verified_enumeration` cannot see it; the tests
    that compare each route with an unpruned scan at small bounds, and the
    property test against `classify`, guard that.
    The conditions, all exact integer tests:

    * condition I for each z_i of `variables`: m*w_i + w_j = d for some
      m >= 1 and j, as `quasismooth._partner` tests it, each test on the
      points still kept, in the order given.  The oracle names z1, z0, z2,
      which tests first what drops the most: its 636,754 points at
      w <= 150 fall to 62,973, 28,937 and 28,728.  The structured route
      names z0 alone: its 178,979 points at w <= 600 fall to 67,611.
      Condition I for z3, given by both routes, also gives d > w3, which
      `Candidate` asks: d = m*w3 + w_j with m >= 1 and w_j >= 1;
    * gates G1 (3*w0 > 2I) and G2 (w0 + w1 != 2I);
    * P(w) well-formed: no triple of weights shares a factor, which also
      makes the weights primitive;
    * X well-formed: gcd(w_i, w_j) divides d for every pair.

    Every value it forms is below 4*w_max, so it runs in P's dtype: int32
    for the oracle (bound in `_oracle_points`), int64 for the structured route.

    Given condition I and P(w) well-formed, the last test holds exactly
    when conditions III and II do.  `quasismooth._failure` decides those
    from the bare pairs, the pairs without a monomial z_i^a z_j^b of
    degree d: III fails only on a bare pair with j(i) = j(j) = k, and II
    exactly on a bare pair with g = gcd(w_i, w_j) > 1.  So III or II fails
    iff some bare pair has g > 1, that is iff some g does not divide d:

    * A bare pair that fails III has g > 1.  Its partner monomials give
      m_i*w_i = d - w_k = m_j*w_j.  If g = 1, then w_j divides m_i, so
      d >= m_i*w_i >= w_i*w_j > (w_i - 1)*(w_j - 1), and every integer
      from (w_i - 1)*(w_j - 1) on is some a*w_i + b*w_j (Sylvester): the
      pair would not be bare.
    * A bare pair's g does not divide d.  Its partner j(i) lies outside
      {i, j}, or z_i^{m_i} z_{j(i)} would be a pair monomial, so g | d
      and m_i*w_i + w_{j(i)} = d would give g | w_{j(i)}: a triple
      sharing g.
    * A pair whose g does not divide d has g > 1 and no monomial
      z_i^a z_j^b of degree d: it is bare.
    """
    import numpy as np

    for i in variables:
        r = P[4] - P[:4]  # d - w_j, a row per j
        wi = P[i]
        P = P.compress(((r >= wi) & (r % wi == 0)).any(axis=0), axis=1)
    w0, w1, w2, w3, d = P
    I2 = 2 * (w0 + w1 + w2 + w3 - d)
    keep = (3 * w0 > I2) & (I2 != w0 + w1)
    g = {}
    for a, b in itertools.combinations(range(4), 2):
        g[a, b] = np.gcd(P[a], P[b])
        keep &= d % g[a, b] == 0
    for a, b, c in itertools.combinations(range(4), 3):
        keep &= np.gcd(g[a, b], P[c]) == 1
    return P.compress(keep, axis=1)


def _admit(passes) -> set:
    """The distinct points (w, d) of a route's passes, which `_prefilter`
    has cut to exactly the points `classify` admits."""
    return {(tuple(p[:4]), p[4]) for P in passes for p in P.T.tolist()}


def _records(points) -> list[CandidateRecord]:
    """The record of each point, built once by `classify`, in canonical order
    (index ascending, then weights lexicographic)."""
    records = (classify(w, d) for w, d in points)
    return sorted((r for r in records if isinstance(r, CandidateRecord)), key=CandidateRecord.key)


def _oracle_segments(w0: int, I_min: int, I_max: int, w_max: int):
    """The int32 segment table (start, step, length) of the points (w0, w1,
    w2, w3, d) that `_oracle_points` allows, one column per nonempty (w1,
    I, case); the intervals and the int32 bound are proved there."""
    import numpy as np

    Is = np.arange(I_min, min(I_max, (3 * w0 - 1) // 2) + 1, dtype=np.int32)  # G1
    w1, I = np.tile(np.arange(w0, w_max + 1, dtype=np.int32), len(Is)), np.repeat(Is, w_max - w0 + 1)
    T = w0 + w1 - I
    half = w1 + (T + w1) % 2  # the first w2 with T + w2 even
    # per case: first w2, last w2 (0 < w1 when the case is empty), w3 at the
    # first w2, and the steps of w2 and w3
    cases = [
        (w1, w_max - T, T + w1, 1, 1),  # w3 = T + w2
        (half, np.minimum(T, 2 * w_max - T), (T + half) // 2, 2, 1),  # w3 = (T + w2)/2
        (w1, np.where(w1 >= I, w_max - w1 + I, 0), 2 * w1 - I, 1, 1),  # w3 = w1 + w2 - I
        (w1, np.where(w0 >= I, w_max - w0 + I, 0), T, 1, 1),  # w3 = w0 + w2 - I
        (w1, np.where(T <= w_max, T, 0), T, 1, 0),  # w3 = T
    ]
    z = 0 * w1  # broadcasts the constant entries
    # rows w1, I and the five values above, one column per (case, w1, I)
    table = np.array([[x + z for x in (w1, I, *c)] for c in cases]).transpose(1, 0, 2).reshape(7, -1)
    w1, I, first, last, w3, a2, a3 = table.compress(table[3] >= table[2], axis=1)  # last >= first: nonempty
    start = np.array([np.full_like(w1, w0), w1, first, w3, w0 + w1 + first + w3 - I])
    step = np.array([0 * w1, 0 * w1, a2, a3, a2 + a3])
    return start, step, (last - first) // a2 + 1


def _z2_candidates(start, step, length):
    """The points of the segments that can pass gate G2 and condition I for
    z2, as (whole, seg, k): the mask of the segments expanded whole, and
    each other candidate as its segment and its step count on it.  The
    proof is in `_oracle_points`.  One round per q serves every (j, s) pair
    at once: q rises from its pair's q_lo, and a pair leaves once q passes
    its q_hi, so there are max(q_hi) rounds (5 at w <= 150) and the arrays
    are O(pairs), at most four per segment of the table."""
    import numpy as np

    f, a2 = start[2], step[2]
    c = np.abs(a2 * (start[4] - start[:4]) - (step[4] - step[:4]) * f)  # |c_j|, a row per j
    g2 = start[0] + start[1] != 2 * (start[0] + start[1] + start[2] + start[3] - start[4])
    whole = g2 & (c == 0).any(axis=0)
    pairs = g2 & ~whole & (c >= f)  # the (j, s) that may have some q
    s, cj = np.nonzero(pairs)[1], c[pairs]
    q, q_hi = -(-cj // (f + (length - 1) * a2)[s]), cj // f[s]  # w2 = c_j/q lies in [f, last]
    hits = [np.zeros((2, 0), dtype=np.int32)]
    while len(s):  # the round of q for every pair that has not passed its q_hi
        on = q <= q_hi
        s, cj, q, q_hi = s[on], cj[on], q[on], q_hi[on]
        w2, rem = np.divmod(cj, q)
        k, odd = np.divmod(w2 - f[s], a2[s])
        hits.append(np.stack([s, k]).compress((rem == 0) & (odd == 0), axis=1))
        q += 1
    seg, k = np.concatenate(hits, axis=1, dtype=np.int32)
    return whole, seg, k


def _oracle_points(w0: int, I_min: int, I_max: int, w_max: int):
    """The passes of points (w0, w1, w2, w3, d) with smallest weight w0 and
    I_min <= I <= I_max that the oracle hands to `_prefilter`, at most
    `PASS_CAP` columns each.

    They are every (I, w) the conditions below allow that can pass gate G2
    and condition I for z2; w3 is never scanned.  Each condition is
    necessary for admission, `_prefilter` drops what fails condition I for
    z0..z2 or the rest of its list, and `classify` builds the record of
    every survivor.
    Write S = w0 + w1 + w2, so that d = S + w3 - I.

    * 3*w0 > 2I: otherwise `gate_check` fails (G1).  The intervals below
      need it; gate G2 is only pruning, applied per segment below and
      again by `_prefilter`.
    * w3 in {S - I, (S - I)/2, S - w0 - I, S - w1 - I, S - w2 - I}.
      Condition I for z3 asks for d - w_j = m*w3 with m >= 1 and some j.
      - j = 3: d - w3 = S - I <= 3*w3 - I < 3*w3, so m <= 2 and w3 is
        S - I or (S - I)/2.
      - j < 3: d - w_j = (S - w_j - I) + w3, where S - w_j >= 2*w0 > I
        since 3*w0 > 2I, so d - w_j > w3 and m >= 2.  Also
        d - w_j <= 2*w3 - I + w3 < 3*w3, so m = 2 and w3 = S - w_j - I.
      Either way d = (m + 1)*w3 or d = 2*w3 + w_j, so d <= 3*w3 follows.
    * w1 <= w2 <= w3 <= w_max: the tuple is ascending and inside the box.

    With T = w0 + w1 - I, so S - I = T + w2, each w3 value gives one
    interval of w2 >= w1.  G1 makes T > w1 - w0/2 > 0.
    - w3 = T + w2: w3 >= w2 always; w3 <= w_max iff w2 <= w_max - T.
    - w3 = (T + w2)/2, only for T + w2 even: w3 >= w2 iff w2 <= T, and
      w3 <= w_max iff w2 <= 2*w_max - T.  w2 starts at w1 or w1 + 1,
      whichever has the parity of T, and steps by 2; w3 steps by 1.
    - w3 = w1 + w2 - I: w3 >= w2 iff w1 >= I; then w2 <= w_max - w1 + I.
    - w3 = w0 + w2 - I: w3 >= w2 iff w0 >= I; then w2 <= w_max - w0 + I.
    - w3 = T: w3 >= w2 iff w2 <= T, and w3 <= w_max iff T <= w_max.
    On each interval w2 and w3 are linear in the step count, so every
    (w1, I, case) is one segment (`_oracle_segments`, which keeps the
    nonempty ones); the table holds at most 5*(w_max - w0 + 1) per index.
    Two cases can give the same w3; the set in `_admit` keeps one copy.

    `_z2_candidates` then expands only the points that can pass gate G2
    and condition I for z2, which asks for w2 | r_j = d - w_j, r_j >= w2,
    for some j:
    - G2 (w0 + w1 != 2I) is constant on a segment; a failing segment is
      dropped whole.
    - On a segment w2 = f + a2*k and r_j = r_j0 + rho_j*k for k >= 0, so
      c_j = a2*r_j - rho_j*w2 = a2*r_j0 - rho_j*f does not depend on k,
      and w2 | r_j gives w2 | c_j.  When c_j != 0, w2 = |c_j|/q for an
      integer q, and f <= w2 <= last (the segment's last w2) bounds it:
      |c_j|/last <= q <= |c_j| // f.  At w <= 150, q <= 5.
    - A segment with some c_j = 0 gives no such bound and is expanded
      whole.  This happens: on w3 = w0 + w2 - I with w0 = I, d = w1 + 2*w2
      and r_1 = 2*w2, so every point passes.
    Candidates are emitted like the segments, at most `PASS_CAP` points a
    pass.  `_prefilter` tests z2 exactly, so a candidate that fails costs
    time, never a record.

    The oracle's segment table and point arrays are int32: every value
    they form is below 8*w_max, and `brute_force_enumerate` keeps
    w_max <= ORACLE_W_MAX = 2^28 - 1, so 8*w_max < 2^31.  G1 gives
    I < 3*w0/2, so T, the interval ends and the w3 at a first w2 stay
    below 3*w_max + 1, empty cases included.  On a kept segment every
    weight lies in 1..w_max, so d < 4*w_max.  The largest value is in c_j:
    a2*r_j0 <= 2*d < 8*w_max, and rho_j*f <= 3*w_max.  q <= |c_j|, and
    w2 = |c_j|/q lies on the segment.
    """
    start, step, length = _oracle_segments(w0, I_min, I_max, w_max)
    whole, seg, k = _z2_candidates(start, step, length)
    yield from _line_points(start[:, whole], step[:, whole], length[whole])
    for a in range(0, len(seg), PASS_CAP):
        s = seg[a:a + PASS_CAP]
        # take gathers columns about twice as fast as [:, s]
        yield start.take(s, axis=1) + step.take(s, axis=1) * k[a:a + PASS_CAP]


def _oracle_passes(I_min: int, I_max: int, w_max: int):
    """The passes of points the oracle hands to `_admit`: those of
    `_oracle_points` for each smallest weight w0, each w0 serving every
    index of I_min..I_max, and each pass filtered by `_prefilter` with
    condition I tested for z1, z0 and z2.  Every point passes it for z3,
    since w3 is solved from it: each w3 case of `_oracle_points` gives
    d - w_j = m*w3 for some j and m in {1, 2}.

    w0 runs from the first value gate G1 allows at I_min to
    min(w_max, (2*w_max + I_max) // 3).  Past that no w0 has a point.  With
    S = w0 + w1 + w2, d - w_j = m*w3 reads S - I = w_j + (m - 1)*w3, which
    is at most 2*w3 as w_j <= w3 and m <= 2.  So 2*w3 >= S - I >=
    3*w0 - I_max, and w3 <= w_max asks for 3*w0 <= 2*w_max + I_max.  The
    `min` keeps a huge I_max from carrying w0 past w_max.
    """
    _check_bounds(I_min, I_max, w_max)
    w0_min = (2 * I_min) // 3 + 1  # gate G1 at the smallest index
    w0_max = min(w_max, (2 * w_max + I_max) // 3)
    return (_prefilter(P, (1, 0, 2)) for w0 in range(w0_min, w0_max + 1)
            for P in _oracle_points(w0, I_min, I_max, w_max))


def brute_force_enumerate(I_min: int, I_max: int, w_max: int) -> list[CandidateRecord]:
    """Exhaustive scan: the complete record list below the weight bound, in
    canonical order, one record per distinct admitted point."""
    return _records(_admit(_oracle_passes(I_min, I_max, w_max)))


def verified_enumeration(I_min: int, I_max: int, w_max: int) -> list[CandidateRecord]:
    """The oracle's records for I_min..I_max below w_max, checked against the structured search.

    The two routes' admitted points are compared before any record is
    built; `RouteDisagreement` names each (I, w, d) that one route finds
    and the other lacks.  When they agree, each record is built once, from
    the oracle's points.  Both routes drop points through the same
    `_prefilter`; only its condition-I tests differ by route, so a point
    that its gates or gcd tests (conditions III and II included), or its
    test for z0, wrongly drop goes missing from both, and this check
    cannot see it.
    """
    found = _admit(_oracle_passes(I_min, I_max, w_max))
    structured = _admit(_structured_passes(I_min, I_max, w_max))
    lacking = {"structured search": found - structured, "exhaustive oracle": structured - found}
    disputed = sorted(((sum(w) - d, w, d), route) for route, points in lacking.items() for w, d in points)
    if disputed:
        raise RouteDisagreement(disputed)
    return _records(found)
