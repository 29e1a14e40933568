"""Smith normal form, kernels, and linear solving over the supported rings.

Each ring's arithmetic stays in that ring, and there are two eliminations:

* Z and Z/p^k: the Smith form ``_smith``, by division with remainder, with
  m = 0 over Z and m = p^k over Z/p^k.  Its pivot is an entry whose ideal
  gcd(x, m) is least: the least |x| over Z, the least p-adic valuation
  over Z/p^k.  Over Z/p^k the pivot row is scaled by the inverse of the
  pivot's unit part, so the pivot is p^v, divides every entry left, and
  one sweep clears its row and column; every entry stays in [0, p^k).
* Q and Z/p: row echelon form ``_rref``, on the raw entries (Fractions
  over Q, ints mod p over Z/p), reduced for kernels and solving.

Yes/no questions read ``invariant_factors``, the nonzero diagonal of the
Smith form with no transform built (over a field, one 1 per pivot of
forward elimination): normal forms, invertibility, and whether vectors
vanish in a module, which compares two normal forms.  Over Z and Z/p^k
transforms of U*M*V = S are built only where coordinates are read:
kernels build V, solving (``coordinates_mod``) and the mesh projections
of ``hom_basis_oracle`` take the full (S, U, V) of ``smith_normal_form``.
No step on S or V reads U, so S and V do not depend on which transforms
are built.  A kernel taken modulo vectors X of ker M
(``kernel_basis(M, modulo=X)``, the middle homology of a complex into a
module with no relations) also carries V⁻¹·X, applying each column
operation on V to X as its inverse row operation; the coordinates of X
on the kernel generators are its rows, one elimination in all.
"""

from __future__ import annotations

from math import gcd

from ..errors import NotWellDefined, UnsupportedRing
from .matrix import Matrix
from .rings import INTEGERS, RATIONALS


# ---------------------------------------------------------------------------
# Smith normal form over Z and Z/p^k
# ---------------------------------------------------------------------------

def _smith(entries, rows, cols, m, u=True, v=True, vinv=None):
    """Return (S, U, V) as dense integer lists with U*M*V = S, over Z when
    m = 0 and over Z/m when m = p^k, with ``entries`` then in [0, m).

    S is diagonal with d1 | d2 | ...: over Z the d_i are >= 0, over Z/p^k
    they are powers of p below m (or 0), and every entry of S, U and V is
    in [0, m).  U and V are products of elementary row/column operations.
    A zero matrix is left untouched, so U and V come back as identities.
    U (V) is built only when ``u`` (``v``) is true and is None otherwise;
    no step reads U or V, so S, and V when built, are the same either way.

    ``vinv``, when given, is a list of ``cols`` rows, the rows of some X.
    Each column operation on V is applied to it, in place, as the inverse
    row operation, so it ends as V⁻¹·X (V⁻¹ itself for X = I) with no
    inverse or product taken; no step reads it either.
    """
    A = [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)] if u else None
    V = [[int(i == j) for j in range(cols)] for i in range(cols)] if v else None
    W = vinv
    row_lists = (A, U) if u else (A,)
    col_lists = (A, V) if v else (A,)

    def swap_rows(i, j):
        if i != j:
            for X in row_lists:
                X[i], X[j] = X[j], X[i]

    def swap_cols(i, j):
        if i != j:
            for X in col_lists:
                for row in X:
                    row[i], row[j] = row[j], row[i]
            if W is not None:
                W[i], W[j] = W[j], W[i]

    def add_row(src, dst, c):  # row_dst += c * row_src
        if c:
            for X in row_lists:
                Xd = X[dst]
                for k, x in enumerate(X[src]):
                    if x:
                        Xd[k] = (Xd[k] + c * x) % m if m else Xd[k] + c * x

    def add_col(src, dst, c):  # col_dst += c * col_src
        if c:
            for X in col_lists:
                for row in X:
                    x = row[src]
                    if x:
                        row[dst] = (row[dst] + c * x) % m if m else row[dst] + c * x
            if W is not None:  # undone on the left by row_src -= c * row_dst
                Ws = W[src]
                for k, x in enumerate(W[dst]):
                    if x:
                        Ws[k] = (Ws[k] - c * x) % m if m else Ws[k] - c * x

    t = 0
    n = min(rows, cols)
    while t < n:
        # the first entry of A[t:, t:], row by row, whose ideal gcd(x, m) is least
        pivot = None
        best = None
        for i in range(t, rows):
            Ai = A[i]
            for j in range(t, cols):
                x = Ai[j]
                if x:
                    a = gcd(x, m)
                    if best is None or a < best:
                        best, pivot = a, (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        unit = A[t][t] // best
        if m and unit != 1:  # scale the pivot to p^v = best
            inv = pow(unit, -1, m)
            for X in row_lists:
                X[t] = [x * inv % m for x in X[t]]

        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:  # remainder strictly smaller: re-pivot
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, cols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            if m:  # p^v divides every entry left
                break
            # pivot must divide every remaining entry
            culprit = None
            d = A[t][t]
            for i in range(t + 1, rows):
                Ai = A[i]
                for j in range(t + 1, cols):
                    if Ai[j] % d:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, t, 1)  # fold the bad row in and restart
        if A[t][t] < 0:
            for X in row_lists:
                X[t] = [-x for x in X[t]]
        t += 1

    return A, U, V


def _snf_int(entries, rows, cols):
    """``_smith`` over Z with both transforms: the entry
    ``smith_normal_form`` calls for the full (S, U, V) over Z."""
    return _smith(entries, rows, cols, 0)


def smith_normal_form(M: Matrix):
    """(S, U, V) with U*M*V = S over Z or Z/p^k, from ``_smith``.

    The diagonal satisfies d1 | d2 | ...; over Z the entries are >= 0,
    over Z/p^k they are powers of p below p^k (or 0).  Raises
    UnsupportedRing over Q, where Gaussian elimination applies instead.
    """
    ring = M.ring
    if ring.kind == RATIONALS:
        raise UnsupportedRing("Smith normal form is for Z and Z/p^k")
    if ring.kind == INTEGERS:
        S, U, V = _snf_int(M.entries, M.rows, M.cols)
    else:
        S, U, V = _smith(M.entries, M.rows, M.cols, ring.modulus)

    def matrix(lists, rows, cols):
        return Matrix._trusted(ring, rows, cols, [x for row in lists for x in row])
    return (matrix(S, M.rows, M.cols), matrix(U, M.rows, M.rows),
            matrix(V, M.cols, M.cols))


# ---------------------------------------------------------------------------
# Gaussian elimination over the fields
# ---------------------------------------------------------------------------

def _rref(M: Matrix, reduced=True):
    """Reduced row echelon form over a field; returns (rows, pivot cols).
    With ``reduced`` false the entries above each pivot are left, and the
    rows are a row echelon form with the same pivots.

    Works on the raw entries: Fraction arithmetic over Q, ints reduced
    mod p over Z/p.  A row operation touches only the columns where the
    pivot row is nonzero.
    """
    p = M.ring.modulus  # None over Q
    rows, cols = M.rows, M.cols
    A = M.to_lists()
    pivots = []
    r = 0
    for j in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if A[i][j]:
                break
        else:
            continue
        A[r], A[i] = A[i], A[r]
        Ar = A[r]
        support = [k for k in range(j, cols) if Ar[k]]
        x = Ar[j]
        if x != 1:
            if p is None:
                inv = 1 / x
                for k in support:
                    Ar[k] *= inv
            else:
                inv = pow(x, -1, p)
                for k in support:
                    Ar[k] = Ar[k] * inv % p
        for i in range(0 if reduced else r + 1, rows):
            Ai = A[i]
            c = Ai[j]
            if c and i != r:
                if p is None:
                    for k in support:
                        Ai[k] -= c * Ar[k]
                else:
                    for k in support:
                        Ai[k] = (Ai[k] - c * Ar[k]) % p
        pivots.append(j)
        r += 1
    return A, pivots


def field_rank(M: Matrix) -> int:
    """The rank over a field: the pivot count of forward elimination."""
    _, pivots = _rref(M, reduced=False)
    return len(pivots)


def _field_kernel(M: Matrix, modulo=None):
    ring = M.ring
    A, pivots = _rref(M)
    free = [j for j in range(M.cols) if j not in pivots]
    cols = []
    for f in free:
        v = [ring.zero] * M.cols
        v[f] = ring.one
        for r, pj in enumerate(pivots):
            v[pj] = ring.neg(A[r][f])
        cols.append(v)
    K = Matrix._trusted(ring, M.cols, len(cols),
                        [cols[j][i] for i in range(M.cols) for j in range(len(cols))])
    if modulo is None:
        return K
    # x is in ker M exactly when every pivot row of A vanishes on it, and
    # then x = K·x[free]
    X, p = modulo.to_lists(), ring.modulus or 0
    for r, pj in enumerate(pivots):
        terms = [(X[f], A[r][f]) for f in free if A[r][f]]
        for j, x in enumerate(X[pj]):
            x += sum(a * row[j] for row, a in terms)
            if x % p if p else x:
                raise NotWellDefined("a column lies outside the kernel")
    return K, modulo.take_rows(free)


def _field_solve_matrix(M: Matrix, B: Matrix):
    """X with M*X = B over a field, or None; one elimination for all columns."""
    ring = M.ring
    aug = Matrix.hstack([M, B])
    A, pivots = _rref(aug)
    pivots_in_M = [j for j in pivots if j < M.cols]
    if len(pivots_in_M) != len(pivots):
        return None  # a pivot fell in the right-hand block
    out = [[ring.zero] * B.cols for _ in range(M.cols)]
    for r, pj in enumerate(pivots_in_M):
        for j in range(B.cols):
            out[pj][j] = A[r][M.cols + j]
    return Matrix._trusted(ring, M.cols, B.cols, [x for row in out for x in row])


# ---------------------------------------------------------------------------
# kernels and solving over every supported ring
# ---------------------------------------------------------------------------

def kernel_basis(M: Matrix, modulo: Matrix | None = None):
    """Columns K generating {x : Mx = 0}.  With ``modulo``, whose columns
    must lie in ker M, it returns (K, R): R presents ker M / span(modulo)
    on the generators K, read off the same elimination, and NotWellDefined
    is raised for a column outside ker M.

    Over Z and the fields the columns of K are linearly independent (a
    basis); over Z/p^k they are a generating set.  Over a field K is read
    from the reduced echelon form, and a kernel vector x is K·x[free], so
    R is modulo's rows at the free columns.  Over Z and Z/p^k K is read
    from the diagonal and V of ``_smith``, which builds no U: column i is
    (m/d_i)·V_i, kept where d_i is not a unit (m = 0 over Z, where only
    d_i = 0 is kept).  Then y = V⁻¹x, carried through ``_smith`` on
    modulo's rows, has d_i·y_i = 0 in every row exactly when Mx = 0, and
    x = K·(y_i / (m/d_i)) over the kept i; over Z/p^k a generator with
    0 < d_i is killed by d_i, one more column of R each.
    """
    ring = M.ring
    if ring.is_field:
        return _field_kernel(M, modulo)
    m = ring.modulus or 0
    Y = None if modulo is None else modulo.to_lists()
    S, _, V = _smith(M.entries, M.rows, M.cols, m, u=False, vinv=Y)
    # x_i is free where d_i = 0 and a multiple of m/d_i otherwise, with m = 0
    # over Z: there a nonzero d_i forces x_i = 0, and the column is dropped
    scales = [m // S[i][i] if S[i][i] else 1 for i in range(min(M.rows, M.cols))]
    scales += [1] * (M.cols - len(scales))
    gens = [i for i, c in enumerate(scales) if c != m]
    if m:
        entries = [row[i] * scales[i] % m for row in V for i in gens]
    else:  # over Z every kept column has scale 1
        entries = [row[i] for row in V for i in gens]
    K = Matrix._trusted(ring, M.cols, len(gens), entries)
    if modulo is None:
        return K
    # d_i·y_i = 0 (mod m) is y_i = 0 where the scale is 0 (over Z) or m
    # (a unit d_i), and m/d_i dividing y_i otherwise
    if any(y % c if c else y for c, row in zip(scales, Y) for y in row):
        raise NotWellDefined("a column lies outside the kernel")
    torsion = [i for i in gens if scales[i] != 1]  # killed by d_i = m/scale
    rel = [[y // scales[i] for y in Y[i]] + [m // scales[i] if t == i else 0
                                             for t in torsion] for i in gens]
    return K, Matrix._trusted(ring, len(gens), modulo.cols + len(torsion),
                              [x for row in rel for x in row])


def solve_matrix(M: Matrix, B: Matrix):
    """X with M*X = B, or None; one decomposition shared by all columns.
    A column b gives a particular solution x of Mx = b."""
    if B.cols == 0:
        return Matrix.zeros(M.ring, M.cols, 0)
    if M.ring.is_field:
        return _field_solve_matrix(M, B)
    # U*M*V = S, so M*X = B is S*Y = U*B with X = V*Y.  Each diagonal entry
    # d divides its row of U*B exactly when the system is consistent: over
    # Z/p^k, d = p^v and the canonical representative is divisible as an int.
    S, U, V = smith_normal_form(M)
    t = min(M.rows, M.cols)
    C = U * B
    Y = [[0] * B.cols for _ in range(M.cols)]
    for i in range(M.rows):
        d = S[i, i] if i < t else 0
        row = C.row(i)
        if d == 0:
            if any(row):
                return None
            continue
        if any(c % d for c in row):
            return None
        Y[i] = [c // d for c in row]
    return V * Matrix._trusted(M.ring, M.cols, B.cols, [y for row in Y for y in row])


solve = solve_matrix


# ---------------------------------------------------------------------------
# invariant factors: every yes/no question, with no transform
# ---------------------------------------------------------------------------

def invariant_factors(M: Matrix) -> list:
    """The nonzero diagonal d1 | d2 | ... of the Smith form of M, with a
    unit read as 1, and no transform built: ``[1] * field_rank(M)`` over a
    field, ``_smith`` with neither U nor V over Z and Z/p^k."""
    if M.ring.is_field:
        return [1] * field_rank(M)
    S, _, _ = _smith(M.entries, M.rows, M.cols, M.ring.modulus or 0,
                     u=False, v=False)
    return [d for d in (S[i][i] for i in range(min(M.rows, M.cols))) if d]


def matrix_is_invertible(M: Matrix) -> bool:
    """Square with every invariant factor 1; a 1x1 matrix is decided by
    whether its entry is a unit, with no elimination."""
    if M.rows != M.cols:
        return False
    if M.rows == 1:
        return M.ring.is_unit(M[0, 0])
    return invariant_factors(M) == [1] * M.rows
