"""Exact integer linear algebra: normal forms, kernels, lattices.

Everything here works with arbitrary-precision Python integers; rank
computations use fraction-free (Bareiss) elimination so no rounding can
occur anywhere downstream.

Conventions fixed once for the whole package:

* Hermite normal form is column-style: ``A @ U = H`` with ``U`` unimodular,
  pivot rows strictly increasing with the column index, pivots positive,
  and the entries in a pivot row left of the pivot reduced into
  ``[0, pivot)``.  Zero columns are pushed to the right.
* A :class:`Sublattice` always stores its basis in this canonical column
  HNF, which makes lattice equality a plain tuple comparison.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from math import gcd
from operator import add, mul, neg, sub

from .errors import DimensionMismatch
from .values import value


def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


def vec_neg(u):
    return tuple(map(neg, u))


def vec_scale(c, u):
    return tuple(map(mul, repeat(c), u))


def vec_dot(u, v):
    return sum(map(mul, u, v))


def vec_is_zero(u):
    return not any(u)


def vec_primitive(u):
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = 0
    for a in u:
        g = gcd(g, a)
    if g == 0:
        return tuple(u)
    return tuple(a // g for a in u)


def vec_str(u):
    """The vector as text, e.g. (1, -2); a 1-vector is (1)."""
    return "(" + ", ".join(str(a) for a in u) + ")"


@value(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch("entry count does not match shape")

    @staticmethod
    def from_rows(rows, ncols=None):
        rows = [tuple(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        return IntMatrix(len(rows), ncols, tuple(x for r in rows for x in r))

    @staticmethod
    def from_cols(cols, nrows=None):
        cols = [tuple(c) for c in cols]
        if nrows is None:
            if not cols:
                raise DimensionMismatch("need nrows for an empty column list")
            nrows = len(cols[0])
        if any(len(c) != nrows for c in cols):
            raise DimensionMismatch("ragged columns")
        return IntMatrix(
            nrows, len(cols), tuple(cols[j][i] for i in range(nrows) for j in range(len(cols)))
        )

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def col_list(self):
        return [self.col(j) for j in range(self.cols)]

    def mul(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        cols = other.col_list()
        return IntMatrix(self.rows, other.cols,
                         tuple(vec_dot(self.row(i), c) for i in range(self.rows) for c in cols))

    def mul_vec(self, v):
        if self.cols != len(v):
            raise DimensionMismatch("matrix-vector shape mismatch")
        return tuple(vec_dot(self.row(i), v) for i in range(self.rows))


def _colswap(rows, a, b):
    """Swap columns a and b in each of the row lists `rows`."""
    for r in rows:
        r[a], r[b] = r[b], r[a]


def _coladd(rows, dst, src, q):
    """Column dst += q * column src in each of the row lists `rows`."""
    for r in rows:
        r[dst] += q * r[src]


def _hnf_in_place(mat, trans):
    """Column HNF by integer column operations, mirrored on `trans`."""
    ncols = len(mat[0]) if mat else 0
    rows = mat + trans
    c = 0
    for i in range(len(mat)):
        if c >= ncols:
            break
        # gcd-reduce row i across columns >= c
        while True:
            nz = [j for j in range(c, ncols) if mat[i][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(mat[i][j]))
            if jmin != c:
                _colswap(rows, c, jmin)
            done = True
            for j in range(c + 1, ncols):
                if mat[i][j] != 0:
                    q = mat[i][j] // mat[i][c]
                    _coladd(rows, j, c, -q)
                    if mat[i][j] != 0:
                        done = False
            if done:
                break
        if c < ncols and mat[i][c] != 0:
            if mat[i][c] < 0:
                for r in rows:
                    r[c] = -r[c]
            piv = mat[i][c]
            for j in range(c):
                q = mat[i][j] // piv  # floor division: leaves residue in [0, piv)
                if q:
                    _coladd(rows, j, c, -q)
            c += 1


def hnf(a: IntMatrix):
    """Column Hermite normal form: returns (H, U) with A @ U = H, U unimodular."""
    mat = a.row_list()
    trans = IntMatrix.identity(a.cols).row_list()
    _hnf_in_place(mat, trans)
    return IntMatrix.from_rows(mat, a.cols), IntMatrix.from_rows(trans, a.cols)


def snf(a: IntMatrix):
    """Smith normal form: returns (D, U, V) with U @ A @ V = D diagonal,
    d_1 | d_2 | ... >= 0, U and V unimodular."""
    m = a.row_list()
    nrows, ncols = a.rows, a.cols
    u = IntMatrix.identity(nrows).row_list()
    v = IntMatrix.identity(ncols).row_list()

    def rowadd(dst, src, q):  # rebinds rows of m, so column operations take m + v afresh
        m[dst] = list(map(add, m[dst], map(mul, repeat(q), m[src])))
        u[dst] = list(map(add, u[dst], map(mul, repeat(q), u[src])))

    t = 0
    while t < min(nrows, ncols):
        # find a pivot: nonzero entry of minimal absolute value in the block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        m[t], m[i] = m[i], m[t]
        u[t], u[i] = u[i], u[t]
        _colswap(m + v, t, j)
        # clear row t and column t
        dirty = False
        for i in range(t + 1, nrows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                rowadd(i, t, -q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                _coladd(m + v, j, t, -q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        piv = m[t][t]
        fixed = True
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % piv != 0:
                    rowadd(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if piv < 0:
            m[t] = [-e for e in m[t]]
            u[t] = [-e for e in u[t]]
        t += 1
    return IntMatrix.from_rows(m, ncols), IntMatrix.from_rows(u), IntMatrix.from_rows(v)


def rank(a: IntMatrix) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) row elimination."""
    m = a.row_list()
    nrows, ncols = a.rows, a.cols
    r, prev = 0, 1
    for c in range(ncols):
        if r == nrows:
            break
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        top, p = m[r], m[r][c]
        for row in m[r + 1:]:
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
        r += 1
    return r


def solve_integer(b: IntMatrix, v):
    """Solve B @ y = v over the integers; returns y or None.

    Works for any B via the column HNF: B U = H, solve H z = v by forward
    substitution on the pivot rows, then y = U z.
    """
    if len(v) != b.rows:
        raise DimensionMismatch("vector length does not match row count")
    h, u = hnf(b)
    z = [0] * b.cols
    pivots = []  # (row, col)
    r = -1
    for j in range(b.cols):
        col = h.col(j)
        nz = [i for i in range(b.rows) if col[i] != 0]
        if not nz:
            break
        pr = nz[0]
        if pr <= r:
            continue
        r = pr
        pivots.append((pr, j))
    for pr, j in pivots:
        acc = v[pr] - sum(h.entry(pr, k) * z[k] for k in range(j))
        piv = h.entry(pr, j)
        if acc % piv != 0:
            return None
        z[j] = acc // piv
    if h.mul_vec(tuple(z)) != tuple(v):
        return None
    return u.mul_vec(tuple(z))


def kernel_cols(a: IntMatrix) -> IntMatrix:
    """Columns spanning {x : A x = 0}; saturated because U is unimodular."""
    if a.rows == 0:
        return IntMatrix.identity(a.cols)
    h, u = hnf(a)
    ker = [u.col(j) for j in range(a.cols) if vec_is_zero(h.col(j))]
    return IntMatrix.from_cols(ker, nrows=a.cols)


@value(frozen=True)
class Sublattice:
    """Finite-rank sublattice of Z^n, stored via its canonical HNF basis."""

    ambient_rank: int
    basis: IntMatrix  # n x r, canonical column HNF, no zero columns

    @staticmethod
    def from_generators(ambient_rank, vectors):
        """Sublattice spanned by the given integer vectors (may be dependent)."""
        for v in vectors:
            if len(v) != ambient_rank:
                raise DimensionMismatch("generator length does not match ambient rank")
        if not vectors:
            return Sublattice(ambient_rank, IntMatrix(ambient_rank, 0, ()))
        rows = [list(x) for x in zip(*vectors)]
        _hnf_in_place(rows, [])  # the basis alone: no transform to keep
        cols = [c for c in zip(*rows) if any(c)]
        return Sublattice(ambient_rank, IntMatrix.from_cols(cols, nrows=ambient_rank))

    @staticmethod
    def full(ambient_rank):
        return Sublattice(ambient_rank, IntMatrix.identity(ambient_rank))

    @staticmethod
    def zero(ambient_rank):
        return Sublattice(ambient_rank, IntMatrix(ambient_rank, 0, ()))

    @property
    def rank(self):
        return self.basis.cols

    def basis_vectors(self):
        return self.basis.col_list()

    @cached_property
    def _pivots(self):
        """(pivot row, column) per basis column; the pivot is its first nonzero entry."""
        return tuple((next(i for i, x in enumerate(c) if x), c) for c in self.basis.col_list())


def lattice_coords(lat: Sublattice, v):
    """The integer y with lat.basis @ y = v, or None when v is not in `lat`.

    Forward substitution on the stored column HNF: column j is zero above
    its pivot row, so once columns 0..j-1 are subtracted the pivot fixes y_j
    by exact division, and v is in `lat` iff nothing is left over at the end.
    """
    if len(v) != lat.ambient_rank:
        raise DimensionMismatch("vector length does not match ambient rank")
    rest = list(v)
    y = []
    for p, col in lat._pivots:
        q, r = divmod(rest[p], col[p])
        if r:
            return None
        y.append(q)
        rest = list(map(sub, rest, map(mul, repeat(q), col)))
    return None if any(rest) else tuple(y)


def lattice_residue(lat: Sublattice, v):
    """The representative of the coset v + lat that the stored column HNF
    picks: v less q times each basis column, in pivot order, with q the floor
    of v's pivot entry over the pivot.  Later columns are zero on earlier
    pivot rows, so each pivot entry ends in [0, pivot): two vectors have one
    residue iff they differ by an element of `lat`, and those have residue 0."""
    rest = tuple(v)
    for p, col in lat._pivots:
        rest = vec_sub(rest, vec_scale(rest[p] // col[p], col))
    return rest


def member_lattice(lat: Sublattice, v) -> bool:
    """True iff v is an integer combination of the basis columns."""
    return lattice_coords(lat, v) is not None


def smith_columns(lat: Sublattice):
    """The Smith diagonal d of lat's basis B (U B V = D) and the columns of
    B V.  As B V = U^-1 D, column i is d_i times the i-th column of U^-1:
    those columns are a basis of the saturation Z^n intersect span(lat), and
    (its saturation)/lat has invariant factors d."""
    d, _u, v = snf(lat.basis)
    return [d.entry(i, i) for i in range(lat.rank)], lat.basis.mul(v).col_list()


def saturate(lat: Sublattice) -> Sublattice:
    """Z^n intersect span(lat): the columns of `smith_columns` divided by d_i."""
    n = lat.ambient_rank
    if lat.rank == 0:
        return lat
    if lat.rank == n:
        return Sublattice.full(n)
    d, cols = smith_columns(lat)
    return Sublattice.from_generators(n, [tuple(x // di for x in c) for di, c in zip(d, cols)])


def lattice_contains(big: Sublattice, small: Sublattice) -> bool:
    return all(member_lattice(big, v) for v in small.basis_vectors())
