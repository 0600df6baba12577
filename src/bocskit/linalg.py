"""Exact dense linear algebra over the rationals.

Everything downstream (path algebras, module categories, Ext computations,
bocs structure constants) reduces to row operations on matrices of
`fractions.Fraction`.  Matrices are immutable; all operations return fresh
objects.  This module alone knows how subspaces and spaces of maps are
held in coordinates: a Span keeps a subspace as its reduced row echelon
basis and gives the projection onto a complement, and a MapSpace solves
for and combines coordinates of maps in a list of maps.  Tensor products
M (x) N are held in the row-major layout of `outer`; `kron_apply` applies
a tensor product of maps and `balanced_relations` presents M (x)_B N,
both sparsely, without forming a Kronecker matrix.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to a Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def rref_rows(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Reduced row echelon form of a list of row vectors.

    Returns (reduced nonzero rows, pivot column list).  Row order follows
    pivot order; ties are never an issue because elimination is deterministic.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    nrows = len(work)
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][col]
        if inv != 1:
            work[r] = [v / inv for v in work[r]]
        for i in range(nrows):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                wi = work[i]
                wr = work[r]
                work[i] = [a - c * b for a, b in zip(wi, wr)]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work[:r], pivots


def reduce_against(vec: Sequence[Fraction], rows: Sequence[Sequence[Fraction]],
                   pivots: Sequence[int]) -> list[Fraction]:
    """Normal form of vec modulo the span of RREF rows."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c != 0:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def in_span(vec, rows, pivots) -> bool:
    return all(c == 0 for c in reduce_against(vec, rows, pivots))


def complement_pivots(pivots: Sequence[int], ncols: int) -> list[int]:
    pset = set(pivots)
    return [j for j in range(ncols) if j not in pset]


class Matrix:
    """Immutable dense matrix over Fraction, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable]):
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(frac(x) for x in r) for r in data)
        if len(self.data) != rows or any(len(r) != cols for r in self.data):
            raise ValueError("entry grid does not match declared shape")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [[ONE if i == j else ZERO for j in range(n)]
                          for i in range(n)])

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "Matrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        cols = len(columns)
        rows = len(columns[0]) if cols else 0
        return cls(rows, cols, [[columns[j][i] for j in range(cols)]
                                for i in range(rows)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      [[-a for a in r] for r in self.data])

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols,
                      [[c * a for a in r] for r in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ot = list(zip(*other.data)) if other.rows else [()] * other.cols
        out = []
        for r in self.data:
            row = []
            for c in range(other.cols):
                col = ot[c]
                row.append(sum((a * b for a, b in zip(r, col)), ZERO))
            out.append(row)
        return Matrix(self.rows, other.cols, out)

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum((a * b for a, b in zip(r, vec)), ZERO)
                     for r in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, list(zip(*self.data)) or
                      [[] for _ in range(self.cols)])

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def flat(self) -> tuple[Fraction, ...]:
        """The entries in row-major order, as one coordinate vector."""
        return tuple(x for r in self.data for x in r)

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def trace(self) -> Fraction:
        return sum((self.data[i][i] for i in range(min(self.rows, self.cols))),
                   ZERO)

    def rref(self):
        """Return (rref matrix, rank, pivot column tuple).

        Zero rows are kept so the result has the same shape as self.
        """
        reduced, pivots = rref_rows(self.data, self.cols)
        rank = len(reduced)
        full = reduced + [[ZERO] * self.cols for _ in range(self.rows - rank)]
        return Matrix(self.rows, self.cols, full), rank, tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right null space, one column vector per free column."""
        reduced, pivots = rref_rows(self.data, self.cols)
        free = complement_pivots(pivots, self.cols)
        basis = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = ONE
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            basis.append(tuple(v))
        return basis

    def solve(self, rhs: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
        """Some solution of self @ v = rhs, or None when inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError("rhs length mismatch")
        aug = [list(r) + [frac(b)] for r, b in zip(self.data, rhs)]
        reduced, pivots = rref_rows(aug, self.cols + 1)
        if self.cols in pivots:
            return None
        v = [ZERO] * self.cols
        for row, p in zip(reduced, pivots):
            v[p] = row[self.cols]
        return tuple(v)

    def inverse(self) -> "Matrix":
        """The inverse, from one RREF of [self | I]; ValueError if singular."""
        n = self.rows
        if self.cols != n:
            raise ValueError("only a square matrix has an inverse")
        reduced, pivots = rref_rows(self.hstack(Matrix.identity(n)).data,
                                    2 * n)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(n, n, [r[n:] for r in reduced])

    def column_space_basis(self) -> list[tuple[Fraction, ...]]:
        _, col_pivots = rref_rows(self.data, self.cols)
        return [self.column(j) for j in col_pivots]

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Matrix(self.rows, self.cols + other.cols,
                      [list(a) + list(b) for a, b in zip(self.data, other.data)])

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return Matrix(self.rows + other.rows, self.cols,
                      list(self.data) + list(other.data))


def vec_is_zero(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def nonzeros(u: Sequence[Fraction]) -> dict:
    """The sparse form {index: entry} of a vector, zero entries dropped."""
    return {k: a for k, a in enumerate(u) if a != 0}


class Span:
    """A subspace of K^ncols held as its reduced row echelon basis.

    rows and pivots equal rref_rows of the vectors put in, whatever their
    order and however they were put in, because the reduced echelon basis
    of a subspace is unique.
    """

    __slots__ = ("ncols", "rows", "pivots")

    def __init__(self, ncols: int, vectors: Iterable[Sequence[Fraction]] = ()):
        self.ncols = ncols
        self.rows, self.pivots = rref_rows(list(vectors), ncols)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, vec) -> bool:
        return in_span(vec, self.rows, self.pivots)

    def reduce(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """Normal form of vec modulo the span: zero at every pivot."""
        return reduce_against(vec, self.rows, self.pivots)

    def add(self, vec: Sequence[Fraction]) -> bool:
        """Extend the span by vec; False when vec already lies in it."""
        v = self.reduce(vec)
        p = next((j for j, a in enumerate(v) if a != 0), None)
        if p is None:
            return False
        lead = v[p]
        if lead != 1:
            v = [a / lead for a in v]
        for i, row in enumerate(self.rows):
            c = row[p]
            if c != 0:
                self.rows[i] = [a - c * b for a, b in zip(row, v)]
        at = bisect_left(self.pivots, p)
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return True

    def complement(self, key=None):
        """(coords, projection, section) of the quotient K^ncols / span.

        coords are the non-pivot columns, ascending or sorted by key.  The
        projection reads the normal form of a vector at coords, and the
        section embeds coords as unit vectors, so projection @ section is
        the identity and the projection kills the span.
        """
        n = self.ncols
        coords = sorted(complement_pivots(self.pivots, n), key=key)
        proj = []
        for c in coords:
            row = [ZERO] * n
            row[c] = ONE
            for rr, p in zip(self.rows, self.pivots):
                if rr[c] != 0:
                    row[p] = -rr[c]
            proj.append(row)
        sect = [[ONE if j == c else ZERO for c in coords] for j in range(n)]
        return (coords, Matrix(len(coords), n, proj),
                Matrix(n, len(coords), sect))


class MapSpace:
    """The span of a list of rows x cols matrices, in coordinates on it.

    coords(mat) gives the coefficients x with mat == sum x[k] mats[k] that
    Matrix.solve gives on the system with one column per map: zero at
    every map that lies in the span of the maps before it.
    """

    __slots__ = ("rows", "cols", "mats", "_size", "_span")

    def __init__(self, mats: Sequence[Matrix], rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.mats = list(mats)
        self._size = size = rows * cols
        n = len(self.mats)
        # The span holds (sum c_k mats[k], -c) for independent maps only,
        # so reducing (mat, 0) to (0, x) reads off mat == sum x_k mats[k].
        self._span = Span(size + n)
        for k, m in enumerate(self.mats):
            v = self._span.reduce(
                list(m.flat()) + [-ONE if j == k else ZERO for j in range(n)])
            if any(v[:size]):
                self._span.add(v)

    def coords(self, mat: Matrix) -> tuple[Fraction, ...]:
        """Coordinates of mat; ValueError when it is outside the span."""
        if (mat.rows, mat.cols) != (self.rows, self.cols):
            raise ValueError("map shape does not match the space")
        v = self._span.reduce(list(mat.flat()) + [ZERO] * len(self.mats))
        if any(v[:self._size]):
            raise ValueError("map outside the spanned space")
        return tuple(v[self._size:])

    def combine(self, coeffs: Sequence[Fraction]) -> Matrix:
        """The map sum coeffs[k] mats[k]."""
        acc = [[ZERO] * self.cols for _ in range(self.rows)]
        for c, m in zip(coeffs, self.mats):
            if c != 0:
                acc = [[a + c * b for a, b in zip(ra, rb)]
                       for ra, rb in zip(acc, m.data)]
        return Matrix(self.rows, self.cols, acc)

    def through(self, post: Matrix) -> "MapSpace":
        """The space of post @ mats[k], in coordinates on the same list."""
        return MapSpace([post @ m for m in self.mats], post.rows, self.cols)


# -- tensor products --------------------------------------------------------


def _nonzero_columns(m: Matrix):
    """Per column of m, its nonzero entries as (row, entry) pairs."""
    cols = [[] for _ in range(m.cols)]
    for i, r in enumerate(m.data):
        for j, a in enumerate(r):
            if a != 0:
                cols[j].append((i, a))
    return cols


def outer(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple:
    """u (x) v flattened: the pair (i, j) sits at index i * len(v) + j."""
    n = len(v)
    out = [ZERO] * (len(u) * n)
    nz = [(j, b) for j, b in enumerate(v) if b != 0]
    for i, a in enumerate(u):
        if a != 0:
            for j, b in nz:
                out[i * n + j] = a * b
    return tuple(out)


def kron_apply(L: Matrix, R: Matrix, vec: Sequence[Fraction]) -> tuple:
    """(L (x) R) vec, with vec and the result in the layout of outer."""
    if len(vec) != L.cols * R.cols:
        raise ValueError("vector length mismatch")
    lcols, rcols = _nonzero_columns(L), _nonzero_columns(R)
    n = R.rows
    out = [ZERO] * (L.rows * n)
    for idx, c in enumerate(vec):
        if c != 0:
            k, l = divmod(idx, R.cols)
            for i, a in lcols[k]:
                ca = c * a
                for j, b in rcols[l]:
                    out[i * n + j] += ca * b
    return tuple(out)


def balanced_relations(right: Sequence[Matrix],
                       left: Sequence[Matrix]) -> list:
    """Vectors spanning the relations m.b (x) n - m (x) b.n of M (x)_B N.

    right[k] acts by the k-th basis element of B on M from the right and
    left[k] on N from the left.  The vectors are the nonzero columns of
    right[k] (x) I - I (x) left[k] over all k, in the layout of outer.
    """
    rels = []
    for Rk, Lk in zip(right, left):
        m, n = Rk.cols, Lk.cols
        rcols, lcols = _nonzero_columns(Rk), _nonzero_columns(Lk)
        for a in range(m):
            for x in range(n):
                v = [ZERO] * (m * n)
                for y, c in rcols[a]:
                    v[y * n + x] += c
                for y, c in lcols[x]:
                    v[a * n + y] -= c
                if any(v):
                    rels.append(v)
    return rels
