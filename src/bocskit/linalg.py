"""Exact dense linear algebra over the rationals.

Everything downstream (path algebras, module categories, Ext computations,
bocs structure constants) reduces to row operations on matrices of exact
scalars.  A scalar is a Python `int` or a `fractions.Fraction`: both are
exact, and int arithmetic is much cheaper.  `frac` brings a scalar to its
canonical form, an `int` when it is integral and a `Fraction` only when it
is not, and refuses floats; `qdiv` is the one division, since `int / int`
would be a float.  Every `Matrix` entry is canonical.  The vectors the
kernel returns outside a Matrix (the rows of `rref_rows` and so
`Span.rows`, `kernel_basis`, `solve`, and `Matrix.apply`) are not: a
difference or sum of Fractions stays a Fraction, so they may hold an
integral `Fraction`, equal in value to its `int`.
Matrices are immutable; all operations return fresh objects.
A Matrix records whether all its entries are ints (`ints`), which its
constructor's scan decides anyway, so a product of two all-int factors
needs no scan: int products and sums stay ints.  It also keeps each form
derived from its entries once computed: its hash, the sparse rows it
contributes as the right factor of `@` and `nonzero_columns`, which is
handed out as tuples, so no caller can alter it.  A matrix read many
times, such as the idempotent actions modules share, pays for each once.
This module alone knows how subspaces and spaces of maps are held in
coordinates: a Span keeps a subspace as its reduced row echelon basis and
gives the coordinates of the quotient by it, the class of a vector there
and the projection onto a complement, and a MapSpace solves for and
combines coordinates of maps in a list of maps.  It also holds the one
sparse sum of terms (_sum_terms, with _apply_cols and _compose_cols on
it) that the package sums words, sparse columns and coefficient dicts
with.  No tensor product is
held here: one over an algebra is presented off a basis of a free
module (bocs.RightBasis), its elements as sparse terms.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from numbers import Rational
from typing import Iterable, Optional, Sequence

Scalar = int | Fraction

ZERO = 0
ONE = 1
_INT = frozenset((int,))


def frac(x) -> Scalar:
    """An exact scalar from an int, a rational or a string like '2/3':
    an int when the value is integral, else a Fraction.  A float or any
    other inexact number is a TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if not isinstance(x, (Rational, str)):
        raise TypeError(f"not an exact scalar: {x!r}")
    return frac(Fraction(x))


def qdiv(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b: an int when it is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return frac(Fraction(a, b))


def rref_rows(rows: Sequence[Sequence[Scalar]], ncols: int):
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
            work[r] = [qdiv(v, inv) for v in work[r]]
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


def reduce_against(vec: Sequence[Scalar], rows: Sequence[Sequence[Scalar]],
                   pivots: Sequence[int]) -> list[Scalar]:
    """Normal form of vec modulo the span of RREF rows."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c != 0:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def in_span(vec, rows, pivots) -> bool:
    return all(c == 0 for c in reduce_against(vec, rows, pivots))


def _sum_terms(terms) -> dict:
    """The nonzero sums {key: sum of c} over the terms (key, c)."""
    out = {}
    for key, c in terms:
        out[key] = out.get(key, ZERO) + c
    return {key: c for key, c in out.items() if c}


def _apply_cols(cols, vec) -> dict:
    """The sparse sum of a * cols[u] over the entries (u, a) of vec, each
    cols[u] a sparse column of pairs (key, c): its nonzero entries
    {key: sum of a * c}.  With cols = m.nonzero_columns() it is m applied
    to the sparse vector vec."""
    return _sum_terms((key, a * c) for u, a in vec for key, c in cols[u])


def _compose_cols(f, g) -> dict:
    """f after g, each given by its sparse columns (as nonzero_columns
    gives them): the nonzero entries {(y, w): c} of the product."""
    return _sum_terms(((y, w), a * b) for w, col in enumerate(g)
                      for x, b in col for y, a in f[x])


class Matrix:
    """Immutable dense matrix of exact scalars, row-major; ints is True
    when every entry is an int.  Its derived forms, the hash, the sparse
    rows it contributes as the right factor of @ and nonzero_columns, are
    computed on first use and kept in the object."""

    __slots__ = ("rows", "cols", "data", "ints", "_hash", "_sparse",
                 "_nzcols")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable]):
        data = tuple(map(tuple, data))
        # Entries the kernel produced are almost always ints already, so
        # only a grid holding something else is canonicalised entry by entry.
        ints = _INT.issuperset(map(type, chain.from_iterable(data)))
        if not ints:
            data = tuple(tuple(map(frac, r)) for r in data)
            ints = _INT.issuperset(map(type, chain.from_iterable(data)))
        if len(data) != rows or not {cols}.issuperset(map(len, data)):
            raise ValueError("entry grid does not match declared shape")
        self.rows = rows
        self.cols = cols
        self.data = data
        self.ints = ints
        self._hash = self._sparse = self._nzcols = None

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, ((ZERO,) * cols,) * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [[ONE if i == j else ZERO for j in range(n)]
                          for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        cols = len(columns)
        rows = len(columns[0]) if cols else 0
        if not {rows}.issuperset(map(len, columns)):
            raise ValueError("entry grid does not match declared shape")
        return cls(rows, cols, zip(*columns))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Matrix) and self.rows == other.rows
            and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.rows, self.cols, self.data))
        return h

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols,
                      [[c * a for a in r] for r in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, summing only over nonzero pairs of factors; of two
        all-int factors it is all-int, and built without the scan."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        sparse = other._sparse
        if sparse is None:
            sparse = other._sparse = tuple(
                tuple((j, b) for j, b in enumerate(r) if b)
                for r in other.data)
        out = []
        for r in self.data:
            row = [ZERO] * other.cols
            for a, brow in zip(r, sparse):
                if a:
                    for j, b in brow:
                        row[j] += a * b
            out.append(tuple(row))
        if not (self.ints and other.ints):
            return Matrix(self.rows, other.cols, out)
        m = object.__new__(Matrix)
        m.rows, m.cols, m.ints = self.rows, other.cols, True
        m.data = tuple(out)
        m._hash = m._sparse = m._nzcols = None
        return m

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        nz = [(j, b) for j, b in enumerate(vec) if b]
        return tuple(sum([r[j] * b for j, b in nz if r[j]], ZERO)
                     for r in self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def flat(self) -> tuple[Scalar, ...]:
        """The entries in row-major order, as one coordinate vector."""
        return tuple(chain.from_iterable(self.data))

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[tuple[Scalar, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def nonzero_columns(self) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
        """Per column, its nonzero entries as (row, entry) pairs; computed
        once and shared, so a tuple of tuples."""
        got = self._nzcols
        if got is None:
            cols = [[] for _ in range(self.cols)]
            for i, r in enumerate(self.data):
                for j, a in enumerate(r):
                    if a != 0:
                        cols[j].append((i, a))
            got = self._nzcols = tuple(map(tuple, cols))
        return got

    def rank(self) -> int:
        return len(rref_rows(self.data, self.cols)[0])

    def kernel_basis(self) -> list[tuple[Scalar, ...]]:
        """Basis of the right null space, one column vector per free column:
        the rows of the projection of Span(cols, rows).complement()."""
        span = Span(self.cols, self.data)
        return [tuple(span._quotient_row(c)) for c in span.quotient_coords()]

    def solve(self, rhs: Sequence[Scalar]) -> Optional[tuple[Scalar, ...]]:
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

    def solve_columns(self, rhs: "Matrix") -> Optional["Matrix"]:
        """X with self @ X == rhs, from one RREF of [self | rhs]; None when
        some column is inconsistent.  Each column of X is the solution
        solve gives for that column of rhs."""
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        n = self.cols
        reduced, pivots = rref_rows(self.hstack(rhs).data, n + rhs.cols)
        if pivots and pivots[-1] >= n:
            return None
        out = [[ZERO] * rhs.cols for _ in range(n)]
        for row, p in zip(reduced, pivots):
            out[p] = row[n:]
        return Matrix(n, rhs.cols, out)

    def inverse(self) -> "Matrix":
        """The inverse, from one RREF of [self | I]; ValueError if singular."""
        n = self.rows
        if self.cols != n:
            raise ValueError("only a square matrix has an inverse")
        inv = self.solve_columns(Matrix.identity(n))
        if inv is None:
            raise ValueError("matrix is singular")
        return inv

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return Matrix(self.rows, self.cols + other.cols,
                      [a + b for a, b in zip(self.data, other.data)])


def vec_is_zero(u: Sequence[Scalar]) -> bool:
    return all(a == 0 for a in u)


def nonzeros(u: Sequence[Scalar]) -> dict:
    """The sparse form {index: entry} of a vector, zero entries dropped."""
    return {k: a for k, a in enumerate(u) if a != 0}


class Span:
    """A subspace of K^ncols held as its reduced row echelon basis.

    rows and pivots equal rref_rows of the vectors put in, whatever their
    order and however they were put in, because the reduced echelon basis
    of a subspace is unique.
    """

    __slots__ = ("ncols", "rows", "pivots")

    def __init__(self, ncols: int, vectors: Iterable[Sequence[Scalar]] = ()):
        self.ncols = ncols
        self.rows, self.pivots = rref_rows(list(vectors), ncols)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, vec) -> bool:
        return in_span(vec, self.rows, self.pivots)

    def reduce(self, vec: Sequence[Scalar]) -> list[Scalar]:
        """Normal form of vec modulo the span: zero at every pivot."""
        return reduce_against(vec, self.rows, self.pivots)

    def add(self, vec: Sequence[Scalar]) -> bool:
        """Extend the span by vec; False when vec already lies in it."""
        v = self.reduce(vec)
        p = next((j for j, a in enumerate(v) if a != 0), None)
        if p is None:
            return False
        lead = v[p]
        if lead != 1:
            v = [qdiv(a, lead) for a in v]
        for i, row in enumerate(self.rows):
            c = row[p]
            if c != 0:
                self.rows[i] = [a - c * b for a, b in zip(row, v)]
        at = bisect_left(self.pivots, p)
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return True

    def coordinates(self, vec):
        """The coefficients of a vector of the span on rows: its entries at
        the pivots.  On the rows of a matrix whose columns lie in the span
        it gives the rows of their coefficient matrix."""
        return [vec[p] for p in self.pivots]

    def quotient_coords(self, key=None) -> list[int]:
        """The coordinates of the quotient K^ncols / span: the non-pivot
        columns, ascending or sorted by key."""
        pset = set(self.pivots)
        return sorted([j for j in range(self.ncols) if j not in pset],
                      key=key)

    def quotient_terms(self, vec, coords) -> dict:
        """The class of vec in the quotient on coords (quotient_coords): the
        nonzero entries {position in coords: entry} of its normal form
        (reduce), in ascending position."""
        v = self.reduce(vec)
        return {k: v[c] for k, c in enumerate(coords) if v[c] != 0}

    def _quotient_row(self, c: int) -> list[Scalar]:
        """The unit vector at the non-pivot column c less the entries of
        column c at the pivots: the projection's row at c, which vanishes
        on the span, and so the null vector of the free column c."""
        row = [ZERO] * self.ncols
        row[c] = ONE
        for rr, p in zip(self.rows, self.pivots):
            if rr[c] != 0:
                row[p] = -rr[c]
        return row

    def complement(self, key=None):
        """(coords, projection, section) of the quotient K^ncols / span.

        coords are quotient_coords(key).  The projection reads the normal
        form of a vector at coords, and the section embeds coords as unit
        vectors, so projection @ section is the identity and the projection
        kills the span.
        """
        n = self.ncols
        coords = self.quotient_coords(key)
        sect = [[ONE if j == c else ZERO for c in coords] for j in range(n)]
        return (coords,
                Matrix(len(coords), n, map(self._quotient_row, coords)),
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

    def __len__(self) -> int:
        """The dimension of the span: the number of independent maps."""
        return len(self._span)

    def coords(self, mat: Matrix) -> tuple[Scalar, ...]:
        """Coordinates of mat; ValueError when it is outside the span."""
        if (mat.rows, mat.cols) != (self.rows, self.cols):
            raise ValueError("map shape does not match the space")
        v = self._span.reduce(list(mat.flat()) + [ZERO] * len(self.mats))
        if any(v[:self._size]):
            raise ValueError("map outside the spanned space")
        return tuple(v[self._size:])

    def combine(self, coeffs: Sequence[Scalar]) -> Matrix:
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
