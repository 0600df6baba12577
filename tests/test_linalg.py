import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bocskit.linalg import (MapSpace, Matrix, Span, balanced_relations,
                            frac, in_span, kron_apply, outer, rref_rows)


def test_rref_identity():
    m = Matrix.identity(2)
    r, rank, pivots = m.rref()
    assert r == m
    assert rank == 2
    assert pivots == (0, 1)


def test_rref_zero():
    m = Matrix.zero(3, 3)
    r, rank, pivots = m.rref()
    assert r == m
    assert rank == 0
    assert pivots == ()


def test_rref_rank_one():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    r, rank, _ = m.rref()
    assert r == Matrix.from_rows([[1, 2], [0, 0]])
    assert rank == 1


def test_kernel_identity_empty():
    assert Matrix.identity(4).kernel_basis() == []


def test_kernel_zero_map():
    basis = Matrix.zero(2, 3).kernel_basis()
    assert len(basis) == 3


def test_kernel_line():
    basis = Matrix.from_rows([[1, 1]]).kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 1 == 0
    assert v != (0, 0)


def test_solve_identity():
    m = Matrix.identity(2)
    assert m.solve([frac(3), frac(4)]) == (3, 4)


def test_solve_underdetermined():
    m = Matrix.from_rows([[1, 1]])
    v = m.solve([frac(2)])
    assert v is not None
    assert v[0] + v[1] == 2


def test_solve_inconsistent():
    m = Matrix.from_rows([[0, 0]])
    assert m.solve([frac(1)]) is None


def _random_matrix(rng, rows, cols):
    return Matrix(rows, cols,
                  [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("seed", range(20))
def test_random_properties(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    m = _random_matrix(rng, rows, cols)

    r, rank, _ = m.rref()
    assert r.rref()[0] == r, "rref must be idempotent"
    assert rank == m.transpose().rank(), "row rank equals column rank"
    assert len(m.kernel_basis()) + rank == cols

    rhs = m.apply(tuple(Fraction(rng.randint(-3, 3)) for _ in range(cols)))
    v = m.solve(rhs)
    assert v is not None
    assert m.apply(v) == rhs


@pytest.mark.parametrize("seed", range(10))
def test_solve_random_consistency(seed):
    rng = random.Random(100 + seed)
    m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
    rhs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.rows))
    v = m.solve(rhs)
    if v is not None:
        assert m.apply(v) == rhs


def test_in_span():
    rows, pivots = rref_rows([[frac(1), frac(0)], [frac(0), frac(1)]], 2)
    assert in_span([frac(5), frac(-7)], rows, pivots)
    rows, pivots = rref_rows([[frac(1), frac(1)]], 2)
    assert not in_span([frac(1), frac(0)], rows, pivots)


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
_entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _vectors(draw):
    ncols = draw(st.integers(1, 5))
    vecs = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                         max_size=6))
    # repeat some vectors and sums so that dependent inputs are common
    extra = [[a + b for a, b in zip(vecs[i], vecs[j])]
             for i, j in draw(st.lists(st.tuples(st.integers(0, 5),
                                                 st.integers(0, 5)),
                                       max_size=2))
             if i < len(vecs) and j < len(vecs)]
    return ncols, vecs + extra


def _rank(vecs, ncols):
    return len(rref_rows(vecs, ncols)[0])


@_PROPERTY
@given(_vectors(), st.randoms(use_true_random=False))
def test_span_is_the_rref_of_its_vectors(data, rnd):
    ncols, vecs = data
    order = list(vecs)
    rnd.shuffle(order)
    span = Span(ncols)
    seen = []
    for v in order:
        grows = _rank(seen + [v], ncols) > _rank(seen, ncols)
        assert span.add(v) is grows
        seen.append(v)
    assert (span.rows, span.pivots) == rref_rows(vecs, ncols)
    for key in (None, lambda c: -c):
        coords, proj, sect = span.complement(key=key)
        assert len(coords) == ncols - len(span)
        assert proj @ sect == Matrix.identity(len(coords))
        for v in vecs:
            assert not any(proj.apply(v))


@st.composite
def _maps(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    grids = draw(st.lists(st.lists(_entries, min_size=rows * cols,
                                   max_size=rows * cols), max_size=5))
    mats = [Matrix(rows, cols, [g[r * cols:(r + 1) * cols]
                                for r in range(rows)]) for g in grids]
    if mats and draw(st.booleans()):
        mats.append(mats[0] + mats[-1])
    return rows, cols, mats


@_PROPERTY
@given(_maps(), st.lists(_entries, min_size=6, max_size=6))
def test_map_space_coordinates(data, coeffs):
    rows, cols, mats = data
    space = MapSpace(mats, rows, cols)
    target = space.combine(coeffs)
    # on any list of maps, coords agree with Matrix.solve
    if mats:
        stacked = Matrix.from_columns([m.flat() for m in mats])
        assert space.coords(target) == stacked.solve(target.flat())
    # on an independent list, coords invert combine
    basis = []
    for m in mats:
        if _rank([b.flat() for b in basis + [m]], rows * cols) > len(basis):
            basis.append(m)
    space = MapSpace(basis, rows, cols)
    c = tuple(coeffs[:len(basis)])
    assert space.coords(space.combine(c)) == c
    # a unit map outside the span is rejected
    for k in range(rows * cols):
        unit = Matrix(rows, cols, [[int(r * cols + q == k)
                                    for q in range(cols)]
                                   for r in range(rows)])
        if _rank([b.flat() for b in basis] + [unit.flat()],
                 rows * cols) > len(basis):
            with pytest.raises(ValueError):
                space.coords(unit)
            break


# entries that are zero half the time, so the sparse loops skip often
_sparse_entries = st.one_of(st.just(Fraction(0)), _entries)


def _vector(n):
    return st.lists(_sparse_entries, min_size=n, max_size=n)


@st.composite
def _matrix(draw, rows, cols):
    return Matrix(rows, cols, [draw(_vector(cols)) for _ in range(rows)])


def _kron(L, R):
    """Dense L (x) R: the reference for the sparse tensor kernel."""
    return Matrix(L.rows * R.rows, L.cols * R.cols,
                  [[a * b for a in lrow for b in rrow]
                   for lrow in L.data for rrow in R.data])


@_PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_outer_is_the_flattened_outer_product(m, n, data):
    u, v = data.draw(_vector(m)), data.draw(_vector(n))
    product = Matrix.from_columns([u]) @ Matrix.from_rows([v])
    assert outer(u, v) == product.flat()


@_PROPERTY
@given(st.tuples(*[st.integers(1, 3)] * 4), st.data())
def test_kron_apply_is_the_tensor_product_of_maps(shape, data):
    lr, lc, rr, rc = shape
    L, R = data.draw(_matrix(lr, lc)), data.draw(_matrix(rr, rc))
    u, v = data.draw(_vector(lc)), data.draw(_vector(rc))
    assert kron_apply(L, R, outer(u, v)) == outer(L.apply(u), R.apply(v))
    x, y = data.draw(_vector(lc * rc)), data.draw(_vector(lc * rc))
    c = data.draw(_entries)
    combo = [c * a + b for a, b in zip(x, y)]
    assert kron_apply(L, R, combo) == tuple(
        c * a + b for a, b in zip(kron_apply(L, R, x), kron_apply(L, R, y)))
    assert kron_apply(L, R, x) == _kron(L, R).apply(x)
    with pytest.raises(ValueError):
        kron_apply(L, R, x + [Fraction(0)])


@_PROPERTY
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_balanced_relations_span_the_balancing_maps(bdim, m, n, data):
    right = [data.draw(_matrix(m, m)) for _ in range(bdim)]
    left = [data.draw(_matrix(n, n)) for _ in range(bdim)]
    rels = balanced_relations(right, left)
    assert all(any(v) for v in rels)
    want = []
    for Rk, Lk in zip(right, left):
        want += (_kron(Rk, Matrix.identity(n))
                 - _kron(Matrix.identity(m), Lk)).columns()
    got = Span(m * n, rels)
    assert (got.rows, got.pivots) == rref_rows(want, m * n)


@_PROPERTY
@given(st.integers(1, 4), st.data())
def test_inverse_of_invertible_and_singular_matrices(n, data):
    M = data.draw(_matrix(n, n))
    if _rank(M.data, n) == n:
        assert M @ M.inverse() == Matrix.identity(n)
    else:
        with pytest.raises(ValueError):
            M.inverse()
    with pytest.raises(ValueError):
        Matrix.zero(n, n + 1).inverse()


def test_matmul_and_blocks():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == Matrix.from_rows([[2, 1], [4, 3]])
    assert a.hstack(b).cols == 4
    assert a.vstack(b).rows == 4
    assert a.column_space_basis() == [a.column(0), a.column(1)]
