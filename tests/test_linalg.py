import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

import bocskit
from bocskit.linalg import (MapSpace, Matrix, Span, _apply_cols, frac,
                            in_span, nonzeros, qdiv, rref_rows)
from bocskit.quiver import Quiver, Relation

from helpers import balanced_relations, kron_apply, outer


def test_rref_identity():
    m = Matrix.identity(2)
    assert rref_rows(m.data, 2) == ([[1, 0], [0, 1]], [0, 1])
    assert m.rank() == 2


def test_rref_zero():
    m = Matrix.zero(3, 3)
    assert rref_rows(m.data, 3) == ([], [])
    assert m.rank() == 0


def test_rref_rank_one():
    m = Matrix(2, 2, [[1, 2], [2, 4]])
    assert rref_rows(m.data, 2) == ([[1, 2]], [0])
    assert m.rank() == 1


def test_kernel_identity_empty():
    assert Matrix.identity(4).kernel_basis() == []


def test_kernel_zero_map():
    basis = Matrix.zero(2, 3).kernel_basis()
    assert len(basis) == 3


def test_kernel_line():
    basis = Matrix(1, 2, [[1, 1]]).kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 1 == 0
    assert v != (0, 0)


def test_solve_identity():
    m = Matrix.identity(2)
    assert m.solve([frac(3), frac(4)]) == (3, 4)


def test_solve_underdetermined():
    m = Matrix(1, 2, [[1, 1]])
    v = m.solve([frac(2)])
    assert v is not None
    assert v[0] + v[1] == 2


def test_solve_inconsistent():
    m = Matrix(1, 2, [[0, 0]])
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

    reduced, pivots = rref_rows(m.data, cols)
    rank = m.rank()
    assert rank == len(reduced)
    assert rref_rows(reduced, cols) == (reduced, pivots), \
        "rref must be idempotent"
    assert rank == Matrix.from_columns(m.data).rank(), \
        "row rank equals column rank"
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


def test_scalars_are_ints_when_integral_and_floats_are_refused():
    assert type(frac(Fraction(4, 2))) is int and frac(Fraction(4, 2)) == 2
    assert type(frac("6/3")) is int and frac("-2/3") == Fraction(-2, 3)
    assert qdiv(1, 2) == Fraction(1, 2)
    assert type(qdiv(4, 2)) is int and qdiv(4, 2) == 2
    assert type(qdiv(Fraction(3, 2), Fraction(1, 2))) is int
    assert all(type(x) is int
               for x in Matrix(2, 2, [[Fraction(2), 1], [0, 3]]).flat())
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(TypeError):
        Matrix(1, 2, [[1, 0.5]])
    q = Quiver(1, [("x", 1, 1)])
    with pytest.raises(TypeError):
        Relation(q, [(0.5, 1, ("x", "x"))])


def test_vectors_outside_a_matrix_may_hold_integral_fractions():
    # only Matrix entries are canonical: a sum or difference of Fractions
    # stays a Fraction, equal in value to its int
    span = Span(2, [[Fraction(3, 2), Fraction(1, 2)],
                    [Fraction(1, 2), Fraction(3, 2)]])
    assert span.rows == [[1, 0], [0, 1]]
    assert type(span.rows[0][0]) is Fraction
    half = Matrix(1, 2, [[Fraction(1, 2), Fraction(1, 2)]])
    got = half.apply((1, 1))
    assert got == (1,) and type(got[0]) is Fraction
    got = Matrix(2, 2, [[2, 1], [1, 1]]).solve((Fraction(3, 2),
                                                Fraction(1, 2)))
    assert got == (1, Fraction(-1, 2)) and type(got[0]) is Fraction
    assert type(Matrix.from_columns([got]).data[0][0]) is int


def test_no_true_division_in_the_package():
    """int / int is a float, so scalars are divided only by qdiv, which
    divides through Fraction(a, b) and needs no `/` either."""
    found = []
    for path in sorted(Path(bocskit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _defs_in_scope(scope):
    """Functions defined in the body of scope, not inside a function of
    its own."""
    out, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node)
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return out


def test_no_recursive_nested_function_in_the_package():
    """A nested function that calls itself, directly or through a sibling
    nested function, holds its own closure cell: every call of the
    enclosing function then leaves a reference cycle, with all that the
    closure holds, for the cyclic collector."""
    found = []
    for path in sorted(Path(bocskit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            inner = {d.name: d for d in _defs_in_scope(outer)}
            calls = {name: {n.id for n in ast.walk(d)
                            if isinstance(n, ast.Name) and n.id in inner}
                     for name, d in inner.items()}
            for name in inner:
                seen, todo = set(), list(calls[name])
                while todo:
                    other = todo.pop()
                    if other not in seen:
                        seen.add(other)
                        todo.extend(calls[other])
                if name in seen:
                    found.append(f"{path.name}:{outer.name}.{name}")
    assert found == []


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


@_PROPERTY
@given(_vectors(), st.lists(_entries, min_size=6, max_size=6))
def test_quotient_coordinates_are_the_complement_and_the_normal_form(
        data, entries):
    """quotient_coords is complement's coords, and quotient_terms reads
    reduce's normal form at them: the projection's image, sparse and in
    ascending position, with reduce's own entries.  coordinates gives the
    coefficients on rows of a vector of the span."""
    ncols, vecs = data
    span = Span(ncols, vecs)
    vec = entries[:ncols]
    for key in (None, lambda c: -c):
        coords, proj, _ = span.complement(key=key)
        assert span.quotient_coords(key) == coords
        terms = span.quotient_terms(vec, coords)
        assert list(terms) == sorted(terms)
        assert terms == nonzeros(proj.apply(vec))
        normal = [span.reduce(vec)[c] for c in coords]
        assert all(a == normal[k] and type(a) is type(normal[k])
                   for k, a in terms.items())
    combo = [sum((c * r[j] for c, r in zip(entries, span.rows)), 0)
             for j in range(ncols)]
    assert span.coordinates(combo) == entries[:len(span)]


def test_kernel_basis_is_the_projection_onto_the_row_space_complement():
    """On 300 random matrices, kernel_basis and the projection rows of
    Span(rows).complement() come from one free-column formula."""
    rng = random.Random(20261020)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        if rng.random() < 0.5:  # rank deficient: repeat a combination
            m = Matrix(rows + 1, cols, m.data + (tuple(
                2 * a - b for a, b in zip(m.data[0], m.data[-1])),))
        _, proj, _ = Span(m.cols, m.data).complement()
        kernel = m.kernel_basis()
        assert kernel == [tuple(r) for r in proj.data]
        assert all(not any(m.apply(v)) for v in kernel)


@_PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_sparse_column_sums_are_the_dense_product(rows, cols, data):
    """_apply_cols on the nonzero columns of m is m applied to the sparse
    vector, with no zero entry."""
    m = data.draw(_exact_matrix(rows, cols))
    vec = data.draw(st.lists(_entries, min_size=cols, max_size=cols))
    assert _apply_cols(m.nonzero_columns(), nonzeros(vec).items()) == \
        nonzeros(m.apply(vec))


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
    product = Matrix.from_columns([u]) @ Matrix(1, n, [v])
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
                 + _kron(Matrix.identity(m), Lk).scale(-1)).columns()
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


@_PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3), st.data())
def test_solve_columns_is_solve_column_by_column(rows, cols, nrhs, data):
    A = data.draw(_matrix(rows, cols))
    # consistent columns A x, and sometimes one drawn freely
    rhs_cols = [A.apply(data.draw(_vector(cols))) for _ in range(nrhs)]
    if data.draw(st.booleans()):
        rhs_cols.insert(data.draw(st.integers(0, nrhs)),
                        tuple(data.draw(_vector(rows))))
    rhs = (Matrix.from_columns(rhs_cols) if rhs_cols
           else Matrix.zero(rows, 0))
    each = [A.solve(c) for c in rhs_cols]
    got = A.solve_columns(rhs)
    if None in each:
        assert got is None
    else:
        assert got == (Matrix.from_columns(each) if each
                       else Matrix.zero(cols, 0))
        assert A @ got == rhs
    with pytest.raises(ValueError):
        A.solve_columns(Matrix.zero(rows + 1, 1))


def _dense_product(A, B):
    """Every product summed, zero or not: the reference for `@`."""
    return Matrix(A.rows, B.cols,
                  [[sum((A.data[i][k] * B.data[k][j] for k in range(A.cols)),
                        Fraction(0))
                    for j in range(B.cols)] for i in range(A.rows)])


@_PROPERTY
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_products_are_the_dense_sums(rows, inner, cols, data):
    # every dimension may be 0, so 0 x n and n x 0 factors are drawn
    A, B = data.draw(_matrix(rows, inner)), data.draw(_matrix(inner, cols))
    assert A @ B == _dense_product(A, B)
    v = data.draw(_vector(inner))
    assert A.apply(v) == tuple(
        sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in A.data)
    with pytest.raises(ValueError):
        A @ Matrix.zero(inner + 1, cols)
    with pytest.raises(ValueError):
        A.apply(v + [Fraction(0)])


def test_from_columns_of_no_columns_and_of_empty_columns():
    none = Matrix.from_columns([])
    assert (none.rows, none.cols) == (0, 0)
    empty = Matrix.from_columns([[], [], []])
    assert (empty.rows, empty.cols) == (0, 3)
    assert empty == Matrix.zero(0, 3)


def test_from_columns_refuses_ragged_columns():
    for columns in ([[1], [2, 3]], [[1, 2], [3]], [[1, 2], [3, 4], []]):
        with pytest.raises(ValueError, match="does not match declared shape"):
            Matrix.from_columns(columns)


def test_matmul_and_blocks():
    a = Matrix(2, 2, [[1, 2], [3, 4]])
    b = Matrix(2, 2, [[0, 1], [1, 0]])
    assert a @ b == Matrix(2, 2, [[2, 1], [4, 3]])
    assert a.hstack(b).cols == 4


# -- the integer-first kernel against a Fraction-only oracle ----------------


def _oracle_rref(rows, ncols):
    """Reduced row echelon form with every entry a Fraction and every
    division `/`: the elimination the kernel ran before ints were used."""
    work = [[Fraction(a) for a in r] for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0),
                   None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][col]
        work[r] = [v / inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return work[:r], pivots


def _oracle_solve_columns(A, rhs_cols):
    """Columns of X with A X = the given columns, or None when some column
    is inconsistent; a free unknown is 0."""
    n = A.cols
    aug = [list(row) + [c[i] for c in rhs_cols]
           for i, row in enumerate(A.data)]
    reduced, pivots = _oracle_rref(aug, n + len(rhs_cols))
    if pivots and pivots[-1] >= n:
        return None
    out = [[Fraction(0)] * n for _ in rhs_cols]
    for row, p in zip(reduced, pivots):
        for k, col in enumerate(out):
            col[p] = row[n + k]
    return [tuple(col) for col in out]


def _canonical(m):
    """Every entry of a Matrix is an int, or a Fraction that is not."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for x in m.flat())


def _no_float(vectors):
    return not any(isinstance(x, float) for v in vectors for x in v)


_small_ints = st.one_of(st.just(0), st.integers(-4, 4))


@st.composite
def _exact_matrix(draw, rows, cols):
    """An integer matrix or a rational one, with zeros common."""
    entries = draw(st.sampled_from([_small_ints, _sparse_entries]))
    return Matrix(rows, cols,
                  [draw(st.lists(entries, min_size=cols, max_size=cols))
                   for _ in range(rows)])


@_PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3), st.data())
def test_elimination_agrees_with_a_fraction_only_oracle(rows, cols, nrhs,
                                                        data):
    A = data.draw(_exact_matrix(rows, cols))
    reduced, pivots = _oracle_rref(A.data, cols)
    got, got_pivots = rref_rows(A.data, cols)
    assert (A.rank(), got_pivots) == (len(reduced), pivots)
    R = Matrix(len(got), cols, got)
    assert R.data == tuple(map(tuple, reduced))
    assert _canonical(R)

    kernel = []
    for f in (j for j in range(cols) if j not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        kernel.append(tuple(v))
    assert A.kernel_basis() == kernel
    assert _no_float(A.kernel_basis())

    rhs = data.draw(_exact_matrix(rows, nrhs))
    if data.draw(st.booleans()):
        rhs = A @ data.draw(_exact_matrix(cols, nrhs))
    want = _oracle_solve_columns(A, rhs.columns())
    got = A.solve_columns(rhs)
    if want is None:
        assert got is None
    else:
        assert got.columns() == want and _canonical(got)

    M = data.draw(_exact_matrix(rows, rows))
    want = _oracle_solve_columns(M, Matrix.identity(rows).columns())
    if want is None:
        with pytest.raises(ValueError):
            M.inverse()
    else:
        inv = M.inverse()
        assert inv.columns() == want and _canonical(inv)


@_PROPERTY
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.data())
def test_map_space_coords_agree_with_a_fraction_only_oracle(rows, cols, n,
                                                            data):
    mats = [data.draw(_exact_matrix(rows, cols)) for _ in range(n)]
    space = MapSpace(mats, rows, cols)
    target = data.draw(_exact_matrix(rows, cols))
    if data.draw(st.booleans()):
        target = space.combine(data.draw(st.lists(_small_ints, min_size=n,
                                                  max_size=n)))
    stacked = Matrix.from_columns([m.flat() for m in mats])
    want = _oracle_solve_columns(stacked, [target.flat()])
    if want is None:
        with pytest.raises(ValueError):
            space.coords(target)
    else:
        assert space.coords(target) == want[0]
        assert _no_float([space.coords(target)])


# -- every constructor input comes out canonical ----------------------------

# The explain phase re-runs a failing example once per draw, and each
# distinct failure is shrunk on its own: over these many draws that takes
# minutes, so a failure here is reported once, shrunk, without explanation.
_MIXED = settings(_PROPERTY, report_multiple_bugs=False,
                  phases=[Phase.explicit, Phase.generate, Phase.shrink])
# ints, bools, integral Fractions such as Fraction(4, 2) and proper ones
_mixed_entries = st.one_of(_small_ints, st.booleans(),
                           st.just(Fraction(4, 2)), _entries)


@st.composite
def _mixed_grid(draw, rows, cols):
    """A rows x cols grid of ints whose rows from a drawn one on may also
    hold bools and Fractions, so a non-int may sit only in the last row."""
    first = draw(st.integers(0, rows))
    return [draw(st.lists(_small_ints if i < first else _mixed_entries,
                          min_size=cols, max_size=cols))
            for i in range(rows)]


def _as_fractions(grid):
    return [[Fraction(x) for x in row] for row in grid]


def _same(m, oracle):
    """m equals the Fraction grid oracle and every entry is canonical."""
    return m.data == tuple(map(tuple, oracle)) and _canonical(m)


@_MIXED
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.data())
def test_every_constructed_entry_is_canonical(rows, cols, k, data):
    grid = data.draw(_mixed_grid(rows, cols))
    F = _as_fractions(grid)
    A = Matrix(rows, cols, grid)
    assert _same(A, F)
    assert _same(Matrix.from_columns([list(c) for c in zip(*grid)]), F)

    other = data.draw(_mixed_grid(rows, cols))
    G = _as_fractions(other)
    B = Matrix(rows, cols, other)
    assert _same(A + B, [[a + b for a, b in zip(r, s)] for r, s in zip(F, G)])
    c = data.draw(_mixed_entries)
    assert _same(A.scale(c), [[Fraction(c) * a for a in r] for r in F])
    assert _same(A.hstack(B), [r + s for r, s in zip(F, G)])

    right = data.draw(_mixed_grid(cols, k))
    H = _as_fractions(right)
    assert _same(A @ Matrix(cols, k, right),
                 [[sum((r[i] * H[i][j] for i in range(cols)), Fraction(0))
                   for j in range(k)] for r in F])

    reduced, pivots = _oracle_rref(F, cols)
    got, got_pivots = rref_rows(A.data, cols)
    assert (A.rank(), got_pivots) == (len(reduced), pivots)
    assert _same(Matrix(len(got), cols, got), reduced)
    rhs = Matrix(rows, k, data.draw(_mixed_grid(rows, k)))
    want = _oracle_solve_columns(A, rhs.columns())
    got = A.solve_columns(rhs)
    assert (got is None) == (want is None)
    if got is not None:
        assert _same(got, list(zip(*want)))
    M = Matrix(rows, rows, data.draw(_mixed_grid(rows, rows)))
    want = _oracle_solve_columns(M, Matrix.identity(rows).columns())
    if want is None:
        with pytest.raises(ValueError):
            M.inverse()
    else:
        assert _same(M.inverse(), list(zip(*want)))


@_MIXED
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_a_float_or_a_ragged_grid_is_refused_anywhere(rows, cols, data):
    i = data.draw(st.integers(0, rows - 1))
    j = data.draw(st.integers(0, cols - 1))
    grid = data.draw(_mixed_grid(rows, cols))
    grid[i][j] = 0.5
    columns = [list(c) for c in zip(*grid)]
    for build in (lambda: Matrix(rows, cols, grid),
                  lambda: Matrix.from_columns(columns)):
        with pytest.raises(TypeError):
            build()

    # one row, or one of two or more columns, an entry short or long
    grid = data.draw(_mixed_grid(rows, cols))
    grid[i] = grid[i][:-1] if data.draw(st.booleans()) else grid[i] + [1]
    with pytest.raises(ValueError, match="does not match declared shape"):
        Matrix(rows, cols, grid)
    if cols > 1:
        columns = [list(c) for c in zip(*data.draw(_mixed_grid(rows, cols)))]
        short = data.draw(st.booleans())
        columns[j] = columns[j][:-1] if short else columns[j] + [1]
        with pytest.raises(ValueError, match="does not match declared shape"):
            Matrix.from_columns(columns)


def _all_int(m):
    return all(type(x) is int for x in m.flat())


@_PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_the_all_int_record_is_the_entries(rows, inner, cols, data):
    # each factor of ints alone or of Fractions, so both ways of building
    # a product run; halves times twos and the like cancel to integers
    def grid(r, c):
        entries = data.draw(st.sampled_from([_small_ints, _entries]))
        return data.draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                                  min_size=r, max_size=r))

    A = Matrix(rows, inner, grid(rows, inner))
    B = Matrix(inner, cols, grid(inner, cols))
    P = A @ B
    assert P.data == tuple(
        tuple(sum((Fraction(a) * b for a, b in zip(r, c)), Fraction(0))
              for c in zip(*B.data)) for r in A.data)
    assert all((type(x) is int) == (Fraction(x).denominator == 1)
               for x in P.flat())
    _, proj, sect = Span(cols, P.data).complement()
    for m in (A, B, P, Matrix.zero(rows, cols), Matrix.identity(rows), proj,
              sect):
        assert m.ints == _all_int(m)
    half = Matrix(1, 2, [[Fraction(1, 2), Fraction(3, 2)]])
    one = half @ Matrix(2, 1, [[2], [0]])
    assert one.data == ((1,),) and type(one.data[0][0]) is int and one.ints


@_PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_kept_forms_are_those_of_a_fresh_copy(rows, inner, cols, data):
    # a Matrix keeps its hash, its sparse rows as the right factor of @
    # and its nonzero columns; each read, first or later, is what a fresh
    # copy of the same entries computes
    A = data.draw(_matrix(rows, inner))
    B = data.draw(_matrix(inner, cols))
    C = data.draw(_matrix(rows, inner))

    def fresh(m):
        return Matrix(m.rows, m.cols, [list(r) for r in m.data])

    for _ in range(2):
        assert hash(A) == hash(fresh(A)) and hash(B) == hash(fresh(B))
        assert A @ B == fresh(A) @ fresh(B) == _dense_product(A, B)
        assert C @ B == fresh(C) @ fresh(B) == _dense_product(C, B)
        assert B.nonzero_columns() == fresh(B).nonzero_columns()
    cols_b = B.nonzero_columns()
    assert cols_b is B.nonzero_columns()
    assert cols_b == tuple(tuple((i, a) for i, a in enumerate(c) if a != 0)
                           for c in B.columns())
    # what is handed out cannot be changed in place
    with pytest.raises(TypeError):
        cols_b[0] = ()
    with pytest.raises(AttributeError):
        cols_b[0].append((0, 1))
    assert B.nonzero_columns() == fresh(B).nonzero_columns()
    assert A @ B == _dense_product(A, B)
