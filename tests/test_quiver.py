import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bocskit.linalg import ONE, ZERO, Matrix, nonzeros
from bocskit.quiver import (Algebra, Quiver, Relation, RelationSet,
                            build_algebra, from_structure_constants,
                            example_a2, example_dual_numbers,
                            example_jordan3, example_semisimple_pair,
                            table_product)


def test_dual_numbers_basis():
    alg = example_dual_numbers()
    assert alg.dim == 2
    assert sorted(alg.labels) == ["e1", "x"]
    x = alg.basis_vec(alg.arrows[0][3])
    assert alg.multiply(x, x) == alg.zero()


def test_a2_basis_and_products():
    alg = example_a2()
    assert alg.dim == 3
    a = alg.basis_vec(alg.arrows[0][3])
    e1 = alg.idempotent(1)
    e2 = alg.idempotent(2)
    # a: 1 -> 2, so a * e1 = a (e1 applied first) and e1 * a = 0
    assert alg.multiply(a, e1) == a
    assert alg.multiply(e1, a) == alg.zero()
    assert alg.multiply(e2, a) == a
    assert alg.multiply(a, e2) == alg.zero()


def test_semisimple_pair():
    alg = example_semisimple_pair()
    assert alg.dim == 2
    assert alg.cartan_matrix() == [[1, 0], [0, 1]]


def test_jordan3():
    alg = example_jordan3()
    assert alg.dim == 3
    x = alg.basis_vec(alg.arrows[0][3])
    x2 = alg.multiply(x, x)
    assert x2 != alg.zero()
    assert alg.multiply(x, x2) == alg.zero()
    assert alg.cartan_matrix() == [[3]]


def test_cartan_matrices():
    assert example_dual_numbers().cartan_matrix() == [[2]]
    # entry (i,j) = dim e_i A e_j; the arrow 1 -> 2 sits in e_2 A e_1
    assert example_a2().cartan_matrix() == [[1, 0], [1, 1]]


def test_cartan_sums_to_dim():
    for alg in (example_dual_numbers(), example_a2(),
                example_semisimple_pair(), example_jordan3()):
        assert sum(sum(row) for row in alg.cartan_matrix()) == alg.dim


def test_unit_is_two_sided():
    for alg in (example_dual_numbers(), example_a2(), example_jordan3()):
        one = alg.unit()
        for k in range(alg.dim):
            b = alg.basis_vec(k)
            assert alg.multiply(one, b) == b
            assert alg.multiply(b, one) == b


def test_infinite_dimensional_detected():
    q = Quiver(1, [("x", 1, 1)])
    with pytest.raises(ValueError, match="not finite dimensional"):
        build_algebra(q, RelationSet(q, []), length_bound=6)


def test_inhomogeneous_relation_rejected():
    q = Quiver(2, [("a", 1, 2), ("b", 2, 1)])
    with pytest.raises(ValueError, match="inhomogeneous"):
        Relation(q, [(1, 1, ("a", "b")), (1, 2, ("b", "a"))])


def test_commutative_square_with_relation():
    # two paths 1 -> 4, relation identifies them
    q = Quiver(4, [("a", 1, 2), ("b", 2, 4), ("c", 1, 3), ("d", 3, 4)])
    rel = Relation(q, [(1, 1, ("a", "b")), (-1, 1, ("c", "d"))])
    alg = build_algebra(q, RelationSet(q, [rel]))
    # 4 idempotents + 4 arrows + 1 path of length 2
    assert alg.dim == 9
    ab = alg.multiply(alg.basis_vec(alg.arrows[1][3]),
                      alg.basis_vec(alg.arrows[0][3]))
    cd = alg.multiply(alg.basis_vec(alg.arrows[3][3]),
                      alg.basis_vec(alg.arrows[2][3]))
    assert ab == cd
    assert ab != alg.zero()


def test_mixed_length_relation_global_path():
    # loop with x^2 = x^3 is not admissible (x^2 survives all powers up to
    # the bound), so the fallback reduction must report non-termination
    q = Quiver(1, [("x", 1, 1)])
    rel = Relation(q, [(1, 1, ("x", "x")), (-1, 1, ("x", "x", "x"))])
    with pytest.raises(ValueError):
        build_algebra(q, RelationSet(q, [rel]), length_bound=8)


def test_mixed_length_nilpotent_relation():
    # a*b equals a longer path through another vertex; everything nilpotent
    q = Quiver(2, [("a", 1, 2), ("b", 2, 1), ("c", 1, 1)])
    rel1 = Relation(q, [(1, 1, ("a", "b")), (-1, 1, ("c", "c"))])
    rel2 = Relation(q, [(1, 1, ("c", "c", "c"))])
    rel3 = Relation(q, [(1, 2, ("b", "a"))])
    rel4 = Relation(q, [(1, 2, ("b", "c"))])
    rel5 = Relation(q, [(1, 1, ("c", "a"))])
    alg = build_algebra(q, RelationSet(q, [rel1, rel2, rel3, rel4, rel5]),
                        length_bound=8)
    ab = alg.multiply(alg.basis_vec(alg.arrows[1][3]),
                      alg.basis_vec(alg.arrows[0][3]))
    cc = alg.multiply(alg.basis_vec(alg.arrows[2][3]),
                      alg.basis_vec(alg.arrows[2][3]))
    assert ab == cc
    assert ab != alg.zero()


def test_opposite_algebra():
    alg = example_a2()
    op = alg.opposite()
    a_op = op.basis_vec(alg.arrows[0][3])
    e1 = op.idempotent(1)
    assert op.multiply(e1, a_op) == a_op
    assert op.multiply(a_op, e1) == op.zero()
    op.check_associativity()


def test_from_structure_constants_roundtrip():
    alg = example_jordan3()
    rebuilt = from_structure_constants(1, alg.table, [alg.unit()])
    assert rebuilt.dim == 3
    assert [rebuilt.bdegree[k] for k in range(3)] == sorted(rebuilt.bdegree)
    assert len(rebuilt.arrows) == 1
    x = rebuilt.basis_vec(rebuilt.arrows[0][3])
    x3 = rebuilt.multiply(x, rebuilt.multiply(x, x))
    assert x3 == rebuilt.zero()


def test_from_structure_constants_two_vertices():
    alg = example_a2()
    rebuilt = from_structure_constants(
        2, alg.table, [alg.idempotent(1), alg.idempotent(2)])
    assert rebuilt.dim == 3
    assert rebuilt.cartan_matrix() == [[1, 0], [1, 1]]
    assert len(rebuilt.arrows) == 1
    name, s, t, k = rebuilt.arrows[0]
    assert (s, t) == (1, 2)


def test_from_structure_constants_rejects_non_elementary():
    # 2x2 matrix algebra over K is not elementary: basis e11, e12, e21,
    # e22 with (i,j)(k,l) = delta_jk (i,l)
    table = [[{0: 1}, {1: 1}, {}, {}],
             [{}, {}, {0: 1}, {1: 1}],
             [{2: 1}, {3: 1}, {}, {}],
             [{}, {}, {2: 1}, {3: 1}]]
    unit = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    with pytest.raises(ValueError, match="elementary"):
        from_structure_constants(1, table, [unit])


def test_from_structure_constants_tabulates_a_mult_function():
    alg = example_jordan3()
    from_table = from_structure_constants(1, alg.table, [alg.unit()])
    from_mult = from_structure_constants(1, alg.multiply, [alg.unit()])
    assert from_mult.table == from_table.table
    assert from_mult.new_to_old == from_table.new_to_old


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


@st.composite
def _monomial_algebras(draw):
    """A quiver algebra on at most two vertices and two arrows, with every
    path of length 2 or 3 set to zero, and when 3 some paths of length 2."""
    n = draw(st.integers(1, 2))
    pairs = [(s, t) for s in range(1, n + 1) for t in range(1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2))
    q = Quiver(n, [(f"a{k}", s, t) for k, (s, t) in enumerate(chosen)])
    length = draw(st.integers(2, 3))
    paths = [(s, (name,), t) for name, s, t in q.arrows]
    rels = []
    for ell in range(2, length + 1):
        paths = [(s, p + (name,), t2) for s, p, t in paths
                 for name, s2, t2 in q.arrows if s2 == t]
        rels += [Relation(q, [(1, s, p)]) for s, p, t in paths
                 if ell == length or draw(st.booleans())]
    return build_algebra(q, RelationSet(q, rels))


@st.composite
def _base_changes(draw, dim):
    """An invertible matrix: rows of a unit lower triangular matrix in a
    drawn order, times an upper triangular one with nonzero diagonal."""
    ints, pivots = st.integers(-2, 2), st.sampled_from([1, -1, 2])
    lower = [[draw(ints) if j < i else int(i == j) for j in range(dim)]
             for i in range(dim)]
    upper = [[draw(ints) if j > i else draw(pivots) if j == i else 0
              for j in range(dim)] for i in range(dim)]
    perm = draw(st.permutations(range(dim)))
    return Matrix.from_rows([lower[p] for p in perm]) @ Matrix.from_rows(upper)


def _signature(alg):
    return sorted(zip(alg.btarget, alg.bsource, alg.bdegree))


@_PROPERTY
@given(_monomial_algebras(), st.data())
def test_from_structure_constants_undoes_a_base_change(alg, data):
    P = data.draw(_base_changes(alg.dim))
    Pinv = P.inverse()
    # raw basis[k] is column k of P; raw coordinates are P^-1 of old ones
    cols = P.columns()
    table = [[nonzeros(Pinv.apply(alg.multiply(u, v))) for v in cols]
             for u in cols]
    idems = [Pinv.apply(alg.idempotent(i)) for i in range(1, alg.n + 1)]
    rebuilt = from_structure_constants(alg.n, table, idems)
    assert rebuilt.dim == alg.dim
    assert rebuilt.cartan_matrix() == alg.cartan_matrix()
    assert _signature(rebuilt) == _signature(alg)
    F = rebuilt.new_to_old
    assert rebuilt.old_to_new @ F == Matrix.identity(alg.dim)
    for i in range(alg.dim):
        u = rebuilt.basis_vec(i)
        for j in range(alg.dim):
            v = rebuilt.basis_vec(j)
            assert F.apply(rebuilt.multiply(u, v)) == table_product(
                table, F.apply(u), F.apply(v))
