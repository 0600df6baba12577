import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bocskit.burt_butler import right_algebra
from bocskit.linalg import ONE, ZERO, Matrix, nonzeros
from bocskit.quiver import (Algebra, Quiver, Relation, RelationSet,
                            _build_global, _build_graded, _trace_form,
                            build_algebra,
                            from_structure_constants,
                            example_a2, example_dual_numbers,
                            example_jordan3, example_semisimple_pair,
                            table_product)

from helpers import (auslander, dense_check_associativity, dense_trace_form,
                     monomial_algebras)


def test_dual_numbers_basis():
    alg = example_dual_numbers()
    assert alg.dim == 2
    assert sorted(alg.labels) == ["e1", "x"]
    x = alg.basis_vec(alg.arrows[0][3])
    assert alg.multiply(x, x) == (0,) * alg.dim


def test_a2_basis_and_products():
    alg = example_a2()
    assert alg.dim == 3
    a = alg.basis_vec(alg.arrows[0][3])
    e1 = alg.idempotent(1)
    e2 = alg.idempotent(2)
    # a: 1 -> 2, so a * e1 = a (e1 applied first) and e1 * a = 0
    assert alg.multiply(a, e1) == a
    assert alg.multiply(e1, a) == (0,) * alg.dim
    assert alg.multiply(e2, a) == a
    assert alg.multiply(a, e2) == (0,) * alg.dim


def test_semisimple_pair():
    alg = example_semisimple_pair()
    assert alg.dim == 2
    assert alg.cartan_matrix() == [[1, 0], [0, 1]]


def test_jordan3():
    alg = example_jordan3()
    assert alg.dim == 3
    x = alg.basis_vec(alg.arrows[0][3])
    x2 = alg.multiply(x, x)
    assert x2 != (0,) * alg.dim
    assert alg.multiply(x, x2) == (0,) * alg.dim
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
    assert ab != (0,) * alg.dim


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
    assert ab != (0,) * alg.dim


def test_mixed_length_relations_take_the_global_reduction(
        mixed_length_algebras):
    loop, cycle = mixed_length_algebras
    for alg in mixed_length_algebras:
        assert not alg.relations.homogeneous
        ref = _build_global(alg.quiver, alg.relations, 8)
        assert (alg.paths, alg.table) == (ref.paths, ref.table)
    # x^2 = x^3 = x^4 = 0: K[x]/(x^2)
    assert loop.dim == 2 and loop.labels == ["e1", "x"]
    x = loop.basis_vec(loop.arrows[0][3])
    assert loop.multiply(x, x) == (0,) * loop.dim
    # b a = c^3 survives; c^4, a b, b c and a c vanish
    assert cycle.dim == 7
    assert cycle.labels == ["e1", "e2", "a", "c", "b", "c*c", "c*c*c"]
    a, b, c = (cycle.basis_vec(k) for _, _, _, k in cycle.arrows)
    c3 = cycle.multiply(c, cycle.multiply(c, c))
    assert c3 == cycle.basis_vec(cycle.labels.index("c*c*c"))
    assert cycle.multiply(b, a) == c3 != (0,) * cycle.dim
    assert cycle.multiply(c, c3) == (0,) * cycle.dim
    assert cycle.cartan_matrix() == [[4, 1], [1, 1]]


def test_global_and_graded_builders_agree_on_homogeneous_relations(
        mixed_algebras):
    q = Quiver(4, [("a", 1, 2), ("b", 2, 4), ("c", 1, 3), ("d", 3, 4)])
    square = RelationSet(q, [Relation(q, [(1, 1, ("a", "b")),
                                          (-1, 1, ("c", "d"))])])
    inputs = [(alg.quiver, alg.relations) for alg in mixed_algebras
              if alg.quiver is not None] + [(q, square)]
    assert len(inputs) == 11
    for quiver, relations in inputs:
        assert relations.homogeneous
        one = _build_global(quiver, relations, 12)
        two = _build_graded(quiver, relations, 12)
        assert (one.paths, one.table, one.labels, one.arrows) == (
            two.paths, two.table, two.labels, two.arrows)


def test_trace_form_is_the_sum_over_every_ordered_pair(
        mixed_algebras, mixed_length_algebras):
    tables = [alg.table for alg in mixed_algebras + mixed_length_algebras]
    tables.append(auslander(3).table)
    for table in tables:
        assert _trace_form(table) == dense_trace_form(table)


def _associativity_error(check, alg):
    try:
        check(alg)
    except ValueError as exc:
        return str(exc)
    return None


def test_sparse_associativity_check_matches_the_dense_reference():
    # every table with one coefficient raised by one, or one product set
    # where it was zero, fails or passes both checks at the same triple
    failures = 0
    for alg in (example_a2(), example_jordan3(), auslander(2)):
        assert _associativity_error(Algebra.check_associativity, alg) \
            is None
        assert _associativity_error(dense_check_associativity, alg) is None
        for i, j, m in product(range(alg.dim), repeat=3):
            table = [[dict(c) for c in row] for row in alg.table]
            table[i][j][m] = table[i][j].get(m, 0) + 1
            bad = Algebra(alg.n, alg.bsource, alg.btarget, alg.bdegree,
                          alg.unit_index, table, alg.arrows, alg.labels)
            got = _associativity_error(Algebra.check_associativity, bad)
            assert got == _associativity_error(dense_check_associativity,
                                               bad)
            failures += got is not None
    assert failures > 0


@pytest.fixture(scope="module")
def associativity_algebras(fixture_bocses, corpus_bocses):
    """e0-e3, the benchmark corpus and the right algebras of their
    bocses."""
    algs = [example_semisimple_pair(), example_dual_numbers(), example_a2(),
            example_jordan3()]
    algs += [alg for alg, _, _ in corpus_bocses.values()]
    bocses = list(fixture_bocses.values())
    bocses += [bocs for _, _, bocs in corpus_bocses.values()]
    return algs + [right_algebra(bocs).R for bocs in bocses]


def _perturbed(alg, i, j, m, delta):
    """alg with the coefficient of b_m in b_i b_j moved by delta."""
    table = [[dict(c) for c in row] for row in alg.table]
    table[i][j][m] = table[i][j].get(m, 0) + delta
    table[i][j] = {k: c for k, c in table[i][j].items() if c}
    return Algebra(alg.n, alg.bsource, alg.btarget, alg.bdegree,
                   alg.unit_index, table, alg.arrows, alg.labels)


def _both_associativity_errors(alg):
    return (_associativity_error(Algebra.check_associativity, alg),
            _associativity_error(dense_check_associativity, alg))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_live_triples_decide_associativity_as_every_triple(
        associativity_algebras, data):
    # one coefficient of the table changed, or one product set where it
    # was zero: the sparse check visits only the triples where a side
    # can be nonzero, and fails at the same first triple as the dense one
    alg = data.draw(st.sampled_from(associativity_algebras))
    i, j, m = (data.draw(st.integers(0, alg.dim - 1)) for _ in range(3))
    delta = data.draw(st.sampled_from([1, -1, 2]))
    assert _both_associativity_errors(alg) == (None, None)
    got, want = _both_associativity_errors(_perturbed(alg, i, j, m, delta))
    assert got == want


def test_live_triples_are_visited_in_ascending_order():
    # in the Auslander algebra of K[x]/(x^3), e1 e1 raised at e1 fails
    # at b1 and at a later k of 8 or more, which a set of the live k
    # lists first
    got, want = _both_associativity_errors(_perturbed(auslander(3), 0, 0,
                                                      0, 1))
    assert got == want == \
        "structure constants not associative at (e1,e1,b1)"


def test_from_structure_constants_roundtrip():
    alg = example_jordan3()
    rebuilt = from_structure_constants(1, alg.table, [alg.unit()])
    assert rebuilt.dim == 3
    assert [rebuilt.bdegree[k] for k in range(3)] == sorted(rebuilt.bdegree)
    assert len(rebuilt.arrows) == 1
    x = rebuilt.basis_vec(rebuilt.arrows[0][3])
    x3 = rebuilt.multiply(x, rebuilt.multiply(x, x))
    assert x3 == (0,) * rebuilt.dim


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
def _base_changes(draw, dim):
    """An invertible matrix: rows of a unit lower triangular matrix in a
    drawn order, times an upper triangular one with nonzero diagonal."""
    ints, pivots = st.integers(-2, 2), st.sampled_from([1, -1, 2])
    lower = [[draw(ints) if j < i else int(i == j) for j in range(dim)]
             for i in range(dim)]
    upper = [[draw(ints) if j > i else draw(pivots) if j == i else 0
              for j in range(dim)] for i in range(dim)]
    perm = draw(st.permutations(range(dim)))
    return (Matrix(dim, dim, [lower[p] for p in perm])
            @ Matrix(dim, dim, upper))


def _signature(alg):
    return sorted(zip(alg.btarget, alg.bsource, alg.bdegree))


@_PROPERTY
@given(monomial_algebras(), st.data())
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
