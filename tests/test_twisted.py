import random
from itertools import product

import pytest

from bocskit.bocs import construct_bocs
from bocskit.linalg import Matrix
from bocskit.modules import (is_isomorphic, projective, quotient, simple,
                             submodule)
from bocskit.quiver import (example_a2, example_dual_numbers,
                            example_jordan3, example_semisimple_pair)
from bocskit.strata import theta_filtration
from bocskit.twisted import (PretwistedModule, check_pretwisted,
                             filtered_to_bocs_module, hom_dim_compare,
                             module_from_pretwisted)

from helpers import direct_sum, validate


@pytest.fixture(scope="module")
def b1():
    return construct_bocs(example_dual_numbers(), mode="pdelta", r_max=5)


@pytest.fixture(scope="module")
def b3():
    return construct_bocs(example_jordan3(), mode="pdelta", r_max=5)


@pytest.fixture(scope="module")
def b2():
    return construct_bocs(example_a2(), mode="delta", r_max=5)


@pytest.fixture(scope="module")
def b0():
    return construct_bocs(example_semisimple_pair(), mode="pdelta",
                          r_max=4)


def cert_of(M, b):
    """The filtration certificate of M over the standard system of b."""
    cert = theta_filtration(M, b.table.rsys.system)
    assert cert is not None
    return cert


def jordan_dim2(alg):
    P = projective(alg, 1)
    vecs = [P.act[k].column(c) for k in range(alg.dim)
            if alg.bdegree[k] == 2 for c in range(P.total)]
    mod, _, _ = quotient(P, vecs)
    return mod


def test_zero_delta_gives_semisimple(b1, b2):
    for b, dims in ((b1, [2]), (b2, [1, 1])):
        pt = PretwistedModule(dims, [])
        mod = module_from_pretwisted(pt, b)
        assert all(b.B.bdegree[k] == 0 or mod.act[k].is_zero()
                   for k in range(b.B.dim))
        assert check_pretwisted(pt, b.table, b) == (True, True)


def test_nonzero_delta_not_semisimple(b1):
    (y,) = b1.table.basis(1, 1, 1)
    pt = PretwistedModule([2], [(Matrix(2, 2, [[0, 0], [1, 0]]), y)])
    mod = module_from_pretwisted(pt, b1)
    assert any(b1.B.bdegree[k] == 1 and not mod.act[k].is_zero()
               for k in range(b1.B.dim))
    assert check_pretwisted(pt, b1.table, b1) == (True, True)


def test_triangularity_fails_for_self_map(b1):
    (y,) = b1.table.basis(1, 1, 1)
    pt = PretwistedModule([1], [(Matrix(1, 1, [[1]]), y)])
    triangular, mc = check_pretwisted(pt, b1.table, b1)
    assert not triangular


def test_maurer_cartan_detects_bad_delta(b3):
    # a non-nilpotent fill makes the cube relation fail over K[a]/(a^3)
    (y,) = b3.table.basis(1, 1, 1)
    f = Matrix(3, 3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    pt = PretwistedModule([3], [(f, y)])
    triangular, mc = check_pretwisted(pt, b3.table, b3)
    assert not triangular
    assert not mc


def test_maurer_cartan_holds_exactly_when_the_module_axioms_do(b1, b3, b2):
    # check_pretwisted's relation check stands in for validating the
    # candidate module built by module_from_pretwisted
    (y1,) = b1.table.basis(1, 1, 1)
    (y3,) = b3.table.basis(1, 1, 1)
    shift = Matrix(4, 4, [[int(r == c + 1) for c in range(4)]
                          for r in range(4)])
    cases = [(b1, PretwistedModule([2], [])),
             (b2, PretwistedModule([1, 1], [])),
             (b1, PretwistedModule([2], [(Matrix(2, 2, [[0, 0], [1, 0]]),
                                          y1)])),
             (b1, PretwistedModule([1], [(Matrix(1, 1, [[1]]), y1)])),
             (b3, PretwistedModule([3], [(Matrix(3, 3, [[0, 0, 1],
                                                        [1, 0, 0],
                                                        [0, 1, 0]]), y3)])),
             (b3, PretwistedModule([4], [(shift, y3)]))]
    for b in (b1, b3, b2):
        X = filtered_to_bocs_module(cert_of(projective(b.alg, 1), b), b)
        cases.append((b, X.pretwisted))
    verdicts = []
    for b, pt in cases:
        _, mc = check_pretwisted(pt, b.table, b)
        try:
            validate(module_from_pretwisted(pt, b))
            valid = True
        except ValueError:
            valid = False
        assert mc == valid
        verdicts.append(mc)
    assert verdicts.count(False) == 3


def test_regular_modules_map_to_regular(b1, b3, b2):
    for b in (b1, b3, b2):
        X = filtered_to_bocs_module(cert_of(projective(b.alg, 1), b), b)
        assert is_isomorphic(X, projective(b.B, 1))


def test_standard_module_maps_to_simple(b1, b2):
    for b, alg, i in ((b1, example_dual_numbers(), 1),
                      (b2, example_a2(), 2)):
        sys = b.table.rsys.system
        X = filtered_to_bocs_module(cert_of(sys.module(i), b), b)
        assert X.pretwisted.delta == []
        assert is_isomorphic(X, simple(b.B, i))


def test_dimension_vector_matches_multiplicities(b1, b3, b2):
    for b in (b1, b3, b2):
        cert = cert_of(projective(b.alg, 1), b)
        X = filtered_to_bocs_module(cert, b)
        want = [0] * b.alg.n
        for v in cert.vertices():
            want[v - 1] += 1
        assert list(X.dims) == want


def test_jordan3_intermediate_module(b3):
    mod = jordan_dim2(b3.alg)
    X = filtered_to_bocs_module(cert_of(mod, b3), b3)
    assert X.dims == (2,)
    a_act = [X.act[k] for k in range(b3.B.dim)
             if b3.B.bdegree[k] == 1]
    assert any(not m.is_zero() for m in a_act)


def test_hom_dim_compare_fixture_grids(b1, b3, b2, b0):
    alg1, alg3, alg2 = b1.alg, b3.alg, b2.alg
    grids = [([projective(alg1, 1), simple(alg1, 1)], b1),
             ([projective(alg3, 1), jordan_dim2(alg3), simple(alg3, 1)], b3),
             ([projective(alg2, 1), simple(alg2, 1), simple(alg2, 2)], b2)]
    for mods, b in grids:
        outs = hom_dim_compare([cert_of(M, b) for M in mods], b)
        assert len(outs) == len(mods) ** 2
        for out in outs:
            assert out["ok"]
    outs = hom_dim_compare([cert_of(simple(b0.alg, i), b0) for i in (1, 2)],
                           b0)
    for (i, j), out in zip(product((1, 2), (1, 2)), outs, strict=True):
        assert out["ok"]
        assert out["dim_hom_A"] == (1 if i == j else 0)


def test_six_layer_module_builds_without_a_bound(b1):
    big = cert_of(direct_sum([projective(b1.alg, 1)] * 3), b1)
    X = filtered_to_bocs_module(big, b1)
    assert X.total == 6


def test_failed_maurer_cartan_is_inconclusive(b1, monkeypatch):
    import bocskit.twisted as twisted

    monkeypatch.setattr(twisted, "check_pretwisted",
                        lambda pt, table, bocs: (True, False))
    cert = cert_of(projective(b1.alg, 1), b1)
    with pytest.raises(ValueError, match="inconclusive"):
        filtered_to_bocs_module(cert, b1)


def test_sub_pretwisted_gives_submodule(b1, b3):
    # truncating delta to the last coordinates yields the coordinate
    # submodule of the correspondence
    rng = random.Random(7)
    cases = []
    # over the square-zero base the filled block must square to zero
    n = 4
    grid = [[0] * n for _ in range(n)]
    for r in range(2, n):
        for c in range(2):
            grid[r][c] = rng.choice([1, -1, 2])
    cases.append((b1, n, grid))
    # over the cube-zero base any strict triangle on 3 layers works
    n = 3
    grid = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r):
            grid[r][c] = rng.choice([1, -1, 2])
    cases.append((b3, n, grid))
    for b, n, grid in cases:
        (y,) = b.table.basis(1, 1, 1)
        pt = PretwistedModule([n], [(Matrix(n, n, grid), y)])
        triangular, mc = check_pretwisted(pt, b.table, b)
        assert triangular and mc
        mod = module_from_pretwisted(pt, b)
        for cut in range(1, n):
            sub_grid = [row[cut:] for row in grid[cut:]]
            sub_pt = PretwistedModule([n - cut],
                                      [(Matrix(n - cut, n - cut,
                                               sub_grid), y)])
            sub_mod = module_from_pretwisted(sub_pt, b)
            vecs = [tuple(1 if k == c else 0 for k in range(n))
                    for c in range(cut, n)]
            inside, inc = submodule(mod, vecs)
            assert is_isomorphic(inside, sub_mod)
            quot_grid = [row[:cut] for row in grid[:cut]]
            quot_pt = PretwistedModule([cut],
                                       [(Matrix(cut, cut, quot_grid),
                                         y)])
            quot_mod = module_from_pretwisted(quot_pt, b)
            q, _, _ = quotient(mod, vecs)
            assert is_isomorphic(q, quot_mod)


def test_unfiltered_module_rejected(b2):
    sys = b2.table.rsys.system
    P2 = projective(b2.alg, 2)
    assert theta_filtration(P2, sys) is not None
    # over the path algebra of 2 -> 1, Delta(2) = P(2) has S(1) below its
    # top, so the simple S(2) has no Delta-filtration: no certificate, and
    # so nothing to pass to filtered_to_bocs_module
    from bocskit.quiver import Quiver, RelationSet, build_algebra
    q = Quiver(2, [("a", 2, 1)])
    alg_rev = build_algebra(q, RelationSet(q, []))
    b_rev = construct_bocs(alg_rev, mode="delta", r_max=4)
    sys_rev = b_rev.table.rsys.system
    assert theta_filtration(projective(alg_rev, 2), sys_rev) is not None
    assert theta_filtration(simple(alg_rev, 2), sys_rev) is None
