import pytest

from bocskit import burt_butler
from bocskit.bocs import (bocs_compose, bocs_hom_basis, bocs_identity,
                          construct_bocs)
from bocskit.burt_butler import (borel_checks, ext_dimension,
                                 homological_check, induce, induce_bocs_map,
                                 iso_search, loop_subalgebra_check,
                                 morita_compare, right_algebra,
                                 standard_check)
from bocskit.linalg import Matrix
from bocskit.modules import is_isomorphic, projective, simple
from bocskit.quiver import (Quiver, RelationSet, build_algebra, example_a2,
                            example_dual_numbers, example_jordan3,
                            example_semisimple_pair)


@pytest.fixture(scope="module")
def r1():
    alg = example_dual_numbers()
    b = construct_bocs(alg, mode="pdelta", r_max=5)
    return alg, b, right_algebra(b)


@pytest.fixture(scope="module")
def r3():
    alg = example_jordan3()
    b = construct_bocs(alg, mode="pdelta", r_max=5)
    return alg, b, right_algebra(b)


@pytest.fixture(scope="module")
def r2():
    alg = example_a2()
    b = construct_bocs(alg, mode="delta", r_max=5)
    return alg, b, right_algebra(b)


@pytest.fixture(scope="module")
def r0():
    alg = example_semisimple_pair()
    b = construct_bocs(alg, mode="pdelta", r_max=4)
    return alg, b, right_algebra(b)


@pytest.fixture(scope="module")
def rv():
    q = Quiver(2, [("a", 2, 1)])
    alg = build_algebra(q, RelationSet(q, []))
    b = construct_bocs(alg, mode="delta", r_max=4)
    return alg, b, right_algebra(b)


def test_right_algebra_dimensions(r1, r3, r2, r0, rv):
    for (alg, b, r), want in zip((r1, r3, r2, r0, rv), (2, 3, 3, 2, 3)):
        assert r.R.dim == want
        assert len(r.basis) == want
        assert r.tensor_dim(r.XB) == want


def test_right_algebra_composes_once_per_pair(r1, monkeypatch):
    # e1 is the dual numbers in pdelta mode; R's table needs one
    # composition per ordered pair of hom-basis maps and no more
    calls = []
    compose = burt_butler.bocs_compose

    def counted(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(burt_butler, "bocs_compose", counted)
    R = right_algebra(r1[1]).R
    assert 0 < len(calls) <= R.dim ** 2


def test_local_right_algebras_match_fixture_shapes(r1, r3):
    _, _, r = r1
    R = r.R
    (a_idx,) = [k for name, s, t, k in R.arrows]
    a = R.basis_vec(a_idx)
    assert R.multiply(a, a) == R.zero()
    _, _, r = r3
    R = r.R
    (a_idx,) = [k for name, s, t, k in R.arrows]
    a = R.basis_vec(a_idx)
    sq = R.multiply(a, a)
    assert sq != R.zero()
    assert R.multiply(a, sq) == R.zero()


def test_morita_compare_fixtures(r1, r3, r2, r0, rv):
    for alg, b, r in (r1, r3, r2, r0, rv):
        out = morita_compare(alg, r)
        assert out["verdict"] == "isomorphic"
        assert out["ok"]


def test_morita_compare_distinguishes(r1, r3):
    alg1, _, _ = r1
    _, _, r = r3
    out = morita_compare(alg1, r)
    assert out["verdict"] == "distinct"
    assert not out["ok"]


def test_standard_check_fixtures(r1, r3, r2, r0):
    for alg, b, r in (r1, r3, r2, r0):
        sc = standard_check(r)
        assert sc["ok"]
        assert sc["hom_formula"] and sc["filtration"]
        assert sc["multiplicity_sum"]


def test_standard_check_uses_kernel_multiplicities(rv):
    alg, b, r = rv
    sc = standard_check(r)
    assert sc["ok"]
    # the (1, 2) entry picks up d_{21} * dim e_1 B e_1 = 1
    assert sc["hom_table"][(1, 2)] == (1, 1)
    assert sc["hom_table"][(2, 1)] == (0, 0)


def test_borel_checks_fixtures(r1, r3, r2, r0, rv):
    for alg, b, r in (r1, r3, r2, r0, rv):
        bc = borel_checks(r)
        assert bc["ok"]
        assert bc["right_projective"]
        assert bc["induce_regular_iso"]
        assert bc["dim_two_ways"]


def test_induce_simple_gives_projective(r2):
    alg, b, r = r2
    FS = induce(r, simple(b.B, 2))
    assert is_isomorphic(FS.module, projective(r.R, 2))


def test_induce_functoriality(r2):
    alg, b, r = r2
    X = projective(b.B, 1)
    Y = projective(b.B, 2)
    Z = simple(b.B, 1)
    FX, FY, FZ = (induce(r, M) for M in (X, Y, Z))
    for f in bocs_hom_basis(b, X, Y):
        for g in bocs_hom_basis(b, Y, Z):
            lhs = induce_bocs_map(r, bocs_compose(b, g, f), FX, FZ)
            rf = induce_bocs_map(r, f, FX, FY)
            rg = induce_bocs_map(r, g, FY, FZ)
            assert lhs.mat == rg.mat @ rf.mat
    idm = induce_bocs_map(r, bocs_identity(b, X), FX, FX)
    assert idm.mat == Matrix.identity(FX.module.total)


def test_homological_comparison_on_simples(r1, r3, r2, r0, rv):
    for alg, b, r in (r1, r3, r2, r0, rv):
        for i in range(1, b.B.n + 1):
            for j in range(1, b.B.n + 1):
                for k in (1, 2):
                    out = homological_check(r, simple(b.B, i),
                                            simple(b.B, j), k)
                    assert out["ok"], (i, j, k, out)
                    assert out["surjective"]
                    if k == 2:
                        assert out["injective"]


def test_homological_comparison_counts(r1):
    alg, b, r = r1
    S = simple(b.B, 1)
    out = homological_check(r, S, S, 1)
    assert out["ext_b"] == 1 and out["ext_r"] == 1
    assert out["image_rank"] == 1


def test_loop_subalgebra_fixtures(r1, r3, r2):
    for alg, b, r in (r1, r3, r2):
        for i in range(1, alg.n + 1):
            out = loop_subalgebra_check(alg, None, b, i)
            assert out["verdict"] == "isomorphic"
            assert out["dim_end"] == out["dim_sub"]


def test_iso_search_rejects_different_algebras():
    a1 = example_dual_numbers()
    a3 = example_jordan3()
    verdict, note = iso_search(a1, a3)
    assert verdict == "distinct"


def test_iso_search_budget():
    alg = example_jordan3()
    verdict, note = iso_search(alg, alg, budget=0)
    assert verdict == "not distinguished"
    assert note == "search budget exceeded"


def test_ext_dimension_matches_known_values():
    alg = example_dual_numbers()
    S = simple(alg, 1)
    assert ext_dimension(S, S, 1) == 1
    assert ext_dimension(S, S, 2) == 1
    alg2 = example_a2()
    assert ext_dimension(simple(alg2, 1), simple(alg2, 2), 1) == 1
    assert ext_dimension(simple(alg2, 2), simple(alg2, 1), 1) == 0
    assert ext_dimension(simple(alg2, 1), simple(alg2, 2), 2) == 0
