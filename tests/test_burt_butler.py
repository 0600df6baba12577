import copy
import gc
import re
import weakref
from collections import Counter
from itertools import product
from types import SimpleNamespace

import pytest

from bocskit import burt_butler, pipeline
from bocskit.bocs import (RightBasis, TensorModule, _on_coords, bocs_compose,
                          bocs_hom_basis, construct_bocs, tensor_module)
from bocskit.burt_butler import (borel_checks, ext_dimension,
                                 homological_check, induce, induce_map,
                                 iso_search,
                                 loop_subalgebra_check,
                                 morita_compare, right_algebra,
                                 standard_check)
from bocskit.corpus import random_corpus
from bocskit.linalg import Matrix, Span
from bocskit.modules import (FDModule, ModuleMap, hom_basis, is_isomorphic,
                             projective, simple, sum_of_projectives,
                             syzygies)
from bocskit.pipeline import (indecomposables_up_to, roundtrip_bocs,
                              run_pipeline)
from bocskit.quiver import (Quiver, Relation, RelationSet, build_algebra,
                            example_a2,
                            example_dual_numbers, example_jordan3,
                            example_semisimple_pair)
from bocskit.resolution import _hom_space, minimal_resolution
from bocskit.strata import standard_modules

from helpers import (HomInduction, auslander, balanced_relations,
                     bocs_identity, check_intertwining, direct_sum,
                     module_from_action, reference_bocs_compose,
                     reference_check_embedding)


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
        assert induce(r, r.XB).total == want


def test_right_algebra_composes_once_per_pair(r1, monkeypatch):
    # e1 is the dual numbers in pdelta mode; R's table needs one
    # composition per ordered pair of hom-basis maps and no more, and
    # one pair image per hom-basis map
    calls, images = [], []
    compose, image = burt_butler.bocs_compose, burt_butler.pair_image

    def counted(*args):
        calls.append(args)
        return compose(*args)

    def counted_image(*args):
        images.append(args)
        return image(*args)

    monkeypatch.setattr(burt_butler, "bocs_compose", counted)
    monkeypatch.setattr(burt_butler, "pair_image", counted_image)
    r = right_algebra(r1[1])
    assert 0 < len(calls) <= r.R.dim ** 2
    assert len(images) == len(r.basis)


def test_compose_matches_the_reference_at_every_pair(r0, r1, r2, r3,
                                                     corpus_bocses):
    # the composite read at the chosen pairs equals the composite over
    # every pair read back through sect: on every ordered pair of
    # End(B) basis maps, and through induction by Hom_bocs(B, -) where R
    # is elementary
    ladder = [construct_bocs(auslander(n), list(range(n, 0, -1)),
                             "pdelta", r_max=3) for n in (2, 3)]
    bocses = ([b for _, b, _ in (r0, r1, r2, r3)]
              + [b for _, _, b in corpus_bocses.values()] + ladder)
    induced = 0
    for b in bocses:
        B = b.B
        XB = sum_of_projectives(B, list(range(1, B.n + 1)))
        basis = bocs_hom_basis(b, XB, XB)
        for f, g in product(basis, repeat=2):
            assert bocs_compose(b, g, f).mat == \
                reference_bocs_compose(b, g, f).mat
        try:
            ralg = right_algebra(b)
        except ValueError as exc:
            assert "not elementary" in str(exc) and b is ladder[1]
            continue
        hom = HomInduction(ralg)
        mods = [M for i in range(1, B.n + 1)
                for M in (simple(B, i), projective(B, i))]
        for X, Y in product(mods, repeat=2):
            FX, FY = hom.induce(X), hom.induce(Y)
            for u in hom_basis(X, Y):
                assert hom.induce_map(u, FX, FY).mat == hom.induce_map(
                    u, FX, FY, compose=reference_bocs_compose).mat
                induced += 1
    assert induced > 0


def test_local_right_algebras_match_fixture_shapes(r1, r3):
    _, _, r = r1
    R = r.R
    (a_idx,) = [k for name, s, t, k in R.arrows]
    a = R.basis_vec(a_idx)
    assert R.multiply(a, a) == (0,) * R.dim
    _, _, r = r3
    R = r.R
    (a_idx,) = [k for name, s, t, k in R.arrows]
    a = R.basis_vec(a_idx)
    sq = R.multiply(a, a)
    assert sq != (0,) * R.dim
    assert R.multiply(a, sq) == (0,) * R.dim


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


def _reference_tensor_dim(ralg, X):
    """dim R (x)_B X from the balanced relations on the pairs of R (x) X."""
    npairs = ralg.R.dim * X.total
    return npairs - len(Span(npairs, balanced_relations(ralg.right_act,
                                                        X.act)))


def test_right_basis_of_r_agrees_with_balanced_relations(fixture_bocses,
                                                         corpus_bocses):
    bocses = list(fixture_bocses.values())
    bocses += [b for _, _, b in corpus_bocses.values()]
    bocses += [construct_bocs(auslander(2), [2, 1], mode=mode, r_max=3)
               for mode in ("pdelta", "delta")]
    for b in bocses:
        B, r = b.B, right_algebra(b)
        simples = [simple(B, i) for i in range(1, B.n + 1)]
        mods = [r.XB] + simples + [projective(B, i)
                                   for i in range(1, B.n + 1)]
        assert ([induce(r, X).total for X in mods]
                == [_reference_tensor_dim(r, X) for X in mods])
        # R_B is projective when its top, read off R (x)_B S_v, spans
        # as much as R
        free_dim = sum(_reference_tensor_dim(r, S) * B.btarget.count(v)
                       for v, S in enumerate(simples, 1))
        assert borel_checks(r)["right_projective"] == (free_dim == r.R.dim)


def test_an_r_not_right_free_on_its_top_is_refused(r1):
    # B = K[a]/(a^2) and R has dimension 2; with R.a = 0 both basis
    # elements lie in the top, and two copies of e_1 B have dimension 4
    alg, b, r = r1
    bad = copy.copy(r)
    rad = b.B.radical_indices()
    bad.right_act = [Matrix.zero(m.rows, m.cols) if k in rad else m
                     for k, m in enumerate(r.right_act)]
    bad.right = RightBasis("R", r.R, b.B,
                           list(zip(r.R.btarget, r.R.bsource)),
                           bad.right_act, r.right.lcols)
    report = borel_checks(bad)
    assert (report["right_projective"], report["ok"]) == (False, False)
    assert "induce_regular_iso" not in report
    witness = "dim R = 2, sum of dim e_v(t)B = 4"
    with pytest.raises(ValueError, match=re.escape(
            f"R is not right-free on its top: {witness}")):
        induce(bad, simple(b.B, 1))
    assert borel_checks(r)["right_projective"]


def _zero_path_at_3():
    """Arrows a0: 3 -> 2 and a1: 2 -> 1 with a0 then a1 zero, order
    [2, 3, 1].  R has dim 5, where #{btarget = a} #{bsource = b} would
    count 6."""
    q = Quiver(3, [("a0", 3, 2), ("a1", 2, 1)])
    rels = [Relation(q, [(1, 3, ("a0", "a1"))])]
    return build_algebra(q, RelationSet(q, rels)), [2, 3, 1]


def _auslander_of_dual_numbers():
    """The Auslander algebra of K[x]/(x^2): a1: 1 -> 2 and b1: 2 -> 1 with
    a1 then b1 zero, order [2, 1]."""
    q = Quiver(2, [("a1", 1, 2), ("b1", 2, 1)])
    rels = [Relation(q, [(1, 1, ("a1", "b1"))])]
    return build_algebra(q, RelationSet(q, rels), length_bound=6), [2, 1]


@pytest.mark.parametrize("mode", ["pdelta", "delta"])
@pytest.mark.parametrize("build", [_zero_path_at_3,
                                   _auslander_of_dual_numbers])
def test_dim_two_ways_counts_right_ideals_on_both_sides(build, mode):
    alg, order = build()
    rep = run_pipeline(alg, order, mode=mode)
    assert rep.doc["ok"]
    assert rep.doc["right_algebra"]["dim"] == 5


def test_dim_two_ways_refutes_a_doubled_multiplicity(r2, rv, monkeypatch):
    for alg, b, r in (r2, rv):
        assert borel_checks(r)["dim_two_ways"]
    alg, b, r = rv
    assert b.d
    key = min(b.d)
    # with the premise granted, the formula alone must catch it
    monkeypatch.setattr(b, "kernel_is_free", lambda: True)
    monkeypatch.setattr(b, "d", {**b.d, key: 2 * b.d[key]})
    assert not borel_checks(r)["dim_two_ways"]
    monkeypatch.undo()
    monkeypatch.setattr(b, "kernel_is_free", lambda: False)
    assert not borel_checks(r)["dim_two_ways"]


def test_induce_simple_gives_projective(r2):
    alg, b, r = r2
    FS = induce(r, simple(b.B, 2))
    assert is_isomorphic(FS, projective(r.R, 2))


def test_induce_functoriality(r2):
    # induction through Hom_bocs(B, -), the reference for induce, is
    # functorial on bocs morphisms
    alg, b, r = r2
    X = projective(b.B, 1)
    Y = projective(b.B, 2)
    Z = simple(b.B, 1)
    hom = HomInduction(r)
    FX, FY, FZ = (hom.induce(M) for M in (X, Y, Z))
    for f in bocs_hom_basis(b, X, Y):
        for g in bocs_hom_basis(b, Y, Z):
            lhs = hom.induce_bocs_map(bocs_compose(b, g, f), FX, FZ)
            rf = hom.induce_bocs_map(f, FX, FY)
            rg = hom.induce_bocs_map(g, FY, FZ)
            assert lhs.mat == rg.mat @ rf.mat
    idm = hom.induce_bocs_map(bocs_identity(b, X), FX, FX)
    assert idm.mat == Matrix.identity(FX.module.total)


def _copy(X):
    return FDModule(X.alg, X.dims, X.act)


def test_induce_agrees_with_induction_through_hom_bocs(fixture_bocses,
                                                      corpus_bocses):
    # R (x)_B X read off R's right basis against Hom_bocs(B, X), on the
    # simples, projectives and indecomposables of dimension at most 4 of
    # B: isomorphic R-modules, and 1 (x) u a module map of the rank of
    # the Hom image of u, the identity on 1 and functorial
    bocses = list(fixture_bocses.values())
    bocses += [b for _, _, b in corpus_bocses.values()]
    bocses += [construct_bocs(auslander(2), [2, 1], mode=mode, r_max=3)
               for mode in ("pdelta", "delta")]
    maps = 0
    for b in bocses:
        B, r = b.B, right_algebra(b)
        hom = HomInduction(r)
        mods = [M for i in range(1, B.n + 1)
                for M in (simple(B, i), projective(B, i))]
        mods += indecomposables_up_to(B, 4)
        induced = [induce(r, X) for X in mods]
        refs = [hom.induce(X) for X in mods]
        for X, FX, HX in zip(mods, induced, refs):
            assert is_isomorphic(FX, HX.module)
            one = ModuleMap(X, X, Matrix.identity(X.total))
            assert induce_map(one, FX, FX).mat == Matrix.identity(FX.total)
        pairs = list(product(zip(mods, induced, refs), repeat=2))
        for (X, FX, HX), (Y, FY, HY) in pairs:
            for u in hom_basis(X, Y):
                got = induce_map(u, FX, FY)
                check_intertwining(got)
                assert got.mat.rank() == hom.induce_map(u, HX, HY).mat.rank()
                maps += 1
        for (X, FX, _), (Y, FY, _), (Z, FZ, _) in product(
                zip(mods, induced, refs), repeat=3):
            for u in hom_basis(X, Y):
                for v in hom_basis(Y, Z):
                    assert induce_map(v.compose(u), FX, FZ).mat == \
                        induce_map(v, FY, FZ).mat @ \
                        induce_map(u, FX, FY).mat
    assert maps > 0


def test_induce_is_stored_by_module_content(r0, r1, r2, r3):
    # an equal module gets the stored value; the oracle builds it again
    # on the right basis of a fresh right algebra.  S + S has the
    # dimensions of P(i) on e1 and e3, but not its action.
    for alg, b, r in (r0, r1, r2, r3):
        B = b.B
        fresh = right_algebra(b)
        mods = [r.XB]
        for i in range(1, B.n + 1):
            S = simple(B, i)
            mods += [S, projective(B, i), direct_sum([S, S])]
            for cover, ker, _ in syzygies(S, 2):
                mods += [cover.source, ker]
        for X in mods:
            first = induce(r, X)
            Y = _copy(X)
            got = induce(r, Y)
            assert got is first
            want = TensorModule(fresh.right, Y)
            assert got.dims == want.dims and got.chosen == want.chosen
            assert [a.data for a in got.act] == [a.data for a in want.act]


def test_an_equal_module_shares_every_module_memo(r2, r3):
    for alg, b, r in (r2, r3):
        B = b.B
        res = minimal_resolution(simple(B, 1))
        for X in (simple(B, 1), projective(B, 1), r.XB):
            Y = _copy(X)
            assert tensor_module(b, Y) is tensor_module(b, X)
            assert _hom_space(res, 0, Y) is _hom_space(res, 0, X)
            assert induce(r, Y) is induce(r, X)


@pytest.mark.parametrize("example", [example_dual_numbers, example_jordan3])
def test_roundtrip_induces_each_module_content_once(example, monkeypatch):
    bocs = construct_bocs(example(), mode="pdelta", r_max=3)
    built, calls = Counter(), [0]
    real_induce, real_build = burt_butler.induce, TensorModule.__init__

    def counted(ralg, X):
        calls[0] += 1
        return real_induce(ralg, X)

    def build(self, basis, X):
        if basis.name == "R":
            built[X] += 1
        real_build(self, basis, X)

    monkeypatch.setattr(burt_butler, "induce", counted)
    monkeypatch.setattr(pipeline, "induce", counted)
    monkeypatch.setattr(TensorModule, "__init__", build)
    roundtrip_bocs(bocs)
    assert set(built.values()) == {1}
    assert calls[0] > len(built)


def test_a_dropped_right_algebra_is_freed_without_the_cyclic_collector():
    gc.disable()
    try:
        for example, mode in ((example_dual_numbers, "pdelta"),
                              (example_a2, "delta")):
            bocs = construct_bocs(example(), mode=mode, r_max=4)
            r = right_algebra(bocs)
            sc = standard_check(r)
            assert sc["ok"]
            simples = [simple(bocs.B, i) for i in range(1, bocs.B.n + 1)]
            outs = homological_check(r, simples, simples)
            assert all(out["ok"] for out in outs) and r.right.tensors
            # an equal copy hits the memo
            copies = [_copy(S) for S in simples]
            assert all(induce(r, C) is induce(r, S)
                       for C, S in zip(copies, simples))
            refs = [weakref.ref(obj) for obj in (r, bocs)]
            del bocs, r, sc, outs, simples, copies
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_homological_comparison_on_simples(r1, r3, r2, r0, rv):
    for alg, b, r in (r1, r3, r2, r0, rv):
        vertices = range(1, b.B.n + 1)
        simples = [simple(b.B, i) for i in vertices]
        outs = homological_check(r, simples, simples)
        for (i, j, k), out in zip(product(vertices, vertices, (1, 2)), outs,
                                  strict=True):
            assert out["k"] == k
            assert out["ok"], (i, j, k, out)
            assert out["surjective"]
            if k == 2:
                assert out["injective"]


@pytest.fixture(scope="module")
def corpus_ralgs():
    # corpus members 0-2 of the benchmark's corpus, at its r_max
    corpus = random_corpus(20260823, count=3, max_dim=5, require_bocs=False)
    return [right_algebra(construct_bocs(alg, order, mode="pdelta",
                                         r_max=3))
            for alg, order, _ in corpus]


def test_homological_ext_r_matches_minimal_r_covers(r1, r3, r2, r0,
                                                    corpus_ralgs):
    # ext_r is read on the induced resolution; the oracle resolves FX
    # by minimal covers over R.  Projective targets give nonzero
    # coboundaries on both sides.
    for r in [t[2] for t in (r0, r1, r2, r3)] + corpus_ralgs:
        B = r.bocs.B
        simples = [simple(B, i) for i in range(1, B.n + 1)]
        targets = simples + [projective(B, i) for i in range(1, B.n + 1)]
        outs = homological_check(r, simples, targets)
        for (X, Y, k), out in zip(product(simples, targets, (1, 2)), outs,
                                  strict=True):
            FX, FY = induce(r, X), induce(r, Y)
            want = ext_dimension(FX, FY, k)
            assert out["ext_r"] == want, (X.dims, Y.dims, k, out)
            assert out["ext_b"] == ext_dimension(X, Y, k)
            assert out["image_rank"] <= min(out["ext_b"], out["ext_r"])


def test_homological_check_requires_projective_induced_covers(r2,
                                                              monkeypatch):
    # F(P) of a projective P is projective for any bocs; a cover larger
    # than F(P) stands in for one that is not
    alg, b, r = r2
    X, Y = simple(b.B, 1), simple(b.B, 2)

    def too_large(M):
        return SimpleNamespace(source=SimpleNamespace(total=M.total + 1))

    monkeypatch.setattr(burt_butler, "projective_cover", too_large)
    with pytest.raises(AssertionError, match="not projective"):
        homological_check(r, [X], [Y])


def test_homological_comparison_counts(r1):
    alg, b, r = r1
    S = simple(b.B, 1)
    out = homological_check(r, [S], [S])[0]
    assert out["k"] == 1
    assert out["ext_b"] == 1 and out["ext_r"] == 1
    assert out["image_rank"] == 1


def test_loop_subalgebra_fixtures(r1, r3, r2):
    for alg, b, r in (r1, r3, r2):
        outs = loop_subalgebra_check(standard_modules(alg, b.order, "delta"),
                                     b)
        assert [out["vertex"] for out in outs] == list(range(1, alg.n + 1))
        for out in outs:
            assert out["verdict"] == "isomorphic"
            assert out["dim_end"] == out["dim_sub"]


def test_iso_search_rejects_different_algebras():
    a1 = example_dual_numbers()
    a3 = example_jordan3()
    verdict, note = iso_search(a1, a3)
    assert verdict == "distinct"


def test_iso_search_budget(monkeypatch):
    import bocskit.burt_butler as burt_butler

    monkeypatch.setattr(burt_butler, "SEARCH_BUDGET", 0)
    alg = example_jordan3()
    verdict, note = iso_search(alg, alg)
    assert verdict == "inconclusive"
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


def test_module_from_action_reads_coordinates_at_the_pivots():
    # e1 and e2 of K x K on K^2 in a basis that mixes the two lines
    alg = example_semisimple_pair()
    e1 = Matrix(2, 2, [[1, 1], [0, 0]])
    e2 = Matrix(2, 2, [[0, -1], [0, 1]])
    M, to_new, to_old = module_from_action(alg, 2, [e1, e2])
    assert M.dims == (1, 1)
    assert to_new == to_old.inverse()
    assert M.act == [to_new @ e @ to_old for e in (e1, e2)]


def test_module_from_action_refuses_idempotents_that_do_not_decompose():
    alg = example_semisimple_pair()
    line = Matrix(2, 2, [[1, 0], [0, 0]])
    cases = [
        # the images have dimensions 2 + 2 in a space of dimension 2
        [Matrix.identity(2), Matrix.identity(2)],
        # the same image twice
        [line, line],
        # independent images, but e1 + e2 is not the identity
        [Matrix(2, 2, [[1, 1], [0, 0]]), Matrix(2, 2, [[0, 0], [0, 1]])]]
    for raw in cases:
        with pytest.raises(ValueError, match="do not decompose the space"):
            module_from_action(alg, 2, raw)


def _embedding_error(check, *args):
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def test_embedding_check_raises_as_the_dense_reference(r0, r1, r2, r3, rv,
                                                       corpus_ralgs):
    # emb_cols with one entry raised by one, or one column repeated in
    # place of another, fail the sparse and the dense check alike; the
    # right action is right multiplication by the embedded basis
    raised = Counter()
    for r in [t[2] for t in (r0, r1, r2, r3, rv)] + corpus_ralgs:
        B, R = r.bocs.B, r.R
        emb = _on_coords(range(R.dim), r.emb_cols)
        assert _embedding_error(reference_check_embedding, B, R, emb) is None
        for k in range(B.dim):
            ev = emb.column(k)
            assert r.right_act[k] == Matrix.from_columns(
                [R.multiply(R.basis_vec(j), ev) for j in range(R.dim)])
        changes = [(k, {**r.emb_cols[k], x: r.emb_cols[k].get(x, 0) + 1})
                   for k, x in product(range(B.dim), range(R.dim))]
        changes += [(k, r.emb_cols[0]) for k in range(1, B.dim)]
        for k, col in changes:
            bad = copy.copy(r)
            bad.emb_cols = [col if m == k else c
                            for m, c in enumerate(r.emb_cols)]
            got = _embedding_error(bad._check_embedding)
            assert got == _embedding_error(
                reference_check_embedding, B, R,
                _on_coords(range(R.dim), bad.emb_cols))
            raised[got] += 1
    assert {"embedding is not injective", "embedding is not unital",
            "embedding is not multiplicative"} <= set(raised)
