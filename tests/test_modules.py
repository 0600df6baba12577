import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bocskit.bocs import construct_bocs, tensor_module
from bocskit.burt_butler import right_algebra
from bocskit.cli import FIXTURES
from bocskit.linalg import ONE, ZERO, Matrix, Span
from bocskit.modules import (FDModule, ModuleMap, _from_arrow_blocks,
                             from_generators,
                             hom_basis, hom_from_projective, iso_defect,
                             is_isomorphic, place_block, projective,
                             projective_cover, quotient, radical_vectors,
                             simple, submodule, sum_of_projectives, syzygies)
from bocskit.quiver import (Quiver, RelationSet, build_algebra, example_a2,
                            example_dual_numbers, example_jordan3,
                            example_semisimple_pair)
from bocskit.resolution import N_MAX
from bocskit.strata import standard_modules

from helpers import (auslander, check_intertwining, dense_hom_basis,
                     direct_sum, from_arrow_matrices, kernel,
                     monomial_algebras, radical_hom_basis,
                     reference_arrow_blocks, reference_hom_basis,
                     reference_projectives_action, reference_quotient,
                     reference_right_tensor, reference_simple,
                     reference_submodule, reference_syzygies, validate)


def test_projective_dims_a2():
    alg = example_a2()
    p1 = projective(alg, 1)
    p2 = projective(alg, 2)
    assert p1.dims == (1, 1)
    assert p2.dims == (0, 1)
    validate(p1)
    validate(p2)


def test_projective_dual_numbers():
    alg = example_dual_numbers()
    p = projective(alg, 1)
    assert p.total == 2
    validate(p)


def test_simple_is_projective_for_semisimple():
    alg = example_semisimple_pair()
    for i in (1, 2):
        p = projective(alg, i)
        s = simple(alg, i)
        assert p.dims == s.dims
        assert is_isomorphic(p, s)


def test_hom_dims_a2():
    alg = example_a2()
    p1 = projective(alg, 1)
    p2 = projective(alg, 2)
    assert len(hom_basis(p2, p1)) == 1
    assert len(hom_basis(p1, p2)) == 0


def test_hom_end_dual_numbers():
    alg = example_dual_numbers()
    p = projective(alg, 1)
    assert len(hom_basis(p, p)) == 2
    assert len(radical_hom_basis(p, p)) == 1


def test_hom_projective_counts_dims():
    # dim Hom(P(i), M) equals the dimension of M at vertex i
    alg = example_a2()
    for M in (projective(alg, 1), projective(alg, 2), simple(alg, 1),
              simple(alg, 2)):
        for i in (1, 2):
            assert len(hom_basis(projective(alg, i), M)) == M.dims[i - 1]


def test_hom_from_projective_agrees():
    alg = example_jordan3()
    P = sum_of_projectives(alg, [1, 1])
    X = projective(alg, 1)
    fast = hom_from_projective(P, X)
    slow = hom_basis(P, X)
    assert len(fast) == len(slow)
    for f in fast:
        check_intertwining(f)


def test_kernel_image_cokernel_socle():
    alg = example_a2()
    p1 = projective(alg, 1)
    p2 = projective(alg, 2)
    (f,) = hom_basis(p2, p1)
    ker, _ = kernel(f)
    img, _ = submodule(p1, f.mat.columns())
    cok, _, _ = quotient(p1, f.mat.columns())
    assert ker.total == 0
    assert ker.total + img.total == p2.total
    assert img.dims == (0, 1)
    assert is_isomorphic(img, simple(alg, 2))
    assert cok.dims == (1, 0)


def test_kernel_and_image_of_identity_and_radical():
    alg = example_dual_numbers()
    p = projective(alg, 1)
    ident = [f for f in hom_basis(p, p)
             if f.mat.rank() == p.total]
    assert ident
    ker, _ = kernel(ident[0])
    img, _ = submodule(p, ident[0].mat.columns())
    assert ker.total == 0
    assert img.total == p.total
    (rad,) = radical_hom_basis(p, p)
    ker, kinc = kernel(rad)
    assert ker.total == 1
    check_intertwining(kinc)
    assert kinc.mat.rank() == 1
    assert (rad.mat @ kinc.mat).is_zero()


def test_projective_cover_simple():
    alg = example_dual_numbers()
    s = simple(alg, 1)
    f = projective_cover(s)
    assert f.source.total == 2
    k, _ = kernel(f)
    assert k.total == 1


def test_projective_cover_a2_simple1():
    alg = example_a2()
    f = projective_cover(simple(alg, 1))
    assert f.source.dims == (1, 1)
    k, _ = kernel(f)
    assert is_isomorphic(k, simple(alg, 2))


def test_projective_cover_of_projective():
    alg = example_jordan3()
    p = projective(alg, 1)
    f = projective_cover(p)
    assert f.source.total == p.total
    assert kernel(f)[0].total == 0


def test_quotient_and_submodule_roundtrip():
    alg = example_jordan3()
    p = projective(alg, 1)
    rad = radical_vectors(p)
    sub, inc = submodule(p, rad)
    q, proj, sect = quotient(p, rad)
    assert sub.total + q.total == p.total
    check_intertwining(inc)
    check_intertwining(proj)


def test_sum_of_projectives_is_the_regular_representation(mixed_algebras):
    # the arrow 2 -> 1 puts the generator of P(2) after its vertex-1 word
    q = Quiver(2, [("a", 2, 1)])
    for alg in mixed_algebras + [build_algebra(q, RelationSet(q, []))]:
        n = alg.n
        for vs in (list(range(1, n + 1)), [n, 1, n]):
            P = sum_of_projectives(alg, vs)
            ref = direct_sum([projective(alg, v) for v in vs])
            assert P.dims == ref.dims and P.act == ref.act
            assert P.summands == vs
            # coordinates ordered by (target vertex, summand, degree, word)
            keys = [None] * P.total
            for s, ((gcoord, vtx, word_idxs), v) in enumerate(
                    zip(P.proj_gens, vs)):
                assert vtx == v
                assert (gcoord, alg.unit_index[v - 1]) in word_idxs
                assert sorted(k for _, k in word_idxs) == [
                    k for k in range(alg.dim) if alg.bsource[k] == v]
                for coord, k in word_idxs:
                    assert keys[coord] is None
                    keys[coord] = (alg.btarget[k], s, alg.bdegree[k], k)
            assert None not in keys and keys == sorted(keys)
            assert [P.vertex_of_coord(c) for c in range(P.total)] == [
                t for t, _, _, _ in keys]
            # act[g] carries the coordinate of word k to table[g][k]
            for (_, _, word_idxs) in P.proj_gens:
                coord_of = {k: coord for coord, k in word_idxs}
                for g in range(alg.dim):
                    for coord, k in word_idxs:
                        want = [0] * P.total
                        for m, c in alg.table[g][k].items():
                            want[coord_of[m]] = c
                        assert P.act[g].column(coord) == tuple(want)


def test_syzygies_leave_no_cyclic_garbage():
    algs = [example_a2(), example_jordan3()]
    gc.collect()
    gc.disable()
    try:
        for alg in algs:
            for i in range(1, alg.n + 1):
                syzygies(simple(alg, i), 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_iso_defect_is_hom_minus_radical():
    alg = example_jordan3()
    a2 = example_a2()
    mods = [projective(alg, 1), simple(alg, 1),
            direct_sum([simple(alg, 1), projective(alg, 1)]),
            projective(a2, 1), projective(a2, 2), simple(a2, 1),
            simple(a2, 2)]
    for M in mods:
        for N in mods:
            if M.alg is not N.alg:
                continue
            want = len(hom_basis(M, N)) - len(radical_hom_basis(M, N))
            assert iso_defect(M, N) == want


def test_from_arrow_matrices_regular_rep():
    alg = example_dual_numbers()
    m = from_arrow_matrices(alg, (2,), [Matrix(2, 2, [[0, 0], [1, 0]])])
    assert is_isomorphic(m, projective(alg, 1))


def test_from_arrow_matrices_relation_violation():
    alg = example_dual_numbers()
    with pytest.raises(ValueError):
        from_arrow_matrices(alg, (1,), [Matrix(1, 1, [[1]])])


def test_is_isomorphic_distinguishes():
    alg = example_a2()
    assert not is_isomorphic(simple(alg, 1), simple(alg, 2))
    two = direct_sum([simple(alg, 1), simple(alg, 1)])
    one_one = direct_sum([simple(alg, 1), simple(alg, 2)])
    assert not is_isomorphic(two, one_one)
    assert is_isomorphic(one_one, direct_sum([simple(alg, 2), simple(alg, 1)]))


def _targets(alg):
    """Simples, projectives and the first syzygy of each simple."""
    vs = range(1, alg.n + 1)
    return ([simple(alg, v) for v in vs] + [projective(alg, v) for v in vs]
            + [syzygies(simple(alg, v), 1)[0][1] for v in vs])


def _arrow_closure_radical(M, power):
    """rad^power M as a span, by the arrow-closure fixpoint that computed
    rad M before radical_vectors read the basis, iterated power times:
    the arrow images of the previous layer, closed under the arrows."""
    span = Span(M.total, Matrix.identity(M.total).columns())
    for _ in range(power):
        span = Span(M.total, [M.act[k].apply(v) for _, _, _, k
                              in M.alg.arrows for v in span.rows])
        changed = True
        while changed:
            changed = False
            for _, _, _, k in M.alg.arrows:
                for v in list(span.rows):
                    if span.add(M.act[k].apply(v)):
                        changed = True
    return span


def _hom_from_projective_by_words(P, X):
    """Hom(P, X) as hom_from_projective built it before from_generators:
    one loop over the words of each summand per unit vector of e_v X."""
    out = []
    for (gcoord, vtx, word_idxs) in P.proj_gens:
        for c in X.vertex_range(vtx):
            x = tuple(ONE if k == c else ZERO for k in range(X.total))
            cols = [None] * P.total
            for coord, widx in word_idxs:
                cols[coord] = X.act[widx].apply(x)
            out.append(Matrix(X.total, P.total, [
                [cols[cc][r] if cols[cc] is not None else ZERO
                 for cc in range(P.total)] for r in range(X.total)]))
    return out


def _cover_by_words(M):
    """(summand vertices, matrix) of the projective cover as it was built
    before from_generators, on the arrow-closure radical."""
    q, _, sect = quotient(M, _arrow_closure_radical(M, 1).rows)
    vertices, reps = [], []
    col = 0
    for i in range(1, M.alg.n + 1):
        for _ in range(q.dims[i - 1]):
            vertices.append(i)
            reps.append(sect.column(col))
            col += 1
    P = sum_of_projectives(M.alg, vertices)
    if not vertices:
        return vertices, Matrix.zero(M.total, 0)
    cols = [None] * P.total
    for (gcoord, vtx, word_idxs), rep in zip(P.proj_gens, reps):
        for coord, widx in word_idxs:
            cols[coord] = M.act[widx].apply(rep)
    return vertices, Matrix(M.total, P.total, [
        [cols[c][r] for c in range(P.total)] for r in range(M.total)])


def test_from_generators_sends_each_generator_to_its_image(mixed_algebras):
    checked = 0
    for alg in mixed_algebras:
        n = alg.n
        for vs in (list(range(1, n + 1)), [n, 1, n]):
            P = sum_of_projectives(alg, vs)
            for X in _targets(alg):
                images = {s: tuple(c + s + 1 if c in X.vertex_range(v)
                                   else ZERO for c in range(X.total))
                          for s, v in enumerate(vs)}
                f = from_generators(P, X, images)
                check_intertwining(f)
                for s, (gcoord, _, _) in enumerate(P.proj_gens):
                    assert f.mat.column(gcoord) == images[s]
                    checked += any(images[s])
                # a summand absent from images goes to zero, so the maps
                # of the summands alone add up to f
                parts = [from_generators(P, X, {s: x})
                         for s, x in images.items()]
                total = Matrix.zero(X.total, P.total)
                for part in parts:
                    check_intertwining(part)
                    total = total + part.mat
                assert total == f.mat
    assert checked > 100


def test_from_generators_refuses_an_image_off_its_vertex(mixed_algebras):
    """x is the generator's image as given, so an x outside e_v X, which
    would give a matrix that is not a module map, raises."""
    refused = 0
    for alg in mixed_algebras:
        for v in range(1, alg.n + 1):
            P = sum_of_projectives(alg, [v])
            for X in _targets(alg):
                at_v = X.vertex_range(v)
                for c in range(X.total):
                    x = tuple(ONE if i == c else ZERO
                              for i in range(X.total))
                    if c in at_v:
                        check_intertwining(from_generators(P, X, {0: x}))
                    else:
                        with pytest.raises(ValueError):
                            from_generators(P, X, {0: x})
                        refused += 1
    assert refused > 0


def test_hom_from_projective_and_cover_match_the_word_loops(mixed_algebras):
    for alg in mixed_algebras:
        n = alg.n
        targets = _targets(alg)
        for vs in (list(range(1, n + 1)), [n, 1, n]):
            P = sum_of_projectives(alg, vs)
            for X in targets:
                assert [f.mat for f in hom_from_projective(P, X)] == \
                    _hom_from_projective_by_words(P, X)
        for mode in ("delta", "pdelta"):
            targets += standard_modules(alg, mode=mode).modules
        for M in targets:
            cover = projective_cover(M)
            vertices, mat = _cover_by_words(M)
            assert cover.source.summands == vertices
            assert cover.mat == mat
    with pytest.raises(ValueError, match="projective summand data"):
        hom_from_projective(simple(example_a2(), 1), simple(example_a2(), 1))


def test_radical_vectors_span_the_arrow_closure(mixed_algebras,
                                                mixed_length_algebras):
    rights = [right_algebra(construct_bocs(alg, mode="pdelta", r_max=3)).R
              for alg in (example_dual_numbers(), example_jordan3())]
    for alg in mixed_algebras + rights + mixed_length_algebras:
        vs = range(1, alg.n + 1)
        mods = _targets(alg)
        mods += [omega for v in vs
                 for _, omega, _ in syzygies(simple(alg, v), 2)]
        for mode in ("delta", "pdelta"):
            mods += standard_modules(alg, mode=mode).modules
        loewy = max(alg.bdegree) + 1
        for M in mods:
            for a in range(1, loewy + 1):
                got = Span(M.total, radical_vectors(M, a))
                assert got.rows == _arrow_closure_radical(M, a).rows
        # on each projective the layers shrink to zero
        for v in vs:
            P = projective(alg, v)
            sizes = [len(Span(P.total, radical_vectors(P, a)))
                     for a in range(loewy + 1)]
            assert sizes == sorted(sizes, reverse=True) and sizes[-1] == 0


def test_place_block_puts_the_block_at_the_vertex_offsets():
    dims = (2, 0, 3)
    for t in range(1, 4):
        for s in range(1, 4):
            block = Matrix(dims[t - 1], dims[s - 1],
                           [[10 * r + c + 1 for c in range(dims[s - 1])]
                            for r in range(dims[t - 1])])
            got = place_block(dims, t, s, block)
            rows = [r for r in range(5) if r - sum(dims[:t - 1])
                    in range(dims[t - 1])]
            cols = [c for c in range(5) if c - sum(dims[:s - 1])
                    in range(dims[s - 1])]
            for r in range(5):
                for c in range(5):
                    want = (block.data[rows.index(r)][cols.index(c)]
                            if r in rows and c in cols else ZERO)
                    assert got.data[r][c] == want


def test_a_module_is_its_algebra_dims_and_action():
    alg = example_jordan3()
    P = projective(alg, 1)
    copy = FDModule(alg, P.dims, P.act)
    assert copy == P and hash(copy) == hash(P) and copy is not P
    assert len({P, copy, projective(alg, 1)}) == 1
    # one changed action entry
    k = alg.arrows[0][3]
    act = list(P.act)
    act[k] = act[k] + Matrix.identity(P.total)
    assert FDModule(alg, P.dims, act) != P
    # the same table over another Algebra object
    assert projective(example_jordan3(), 1) != P
    assert simple(alg, 1) != P and P != "P(1)"


def test_compose_refuses_maps_through_different_modules():
    a2, jordan = simple(example_a2(), 1), simple(example_jordan3(), 1)
    ida = ModuleMap(a2, a2, Matrix.identity(1))
    idj = ModuleMap(jordan, jordan, Matrix.identity(1))
    with pytest.raises(ValueError, match="not composable"):
        ida.compose(idj)
    # an equal copy is the same module
    copy = FDModule(a2.alg, a2.dims, a2.act)
    into_copy = ModuleMap(a2, copy, Matrix.identity(1))
    assert ida.compose(into_copy).mat == Matrix.identity(1)


def test_hom_basis_refuses_modules_over_different_algebras():
    # both algebras have dimension 3, on two vertices and on one
    a2, jordan = projective(example_a2(), 1), projective(example_jordan3(), 1)
    for M, N in ((a2, jordan), (jordan, a2)):
        with pytest.raises(ValueError, match="different algebras"):
            hom_basis(M, N)


def _same_hom_basis(M, N):
    got = [f.mat for f in hom_basis(M, N)]
    assert got == [f.mat for f in dense_hom_basis(M, N)]
    return len(got)


def test_hom_basis_agrees_with_the_dense_solve_on_the_fixtures():
    # every ordered pair over A of the simples, projectives and standard
    # modules, and over B of the simples, projectives and their W (x)_B X
    pairs = nonzero = 0
    for build, order in FIXTURES.values():
        alg = build()
        mods = [f(alg, i) for f in (simple, projective)
                for i in range(1, alg.n + 1)]
        for mode in ("delta", "pdelta"):
            system = standard_modules(alg, order, mode=mode)
            mods += [system.module(i) for i in range(1, alg.n + 1)]
            bocs = construct_bocs(alg, order, mode=mode, r_max=3)
            B = bocs.B
            bmods = [f(B, i) for f in (simple, projective)
                     for i in range(1, B.n + 1)]
            bmods += [tensor_module(bocs, X) for X in bmods]
            for M in bmods:
                for N in bmods:
                    pairs += 1
                    nonzero += _same_hom_basis(M, N) > 0
        for M in mods:
            for N in mods:
                pairs += 1
                nonzero += _same_hom_basis(M, N) > 0
    assert (pairs, nonzero) == (480, 297)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(monomial_algebras(), st.data())
def test_hom_basis_agrees_with_the_dense_solve(alg, data):
    # projectives, simples, and the submodule of a projective generated by
    # a drawn vector at one vertex with its quotient
    mods = []
    for i in range(1, alg.n + 1):
        P = projective(alg, i)
        j = data.draw(st.integers(1, alg.n))
        v = [ZERO] * P.total
        for c in P.vertex_range(j):
            v[c] = data.draw(st.integers(-2, 2))
        sub, _ = submodule(P, [a.apply(v) for a in P.act])
        q, _, _ = quotient(P, [a.apply(v) for a in P.act])
        mods += [P, simple(alg, i), sub, q]
    for M in mods:
        for N in mods:
            _same_hom_basis(M, N)


def test_submodule_refuses_a_span_not_closed_under_the_action():
    for alg in (example_jordan3(), example_a2(), example_dual_numbers()):
        for i in range(1, alg.n + 1):
            P = projective(alg, i)
            if P.total == 1:
                continue
            top = Matrix.identity(P.total).column(P.proj_gens[0][0])
            with pytest.raises(ValueError, match="span is not closed under "
                                                 "the action"):
                submodule(P, [top])
            # with the radical added it spans all of P
            sub, inc = submodule(P, [top] + radical_vectors(P))
            assert sub == P and inc.mat == Matrix.identity(P.total)


def _store_inputs(corpus_bocses):
    """(algebra, order) of e0-e3, of the B and R of each corpus bocs, and
    of the Auslander algebras Gamma_2 and Gamma_3."""
    out = [(build(), order) for build, order in FIXTURES.values()]
    for _, _, bocs in corpus_bocses.values():
        out += [(bocs.B, bocs.order), (right_algebra(bocs).R, bocs.order)]
    out += [(auslander(n), list(range(n, 0, -1))) for n in (2, 3)]
    return out


def test_stores_return_what_the_computation_returns(corpus_bocses):
    # on every simple, projective and standard module (both modes): each
    # step of a walk and each hom basis, taken through the Algebra stores,
    # equals the computation before the stores, cold and again stored
    walks = pairs = nonzero = 0
    for alg, order in _store_inputs(corpus_bocses):
        for store in (alg.projectives, alg.steps, alg.homs):
            store.clear()
        mods = [f(alg, i) for f in (simple, projective)
                for i in range(1, alg.n + 1)]
        for mode in ("delta", "pdelta"):
            system = standard_modules(alg, order, mode=mode)
            mods += [system.module(i) for i in range(1, alg.n + 1)]
        for M in mods:
            want = reference_syzygies(M, N_MAX + 2)
            for _ in range(2):
                source = M
                for (cover, omega, inc), (rcover, romega, rinc) in zip(
                        syzygies(M, N_MAX + 2), want, strict=True):
                    P, rP = cover.source, rcover.source
                    assert (P.key, P.summands) == (rP.key, rP.summands)
                    assert [(g, v, list(w)) for g, v, w in P.proj_gens] \
                        == rP.proj_gens
                    assert cover.target is source
                    assert cover.mat == rcover.mat
                    assert omega.key == romega.key
                    assert inc.mat == rinc.mat and inc.target is P
                    source = omega
            cover = projective_cover(M)
            assert cover.target is M and cover.mat == want[0][0].mat
            walks += 1
        for M in mods:
            for N in mods:
                want = [f.mat for f in reference_hom_basis(M, N)]
                for _ in range(2):
                    got = hom_basis(M, N)
                    assert [f.mat for f in got] == want
                    assert all(f.source is M and f.target is N for f in got)
                pairs += 1
                nonzero += bool(want)
        # each pair went into the store on its cold call
        assert set(alg.homs) == {(M.key, N.key) for M in mods for N in mods}
    assert (walks, pairs, nonzero) == (372, 3472, 1561)



def _arrow_blocks(M: FDModule):
    """The (t, s) block of the action of each arrow s -> t on M."""
    return [Matrix(M.dims[t - 1], M.dims[s - 1],
                   [M.act[k].data[r][M.offsets[s - 1]:
                                     M.offsets[s - 1] + M.dims[s - 1]]
                    for r in M.vertex_range(t)])
            for _, s, t, k in M.alg.arrows]


def _builds(M: FDModule, reference):
    """M has the reference's dims and every one of its action matrices."""
    dims, act = reference
    assert M.dims == tuple(dims) and M.act == list(act)
    return M


def _modules_match_references(alg):
    """Each builder over alg against its reference, on the simples, the
    projectives, their sum, and the radical, top and first syzygy of
    each of them; returns the modules."""
    vertices = list(range(1, alg.n + 1))
    mods = [_builds(simple(alg, i), reference_simple(alg, i))
            for i in vertices]
    for vs in [[i] for i in vertices] + [vertices]:
        mods.append(_builds(sum_of_projectives(alg, vs),
                            reference_projectives_action(alg, vs)[:2]))
    for M in list(mods):
        rad = Span(M.total, radical_vectors(M)).rows
        _builds(quotient(M, rad)[0], reference_quotient(M, rad))
        mods.append(_builds(submodule(M, rad)[0],
                            reference_submodule(M, rad)))
        for cover, omega, _ in syzygies(M, 1):
            _builds(omega, reference_submodule(cover.source,
                                               cover.mat.kernel_basis()))
    if alg.paths is not None:
        for M in mods:
            blocks = _arrow_blocks(M)
            _builds(_from_arrow_blocks(alg, M.dims, blocks),
                    reference_arrow_blocks(alg, M.dims, blocks))
    return mods


def test_builders_compute_every_action_their_references_do(
        fixture_bocses, corpus_bocses):
    # every action matrix, the e_v's filled in from the dims included,
    # equals the one the builder computed by products before, over A, B
    # and R of e0-e3 in both modes, of the corpus and of Gamma_2 and
    # Gamma_3 in both modes, and on W (x)_B X and R (x)_B X
    bocses = list(fixture_bocses.values())
    bocses += [b for _, _, b in corpus_bocses.values()]
    bocses += [construct_bocs(auslander(n), list(range(n, 0, -1)),
                              mode=mode, r_max=3)
               for n in (2, 3) for mode in ("pdelta", "delta")]
    tensors = rights = 0
    for bocs in bocses:
        _modules_match_references(bocs.alg)
        bases = [bocs.right]
        try:
            ralg = right_algebra(bocs)
        except ValueError as err:  # Gamma_3's R is not basic
            assert "not elementary" in str(err)
        else:
            _modules_match_references(ralg.R)
            bases.append(ralg.right)
            rights += 1
        for X in _modules_match_references(bocs.B):
            for basis in bases:
                if basis.coords is not None:
                    _builds(basis.tensor(X), reference_right_tensor(basis, X))
                    tensors += 1
    assert (rights, tensors) == (29, 600)


def test_idempotents_act_through_the_dimension_vector():
    alg = example_a2()
    P = sum_of_projectives(alg, [1, 2])
    e1, e2 = alg.unit_index
    # None at each e_v is filled with the stored projection, and a module
    # equal to P is built whether the e_v are passed or not
    none = [None if k in (e1, e2) else a for k, a in enumerate(P.act)]
    Q = FDModule(alg, P.dims, none)
    assert Q == P and Q.act == P.act
    assert all(Q.act[k] is P.act[k] for k in (e1, e2))
    assert alg.vertex_projections[P.dims] == (P.act[e1], P.act[e2])
    assert P.key == (P.dims, *(P.act[k] for k in alg.radical))
    # the e_1 and e_2 projections swapped are refused, naming the vertex
    swapped = list(P.act)
    swapped[e1], swapped[e2] = P.act[e2], P.act[e1]
    with pytest.raises(ValueError, match="e1 does not act as the "
                                         "projection onto vertex 1"):
        FDModule(alg, P.dims, swapped)
    swapped[e1] = P.act[e1]
    with pytest.raises(ValueError, match="e2 does not act"):
        FDModule(alg, P.dims, swapped)
