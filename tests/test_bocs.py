import copy
import gc
import re
import weakref
from collections import Counter

import pytest

from bocskit import burt_butler
from bocskit import io as bio
from bocskit.ainf import stasheff_check
from bocskit.bocs import (RightBasis, bocs_compose, bocs_hom_basis,
                          bocs_lift, classify_bocs, construct_bocs,
                          counit_identities, tensor_module,
                          validate_coalgebra)
from bocskit.burt_butler import right_algebra
from bocskit.corpus import random_corpus
from bocskit.linalg import Matrix, nonzeros
from bocskit.modules import (FDModule, ModuleMap, hom_basis, projective,
                             simple, sum_of_projectives)
from bocskit.pipeline import PipelineError, roundtrip_bocs
from bocskit.quiver import (Quiver, Relation, RelationSet, build_algebra,
                            example_a2, example_dual_numbers,
                            example_jordan3, example_semisimple_pair)

from helpers import (auslander, bocs_identity, cube_coassociativity,
                     dense_counit_identities, dense_eps_u1,
                     dense_projection_parts, dense_vector, dense_w_parts,
                     dense_word, pair_layout,
                     reference_dprime_path, reference_sandwich,
                     reference_tensor_module, reference_validate_coalgebra,
                     zero_module)


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
    return construct_bocs(example_semisimple_pair(), mode="pdelta", r_max=4)


def loop_index(B):
    (idx,) = [k for name, s, t, k in B.arrows]
    return idx


def test_dual_numbers_bocs_shape(b1):
    B = b1.B
    assert B.dim == 2 and B.n == 1
    a = B.basis_vec(loop_index(B))
    assert B.multiply(a, a) == (0,) * B.dim
    assert b1.w_dim == 2
    assert b1.kernel_basis == []
    assert b1.d == {}


def test_jordan3_bocs_is_truncated_polynomial(b3):
    B = b3.B
    assert B.dim == 3 and B.n == 1
    a = B.basis_vec(loop_index(B))
    sq = B.multiply(a, a)
    assert sq != (0,) * B.dim
    assert B.multiply(a, sq) == (0,) * B.dim
    assert b3.w_dim == 3
    assert b3.kernel_basis == []
    # the cube relation comes from a length-3 pairing
    (rel,) = B.relations.relations
    assert rel.min_length == 3


def test_a2_bocs_is_path_algebra(b2):
    B = b2.B
    assert B.dim == 3 and B.n == 2
    assert B.relations.relations == []
    assert [(s, t) for name, s, t, k in B.arrows] == [(1, 2)]
    assert b2.kernel_basis == []


def test_semisimple_bocs(b0):
    assert b0.B.dim == 2 and b0.B.n == 2
    assert b0.w_dim == 2
    assert b0.kernel_basis == []


def test_coalgebra_axioms_hold(b1, b3, b2, b0):
    for b in (b1, b3, b2, b0):
        report = validate_coalgebra(b)
        assert report and not any(report.values())


def test_a_document_bocs_is_checked_for_the_axioms_it_carries(
        fixture_bocses):
    # a document has no presentation of W by words, so well-definedness
    # and the grouplikes are left out; every other axiom is checked
    carried = ["counit-left", "counit-right", "right-free",
               "coassociativity", "bilinearity", "surjectivity"]
    for b in fixture_bocses.values():
        rehydrated = bio.parse(bio.emit(bio.bocs_to_doc(b))).build()
        assert rehydrated.table is None
        report = validate_coalgebra(rehydrated)
        assert list(report) == carried
        assert report == {axiom: validate_coalgebra(b)[axiom]
                          for axiom in carried}
        assert not any(report.values())


def test_mutated_mu_fails_counit(b1):
    bad = copy.deepcopy(b1)
    bad.mu = [[] for _ in range(bad.w_dim)]
    report = validate_coalgebra(bad)
    assert report["counit-left"] == "w0"


def test_mutated_eps_fails_surjectivity(b1):
    bad = copy.deepcopy(b1)
    bad.eps = Matrix.zero(bad.B.dim, bad.w_dim)
    assert validate_coalgebra(bad)["surjectivity"] == "eps"


@pytest.fixture(scope="module")
def perturbed_jordan3():
    # In delta mode B = K and W is the dual coalgebra of K[x]/(x^3) on
    # (x^0)*, (x^1)*, (x^2)*.  Adding (x^2)* (x) (x^2)* to mu((x^1)*)
    # keeps the counit identities, as eps((x^2)*) = 0, but the dual
    # product is no longer associative.
    b = construct_bocs(example_jordan3(), mode="delta", r_max=3)
    assert all((w1, w2) != (2, 2) for w1, w2, _ in b.mu[1])
    b.mu[1] = sorted(b.mu[1] + [(2, 2, 1)])
    return b


@pytest.fixture(scope="module")
def auslander_bocses():
    """The Auslander algebras of K[x]/(x^2) and K[x]/(x^3), in both modes
    at r_max 3."""
    return [construct_bocs(auslander(n), list(range(n, 0, -1)), mode=mode,
                           r_max=3)
            for n in (2, 3) for mode in ("pdelta", "delta")]


def test_right_basis_presentation_agrees_with_balanced_relations(
        fixture_bocses, corpus_bocses, auslander_bocses, perturbed_jordan3):
    bocses = list(fixture_bocses.values())
    bocses += [b for _, _, b in corpus_bocses.values()]
    for b in bocses + auslander_bocses + [perturbed_jordan3]:
        B = b.B
        mods = [sum_of_projectives(B, list(range(1, B.n + 1)))]
        mods += [m(B, i) for i in range(1, B.n + 1)
                 for m in (simple, projective)]
        ref = [reference_tensor_module(b, X) for X in mods]
        assert ([tensor_module(b, X).total for X in mods]
                == [r.total for r in ref])
        for X, rx in zip(mods, ref):
            assert ([len(bocs_hom_basis(b, X, Y)) for Y in mods]
                    == [len(hom_basis(rx, Y)) for Y in mods])
        got = validate_coalgebra(b)
        assert got.pop("right-free") is None
        assert got == reference_validate_coalgebra(b)
        assert got["coassociativity"] == cube_coassociativity(b)
        assert (got["coassociativity"] is None) == (b is not perturbed_jordan3)


def _assert_word(got, dense):
    """The sparse word got is nonzeros of the dense vector, entry types
    included."""
    want = nonzeros(dense)
    assert got == want
    assert ({k: type(a) for k, a in got.items()}
            == {k: type(a) for k, a in want.items()})


def test_sandwiches_are_the_dense_reference(fixture_bocses, corpus_bocses,
                                            auslander_bocses):
    # every sandwich that W's killed rows and bimodule action are built
    # from, every word b.g.c of a generator, and d' of every basis path,
    # as the dense per-word sum gives them, entry types included; W's
    # basis words are the section's, and eps read on them is the dense
    # eps of every degree-1 word through the section
    bocses = list(fixture_bocses.values())
    bocses += [b for _, _, b in corpus_bocses.values()]
    for b in bocses + auslander_bocses:
        B, n = b.B, b.u1_dim
        basis = [B.basis_vec(k) for k in range(B.dim)]
        _, w_sect = dense_w_parts(b)
        unit, words = B.unit(), b.w_words
        assert words == [nonzeros(u) for u in w_sect.columns()]
        assert b.eps == dense_eps_u1(b) @ w_sect
        triples = [(x, b.dprime_arrow[name], y)
                   for name, _ in b.duals.q0 for x in basis for y in basis]
        triples += [(x, u, unit) for x in basis for u in words]
        triples += [(unit, u, y) for y in basis for u in words]
        for x, u, y in triples:
            _assert_word(b._sandwich(x, u, y),
                         reference_sandwich(b, x, dense_vector(u, n), y))
        for g, word in enumerate(b.gen):
            for x in basis:
                for y in basis:
                    _assert_word(b._sandwich(x, word, y),
                                 dense_word(b, x, g, y))
        for k in range(B.dim):
            _assert_word(b._dprime_path(k), reference_dprime_path(b, k))


def test_w_actions_and_mu_are_the_dense_projection(
        fixture_bocses, corpus_bocses, auslander_bocses):
    # WL, WR and mu read off the sparse columns of the projection onto W
    # equal, entry types included, what the dense product w_proj.apply
    # gives on the dense words
    bocses = list(fixture_bocses.values())
    bocses += [b for _, _, b in corpus_bocses.values()]
    for b in bocses + auslander_bocses:
        WL, WR, mu = dense_projection_parts(b)
        assert (b.WL, b.WR, b.mu) == (WL, WR, mu)
        for got, want in zip(b.WL + b.WR, WL + WR):
            assert list(map(type, got.flat())) == list(map(type, want.flat()))
        assert ([[type(c) for _, _, c in terms] for terms in b.mu]
                == [[type(c) for _, _, c in terms] for terms in mu])


def test_a_perturbed_mu_fails_only_coassociativity_in_both_checks(
        perturbed_jordan3):
    failed = {axiom: at for axiom, at
              in validate_coalgebra(perturbed_jordan3).items() if at}
    assert failed == {"coassociativity": "w1"}
    assert cube_coassociativity(perturbed_jordan3) == "w1"


def test_a_perturbed_mu_document_fails_coassociativity_at_classify_bocs(
        perturbed_jordan3):
    # its counit identities hold, so the document is read; the roundtrip
    # refuses it before building R, which is "not elementary" here
    doc = bio.bocs_to_doc(perturbed_jordan3)
    with pytest.raises(PipelineError) as exc:
        roundtrip_bocs(bio.doc_to_bocs(doc))
    assert exc.value.stage == "classify_bocs"
    assert exc.value.message == \
        "coalgebra axiom violated: coassociativity at w1"


def _mutations(b):
    """(kind, copy of b) with mu changed at one w: mu(w) zeroed, its
    w (x) w coefficient doubled (omega (x) omega at a grouplike w), or
    its last term dropped."""
    out = []
    for w, terms in enumerate(b.mu):
        doubled = [(w1, w2, 2 * c if w1 == w2 == w else c)
                   for w1, w2, c in terms]
        for kind, new in (("zeroed", []), ("doubled", doubled),
                          ("dropped", terms[:-1])):
            if new != terms:
                bad = copy.copy(b)
                bad.mu = b.mu[:w] + [new] + b.mu[w + 1:]
                out.append((kind, bad))
    return out


def test_counit_identities_agree_with_the_dense_reference(
        fixture_bocses, corpus_bocses, auslander_bocses, perturbed_jordan3):
    bocses = list(fixture_bocses.values())
    bocses += [b for _, _, b in corpus_bocses.values()]
    bocses += auslander_bocses + [perturbed_jordan3]
    for b in bocses:
        assert counit_identities(b) == dense_counit_identities(b)
        assert all(map(all, counit_identities(b)))
    kinds = Counter()
    for b in fixture_bocses.values():
        for kind, bad in _mutations(b):
            got = counit_identities(bad)
            assert got == dense_counit_identities(bad)
            assert not all(map(all, got))
            kinds[kind] += 1
    assert min(kinds.values()) >= 4 and len(kinds) == 3


def test_a_w_not_right_free_on_its_top_is_refused(b1):
    # B = K[a]/(a^2) and W has dimension 2; with W.a = 0 both basis
    # elements lie in the top, and two copies of e_1 B have dimension 4
    bad = copy.deepcopy(b1)
    rad = bad.B.radical_indices()
    bad.WR = [Matrix.zero(m.rows, m.cols) if k in rad else m
              for k, m in enumerate(bad.WR)]
    bad.right = RightBasis("W", bad.B, bad.B, bad.w_block, bad.WR,
                           b1.right.lcols)
    witness = "dim W = 2, sum of dim e_v(t)B = 4"
    with pytest.raises(ValueError, match=re.escape(
            f"W is not right-free on its top: {witness}")):
        tensor_module(bad, simple(bad.B, 1))
    report = validate_coalgebra(bad)
    assert list(report) == ["counit-left", "counit-right", "right-free"]
    assert report["right-free"] == witness
    assert validate_coalgebra(b1)["right-free"] is None


def test_dependent_products_t_b_are_refused_at_the_boundary(b1):
    # w0.a = 0 and w1.a = w1 for the radical a, so W is no right module:
    # the counts agree, one top element t = w0 against dim e_1 B = 2, but
    # t.a = 0, so the products t.b are dependent.  (w1.a).a = w1 while
    # a^2 = 0, so the document is refused at wr[1], and the right basis
    # of such an action is an internal error
    doc = bio.bocs_to_doc(b1)
    doc["wr"][1]["data"] = [["0", "0"], ["0", "1"]]
    with pytest.raises(ValueError, match="schema violation at /wr/1$"):
        bio.doc_to_bocs(doc)
    WR = [b1.WR[0], Matrix(2, 2, [[0, 0], [0, 1]])]
    with pytest.raises(AssertionError, match="dependent products t.b in W"):
        RightBasis("W", b1.B, b1.B, b1.w_block, WR, b1.right.lcols)


def test_classification_fixtures(b1, b3, b2, b0):
    assert classify_bocs(b1).label == "one-cyclic directed"
    assert classify_bocs(b3).label == "one-cyclic directed"
    c2 = classify_bocs(b2)
    assert c2.label == "directed"
    assert "one-cyclic directed" in c2.satisfies
    assert classify_bocs(b0).label == "directed"


def test_mode_not_admitted():
    q = Quiver(2, [("a", 1, 2), ("b", 2, 1)])
    rels = RelationSet(q, [Relation(q, [(1, 1, ("a", "b"))]),
                           Relation(q, [(1, 2, ("b", "a"))])])
    alg = build_algebra(q, rels)
    with pytest.raises(ValueError, match="mode not admitted"):
        construct_bocs(alg, mode="pdelta", r_max=4)


def test_low_cutoff_fails_before_stabilizing():
    # with the cube pairing cut off, B would be a free polynomial ring
    with pytest.raises(ValueError):
        construct_bocs(example_jordan3(), mode="pdelta", r_max=2)


def test_linear_a3_bocs_both_modes():
    q = Quiver(3, [("a", 1, 2), ("b", 2, 3)])
    alg = build_algebra(q, RelationSet(q, []))
    for mode in ("delta", "pdelta"):
        b = construct_bocs(alg, mode=mode, r_max=4)
        assert not any(validate_coalgebra(b).values())
        assert b.B.dim == 6
        assert b.kernel_basis == []
        assert classify_bocs(b).label == "directed"


def test_reversed_a2_has_free_kernel():
    q = Quiver(2, [("a", 2, 1)])
    alg = build_algebra(q, RelationSet(q, []))
    b = construct_bocs(alg, mode="delta", r_max=4)
    assert not any(validate_coalgebra(b).values())
    assert b.B.dim == 2
    assert len(b.kernel_basis) == 1
    assert b.d == {(2, 1): 1}
    assert b.kernel_is_free()
    assert classify_bocs(b).label == "directed"


def test_tensor_with_projectives_recovers_w_columns(b2):
    # W (x)_B Be_i is the column W e_i of the bimodule
    for i in (1, 2):
        tx = tensor_module(b2, projective(b2.B, i))
        expect = sum(1 for (tgt, src) in b2.w_block if src == i)
        assert tx.total == expect


def test_category_unit_laws(b1, b2):
    for b in (b1, b2):
        B = b.B
        mods = ([projective(B, i) for i in range(1, B.n + 1)]
                + [simple(B, i) for i in range(1, B.n + 1)])
        for X in mods:
            idx = bocs_identity(b, X)
            for Y in mods:
                idy = bocs_identity(b, Y)
                for f in bocs_hom_basis(b, X, Y):
                    assert bocs_compose(b, idy, f).mat == f.mat
                    assert bocs_compose(b, f, idx).mat == f.mat


def test_lift_is_a_functor(b1, b2, b3):
    # the counit lift of plain B-maps respects composition
    pairs = 0
    for b in (b1, b2, b3):
        B = b.B
        mods = ([projective(B, i) for i in range(1, B.n + 1)]
                + [simple(B, i) for i in range(1, B.n + 1)])
        for X in mods:
            for Y in mods:
                for u in hom_basis(X, Y):
                    for Z in mods:
                        for v in hom_basis(Y, Z):
                            lifted = bocs_compose(b, bocs_lift(b, v),
                                                  bocs_lift(b, u))
                            assert lifted.mat == \
                                bocs_lift(b, v.compose(u)).mat
                            pairs += 1
    assert pairs > 0


def _action(X, v):
    """The action matrix on X of the algebra element v."""
    m = Matrix.zero(X.total, X.total)
    for k, c in enumerate(v):
        if c != 0:
            m = m + X.act[k].scale(c)
    return m


def _reference_lift(b, u):
    """u as a morphism: w (x) x goes to u(eps(w) x), with eps(w) acting
    by its whole action matrix, read back through sect."""
    X = u.source
    layout = pair_layout(b, tensor_module(b, X))
    through = [u.mat @ _action(X, ev) for ev in b.eps.columns()]
    cols = [through[w].column(x) for (w, x) in layout.pairs]
    big = (Matrix.from_columns(cols) if cols
           else Matrix.zero(u.target.total, 0))
    return big @ layout.sect


def test_lift_reads_one_stored_counit(b0, b1, b2, b3, monkeypatch):
    lifts = []
    for b in (b0, b1, b2, b3):
        B = b.B
        mods = ([projective(B, i) for i in range(1, B.n + 1)]
                + [simple(B, i) for i in range(1, B.n + 1)])
        for X in mods:
            for Y in mods:
                lifts += [(b, u) for u in hom_basis(X, Y)]
        # the right algebra lifts the right multiplication on B by each
        # basis element once (_phi_raw), the idempotents among them
        before = len(lifts)
        with monkeypatch.context() as m:
            m.setattr(burt_butler, "bocs_lift",
                      lambda b, u: lifts.append((b, u)) or bocs_lift(b, u))
            right_algebra(b)
        assert len(lifts) - before == B.dim
    for b, u in lifts:
        mat = _reference_lift(b, u)
        tx = tensor_module(b, u.source)
        got = bocs_lift(b, u)
        assert got.source is tx and got.target is u.target
        assert got.mat == mat
        counit = tx.counit
        assert bocs_lift(b, u).mat == mat and tx.counit is counit


def test_category_associativity(b2):
    B = b2.B
    mods = [projective(B, 1), projective(B, 2), simple(B, 1)]
    X, Y, Z = mods
    for f in bocs_hom_basis(b2, X, Y):
        for g in bocs_hom_basis(b2, Y, Z):
            for h in bocs_hom_basis(b2, Z, X):
                lhs = bocs_compose(b2, h, bocs_compose(b2, g, f))
                rhs = bocs_compose(b2, bocs_compose(b2, h, g), f)
                assert lhs.mat == rhs.mat


def test_relation_pairing_spans_ext2(b1, b3):
    # every Ext^2 dual with a nonzero pairing contributes one relation
    assert len(b1.B.relations.relations) == 1
    assert len(b3.B.relations.relations) == 1
    (rel,) = b1.B.relations.relations
    assert rel.min_length == 2


def _unit(n, k):
    return [1 if i == k else 0 for i in range(n)]


def _pair_vec(t, w_vec, x_vec):
    return [w_vec[w] * x_vec[x] for (w, x) in t.pairs]


def _reference_compose(b, X, Y, g, f):
    """g after f through dense unit vectors on pairs and every entry of mu.
    """
    tx, ty = (pair_layout(b, tensor_module(b, M)) for M in (X, Y))
    f_big = f.mat @ tx.proj
    g_big = g.mat @ ty.proj
    cols = []
    for (w, x) in tx.pairs:
        out = [0] * g.target.total
        for p, c in enumerate(bio.mu_to_matrix(b.mu).column(w)):
            w1, w2 = divmod(p, b.w_dim)
            yv = f_big.apply(_pair_vec(tx, _unit(b.w_dim, w2),
                                       _unit(X.total, x)))
            zv = g_big.apply(_pair_vec(ty, _unit(b.w_dim, w1), yv))
            out = [a + c * z for a, z in zip(out, zv)]
        cols.append(out)
    big = (Matrix.from_columns(cols) if cols
           else Matrix.zero(g.target.total, 0))
    return big @ tx.sect


def _morphisms(b, X, Y):
    """The hom basis, or the zero map when W (x)_B X or Y is zero."""
    basis = bocs_hom_basis(b, X, Y)
    src = tensor_module(b, X)
    if basis or (src.total and Y.total):
        return basis
    return [ModuleMap(src, Y, Matrix.zero(Y.total, src.total))]


def test_compose_matches_dense_reference(b0, b1, b2, b3):
    corpus_bocs = random_corpus(20260823, count=2, max_dim=5)[1][2]
    rehydrated = bio.parse(bio.emit(bio.bocs_to_doc(corpus_bocs))).build()
    assert rehydrated.table is None and rehydrated.B.n == 2
    checked = 0
    for b in (b0, b1, b2, b3, rehydrated):
        B = b.B
        mods = ([projective(B, i) for i in range(1, B.n + 1)]
                + [simple(B, i) for i in range(1, B.n + 1)])
        if b is b2:
            mods.append(zero_module(B))
        for X in mods:
            for Y in mods:
                for f in _morphisms(b, X, Y):
                    for Z in mods:
                        for g in _morphisms(b, Y, Z):
                            assert bocs_compose(b, g, f).mat == \
                                _reference_compose(b, X, Y, g, f)
                            checked += 1
    assert checked > 0


def test_compose_reads_a_reassigned_mu(b1):
    bad = copy.deepcopy(b1)
    B = bad.B
    mods = [projective(B, 1), simple(B, 1)]
    ids = [bocs_identity(bad, X) for X in mods]
    for idx in ids:
        assert not bocs_compose(bad, idx, idx).mat.is_zero()
    bad.mu = [[] for _ in range(bad.w_dim)]
    for X, idx in zip(mods, ids):
        assert bocs_compose(bad, idx, idx).mat.is_zero()
        for Y in mods:
            for f in bocs_hom_basis(bad, X, Y):
                assert bocs_compose(bad, bocs_identity(bad, Y),
                                    f).mat.is_zero()


def test_compose_refuses_a_hom_source_of_another_bocs(b1):
    S = simple(b1.B, 1)
    idm = bocs_identity(b1, S)
    assert bocs_compose(b1, idm, idm).mat == idm.mat
    plain = ModuleMap(S, S, Matrix.identity(S.total))
    copied = copy.deepcopy(b1)
    for b, g, f in [(b1, idm, plain), (b1, plain, idm),
                    (copied, idm, idm)]:
        with pytest.raises(ValueError,
                           match="hom source was not built by this bocs"):
            bocs_compose(b, g, f)


def test_a_dropped_bocs_is_freed_without_the_cyclic_collector():
    gc.disable()
    try:
        bocs = construct_bocs(example_dual_numbers(), mode="pdelta", r_max=4)
        S = simple(bocs.B, 1)
        assert bocs_hom_basis(bocs, S, S)
        # an equal copy hits the memo
        copy_of_s = FDModule(S.alg, S.dims, S.act)
        assert tensor_module(bocs, copy_of_s) is tensor_module(bocs, S)
        assert stasheff_check(bocs.table, 3)
        refs = [weakref.ref(obj)
                for obj in (bocs, bocs.table, bocs.table.rsys)]
        del bocs
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
