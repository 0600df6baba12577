import gc
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from bocskit import bocs as bocs_module
from bocskit import io as bio
from bocskit import modules, pipeline
from bocskit.ainf import ExtClass
from bocskit.bocs import construct_bocs
from bocskit.burt_butler import _endo_algebra
from bocskit.corpus import random_corpus
from bocskit.linalg import Matrix
from bocskit.modules import simple
from bocskit.pipeline import (PipelineError, indecomposables_up_to,
                              roundtrip_bocs, run_pipeline)
from bocskit.quiver import (Quiver, RelationSet, build_algebra, example_a2,
                            example_dual_numbers, example_jordan3,
                            example_semisimple_pair)

from helpers import auslander, direct_sum, reference_indecomposables


@pytest.fixture(scope="module")
def reports():
    out = {}
    out["e0"] = run_pipeline(example_semisimple_pair(), mode="pdelta")
    out["e1"] = run_pipeline(example_dual_numbers(), mode="pdelta")
    out["e2"] = run_pipeline(example_a2(), mode="delta")
    out["e3"] = run_pipeline(example_jordan3(), mode="pdelta")
    return out


EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def test_fixture_reports_are_the_recorded_bytes(reports):
    """Each fixture's canonical report is byte for byte the one the
    benchmark records for it (perfbench/expected.json, verify-fixtures)."""
    want = json.loads(EXPECTED.read_text(encoding="utf-8"))["verify-fixtures"]
    assert sorted(want) == sorted(reports)
    for name, rep in reports.items():
        digest = hashlib.sha256(rep.emit().encode("utf-8")).hexdigest()
        assert want[name] == {"sha256": digest}, name


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_corpus_reports_are_the_recorded_bytes(corpus_bocses):
    """Each corpus member's reports are byte for byte the ones the
    benchmark records: the roundtrip of its rehydrated bocs document
    (burt-butler-roundtrip), whose input_digest is the digest of that
    document and so pins B, W, eps and mu, and its verify run at r_max 3
    (verify-corpus)."""
    want = json.loads(EXPECTED.read_text(encoding="utf-8"))
    for key, (alg, order, b) in corpus_bocses.items():
        rehydrated = bio.parse(bio.emit(bio.bocs_to_doc(b))).build()
        got = roundtrip_bocs(rehydrated).emit()
        assert want["burt-butler-roundtrip"][key] == {"sha256": _sha256(got)}
        parsed = bio.parse(bio.emit(bio.algebra_to_doc(alg, order))).build()
        got = run_pipeline(*parsed, config={"r_max": 3}).emit()
        assert want["verify-corpus"][key] == {"sha256": _sha256(got)}, key


def test_a_failed_coalgebra_axiom_and_its_element_are_the_witness(
        monkeypatch):
    import bocskit.pipeline as pipeline

    def zero_mu(*args, **kwargs):
        b = construct_bocs(*args, **kwargs)
        b.mu = [[] for _ in range(b.w_dim)]
        return b

    monkeypatch.setattr(pipeline, "construct_bocs", zero_mu)
    with pytest.raises(PipelineError) as verify:
        run_pipeline(example_dual_numbers(), config={"r_max": 3})
    with pytest.raises(PipelineError) as roundtrip:
        roundtrip_bocs(zero_mu(example_dual_numbers(), r_max=3))
    for exc, stage in ((verify, "validate_coalgebra"),
                       (roundtrip, "classify_bocs")):
        assert exc.value.stage == stage
        assert exc.value.message == (
            "coalgebra axiom violated: counit-left at w0")
        assert exc.value.witness == {"axiom": "counit-left", "at": "w0"}


def test_an_untabulated_product_fails_at_validate_coalgebra(monkeypatch):
    # the Stasheff check of e1 at k = 3 reads b'(z, e) as the outer value
    # of the chain (y, y, e), with b'(y, y) = z; without it in the table
    # the lookup raises, inside the stage
    import bocskit.pipeline as pipeline

    e, z = ExtClass(0, 1, 1, 0), ExtClass(2, 1, 1, 0)

    def untabulated(*args, **kwargs):
        b = construct_bocs(*args, **kwargs)
        del b.table.m_table[z, e], b.table.bp_table[z, e]
        return b

    monkeypatch.setattr(pipeline, "construct_bocs", untabulated)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(example_dual_numbers())
    assert exc.value.stage == "validate_coalgebra"
    assert exc.value.message == f"tuple not tabulated: {(z, e)}"
    assert isinstance(exc.value.__cause__, ValueError)


def test_a_fixture_pass_builds_one_tensor_module_per_module_content(
        monkeypatch):
    # the W (x)_B X, keyed on the bocs's base algebra, which the Counter
    # keeps alive; induction builds R (x)_B X on R's right basis alone
    built = Counter()
    real = bocs_module.TensorModule.__init__

    def counted(self, basis, X):
        if basis.name == "W":
            built[basis.alg, X.dims, tuple(a.data for a in X.act)] += 1
        real(self, basis, X)

    monkeypatch.setattr(bocs_module.TensorModule, "__init__", counted)
    for example, mode in ((example_semisimple_pair, "pdelta"),
                          (example_dual_numbers, "pdelta"),
                          (example_a2, "delta"), (example_jordan3, "pdelta")):
        run_pipeline(example(), mode=mode)
    assert set(built.values()) == {1} and len(built) == 12


def test_fixture_pipelines_pass(reports):
    for name, rep in reports.items():
        assert rep.doc["ok"], name
        verdicts = rep.doc["verdicts"]
        assert verdicts["morita_compare"]["verdict"] == "isomorphic"
        assert verdicts["standard_check"]["ok"]
        assert verdicts["homological_check"]["ok"]


def test_fixture_bocs_classes(reports):
    assert reports["e1"].doc["bocs"]["bocs_class"] == "one-cyclic directed"
    assert reports["e3"].doc["bocs"]["bocs_class"] == "one-cyclic directed"
    assert reports["e2"].doc["bocs"]["bocs_class"] == "directed"
    assert reports["e0"].doc["bocs"]["bocs_class"] == "directed"


def test_fixture_right_algebra_dims(reports):
    assert reports["e1"].doc["right_algebra"]["dim"] == 2
    assert reports["e3"].doc["right_algebra"]["dim"] == 3
    assert reports["e2"].doc["right_algebra"]["dim"] == 3
    assert reports["e0"].doc["right_algebra"]["dim"] == 2


def test_reports_are_byte_identical(reports):
    again = run_pipeline(example_dual_numbers(), mode="pdelta")
    assert again.emit() == reports["e1"].emit()
    parsed = bio.parse(reports["e1"].emit())
    assert isinstance(parsed, bio.ReportDocument)
    assert bio.emit(parsed.doc) == reports["e1"].emit()


def test_timing_not_in_canonical_emit(reports):
    rep = reports["e2"]
    assert rep.timing
    assert "timing" not in rep.doc


VERIFY_STAGES = ["classify", "construct_bocs", "validate_coalgebra",
                 "classify_bocs", "right_algebra", "standard_check",
                 "borel_checks", "homological_check",
                 "loop_subalgebra_check", "morita_compare", "hom_dim_compare"]
ROUNDTRIP_STAGES = ["classify_bocs", "right_algebra", "classify",
                    "standard_check", "hom_dim_compare"]


def test_timing_has_every_stage_in_order(reports):
    for rep in reports.values():
        assert list(rep.timing) == VERIFY_STAGES
        assert all(t >= 0 for t in rep.timing.values())
    b = construct_bocs(example_semisimple_pair(), mode="pdelta", r_max=4)
    for bocs in (b, bio.doc_to_bocs(bio.bocs_to_doc(b))):
        assert list(roundtrip_bocs(bocs).timing) == ROUNDTRIP_STAGES


@pytest.mark.parametrize("error", [ValueError, AssertionError])
def test_roundtrip_attributes_failures_to_the_stage(monkeypatch, error):
    import bocskit.pipeline as pipeline

    def broken(bocs):
        raise error("no right algebra")

    monkeypatch.setattr(pipeline, "right_algebra", broken)
    b = construct_bocs(example_semisimple_pair(), mode="pdelta", r_max=4)
    with pytest.raises(PipelineError) as exc:
        roundtrip_bocs(b)
    assert exc.value.stage == "right_algebra"
    assert exc.value.message == "no right algebra"
    assert isinstance(exc.value.__cause__, error)


def test_unwrapped_calls_are_not_attributed(monkeypatch):
    # the enumeration of indecomposables runs outside the runner, so its
    # errors escape as they are
    import bocskit.pipeline as pipeline

    def broken(alg, bound):
        raise ValueError("algebra is not elementary")

    monkeypatch.setattr(pipeline, "indecomposables_up_to", broken)
    with pytest.raises(ValueError, match="not elementary") as exc:
        run_pipeline(example_semisimple_pair())
    assert not isinstance(exc.value, PipelineError)


@pytest.mark.parametrize("stage", ["loop_subalgebra_check",
                                   "morita_compare"])
def test_inconclusive_isomorphism_fails_its_stage(monkeypatch, stage):
    # an isomorphism search that finds no base change proves nothing;
    # morita_compare searches from the input algebra itself, the loop
    # check from endomorphism algebras
    import bocskit.burt_butler as burt_butler

    alg = example_dual_numbers()
    search = burt_butler.iso_search

    def answer(A1, A2):
        if stage == "morita_compare" and A1 is not alg:
            return search(A1, A2)
        return "inconclusive", "no image in searched grid"

    monkeypatch.setattr(burt_butler, "iso_search", answer)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(alg, mode="pdelta")
    assert exc.value.stage == stage
    assert exc.value.witness["verdict"] == "inconclusive"
    assert exc.value.witness["note"] == "no image in searched grid"


def test_mode_not_admitted_fails_with_stage():
    # a two-cycle with rad^2 = 0 is not filtered in either mode
    from bocskit.quiver import Relation
    q = Quiver(2, [("a", 1, 2), ("b", 2, 1)])
    rels = RelationSet(q, [Relation(q, [(1, 1, ("a", "b"))]),
                           Relation(q, [(1, 2, ("b", "a"))])])
    alg = build_algebra(q, rels)
    with pytest.raises(PipelineError, match="mode not admitted") as exc:
        run_pipeline(alg, mode="pdelta")
    assert exc.value.stage == "classify"
    assert exc.value.error_object()["stage"] == "classify"


def test_indecomposables_enumeration():
    assert [list(M.dims) for M in
            indecomposables_up_to(example_dual_numbers(), 4)] == [[1], [2]]
    assert [list(M.dims) for M in
            indecomposables_up_to(example_jordan3(), 4)] == [[1], [2], [3]]
    assert [list(M.dims) for M in
            indecomposables_up_to(example_a2(), 4)] == \
        [[0, 1], [1, 0], [1, 1]]
    # the bound trims the list
    assert [list(M.dims) for M in
            indecomposables_up_to(example_jordan3(), 2)] == [[1], [2]]


def test_local_candidates_skip_their_endomorphism_algebra(monkeypatch):
    # P(i) / rad^b P(i) has a simple top, so only the candidates
    # rad^a P(i) / rad^b P(i) with a > 0 have End(M) tested; the modules
    # found are those of testing every candidate
    real, calls = pipeline._is_indecomposable, []

    def counting(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(pipeline, "_is_indecomposable", counting)
    for build, want in [(example_semisimple_pair, 0),
                        (example_dual_numbers, 1), (example_a2, 1),
                        (example_jordan3, 3)]:
        alg = build()
        calls.clear()
        got = indecomposables_up_to(alg, 4)
        assert len(calls) == want, build.__name__
        assert got == reference_indecomposables(alg, 4)


def test_candidate_endomorphism_algebras_are_local_or_raise(monkeypatch):
    # _is_indecomposable counts no degree-0 elements: End(M) of every
    # candidate rad^a P(i) / rad^b P(i), a > 0, either raises (corpus
    # member c09) or has the unit as its one degree-0 basis element
    outcomes = Counter()

    def probe(M):
        try:
            E = _endo_algebra(M)
        except ValueError:
            outcomes["raise"] += 1
        else:
            outcomes[E.bdegree.count(0)] += 1
        return True

    monkeypatch.setattr(pipeline, "_is_indecomposable", probe)
    algs = [build() for build in (example_semisimple_pair,
                                  example_dual_numbers, example_a2,
                                  example_jordan3)]
    algs += [alg for alg, _, _ in random_corpus(
        20260823, count=20, max_dim=5, require_bocs=False)]
    for alg in algs:
        indecomposables_up_to(alg, pipeline.DIM_BOUND)
    assert outcomes.keys() == {1, "raise"}
    assert outcomes["raise"] == 1


def test_trace_rank_decides_as_the_endomorphism_algebra(monkeypatch):
    # on every candidate whose End(M) is tested, over e0-e3, the corpus
    # and the Auslander algebras of K[x]/(x^n), n = 2..4: the trace rank
    # of End(M) is 1 exactly where _endo_algebra returns, and
    # _is_indecomposable raises _endo_algebra's ValueError where it raises
    real = pipeline._is_indecomposable
    outcomes = Counter()

    def probe(M):
        try:
            _endo_algebra(M)
        except ValueError as e:
            assert modules.iso_defect(M, M) != 1
            with pytest.raises(ValueError) as got:
                real(M)
            assert str(got.value) == str(e)
            outcomes["raise"] += 1
        else:
            assert modules.iso_defect(M, M) == 1 and real(M) is True
            outcomes["local"] += 1
        return True

    monkeypatch.setattr(pipeline, "_is_indecomposable", probe)
    algs = [build() for build in (example_semisimple_pair,
                                  example_dual_numbers, example_a2,
                                  example_jordan3)]
    algs += [alg for alg, _, _ in random_corpus(
        20260823, count=20, max_dim=5, require_bocs=False)]
    algs += [auslander(n) for n in (2, 3, 4)]
    for alg in algs:
        indecomposables_up_to(alg, pipeline.DIM_BOUND)
    # c09 raises once, and ten subquotients of the Auslander algebras
    # split
    assert outcomes == {"local": 105, "raise": 11}
    # decomposable modules: End(S(1) + S(2)) = K x K has trace rank 2,
    # End(S + S) = M_2(K) rank 4; both raise as _endo_algebra does
    a2, dual = example_a2(), example_dual_numbers()
    for M, rank in [(direct_sum([simple(a2, 1), simple(a2, 2)]), 2),
                    (direct_sum([simple(dual, 1)] * 2), 4)]:
        assert modules.iso_defect(M, M) == rank
        with pytest.raises(ValueError) as want:
            _endo_algebra(M)
        with pytest.raises(ValueError) as got:
            real(M)
        assert str(got.value) == str(want.value)


def test_roundtrip_bocs_reingested_identical():
    b = construct_bocs(example_dual_numbers(), mode="pdelta", r_max=5)
    rep = roundtrip_bocs(b)
    b2 = bio.doc_to_bocs(bio.bocs_to_doc(b))
    rep2 = roundtrip_bocs(b2)
    assert rep.emit() == rep2.emit()
    assert rep.doc["right_algebra"]["dim"] == 2


def test_whole_runs_leave_no_cyclic_garbage():
    """Every memo of a run lives on the object it describes, so no object
    of the package is left for the cyclic collector (the stdlib JSON
    encoder's own closures from emit are)."""
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_pipeline(example_dual_numbers(), mode="pdelta")
        run_pipeline(example_a2(), mode="delta")
        b = construct_bocs(example_a2(), mode="delta", r_max=3)
        roundtrip_bocs(bio.parse(bio.emit(bio.bocs_to_doc(b))).build())
        del b
        gc.collect()
        left = sorted({type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.startswith("bocskit")})
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert left == []


def test_builders_never_multiply_an_idempotent_projection(monkeypatch):
    """Over an e1 and a c01 verify run, no product inside submodule,
    quotient, _sum_of_projectives or TensorModule.__init__ has a stored
    idempotent projection as a factor: those builders compute the
    radical actions alone."""
    # the ids of the stored projections, kept alive so no id is reused
    stored, kept, products, bad = set(), [], [], []
    build = modules._vertex_projections

    def recorded(dims):
        out = build(dims)
        stored.update(map(id, out))
        kept.extend(out)
        return out

    guarded = {f.__code__ for f in (
        modules.submodule, modules.quotient, modules._sum_of_projectives,
        bocs_module.TensorModule.__init__)}
    product = Matrix.__matmul__

    def watched(a, b):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in guarded:
            frame = frame.f_back
        if frame is not None:
            products.append(frame.f_code.co_name)
            if id(a) in stored or id(b) in stored:
                bad.append(frame.f_code.co_name)
        return product(a, b)

    monkeypatch.setattr(modules, "_vertex_projections", recorded)
    monkeypatch.setattr(Matrix, "__matmul__", watched)
    run_pipeline(example_dual_numbers(), mode="pdelta")
    alg, order, _ = random_corpus(20260823, count=2, max_dim=5,
                                  require_bocs=False)[1]
    run_pipeline(alg, order, mode="pdelta", config={"r_max": 3})
    assert bad == []
    assert stored and {"submodule", "quotient"} <= set(products)


def test_roundtrip_bocs_hand_authored_shape():
    q = Quiver(2, [("a", 2, 1)])
    alg = build_algebra(q, RelationSet(q, []))
    b = construct_bocs(alg, mode="delta", r_max=4)
    assert b.d == {(2, 1): 1}
    rep = roundtrip_bocs(b)
    assert rep.doc["right_algebra"]["dim"] == 3
    assert rep.doc["classification"] in (
        "quasi-hereditary", "delta-and-pdelta-filtered", "pdelta-filtered")


def test_roundtrip_bocs_trivial():
    b = construct_bocs(example_semisimple_pair(), mode="pdelta", r_max=4)
    rep = roundtrip_bocs(b)
    assert rep.doc["right_algebra"]["dim"] == 2
    assert rep.doc["bocs"]["d"] == []


def test_bad_parameters_fail_before_any_stage(monkeypatch):
    import bocskit.pipeline as pipeline

    def stage_ran(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(pipeline, "classify_algebra", stage_ran)
    for config in ({"dim_bound": 0}, {"dim_bound": -1}, {"dim_bound": True},
                   {"r_max": 1}, {"r_max": "5"}, {"rmax": 3}):
        with pytest.raises(PipelineError) as exc:
            run_pipeline(example_semisimple_pair(), config=config)
        assert exc.value.stage == "config", config
    # relations of B have degree at least 2
    with pytest.raises(ValueError, match="r_max must be at least 2"):
        construct_bocs(example_semisimple_pair(), mode="pdelta", r_max=1)


def test_homological_verdicts_are_labelled_by_position(monkeypatch):
    # homological_check returns sources x targets x (1, 2); position 5 of
    # two simples is (i, j, k) = (2, 1, 2)
    import bocskit.pipeline as pipeline
    real = pipeline.homological_check
    seen = []

    def fails_at_5(ralg, sources, targets):
        outs = real(ralg, sources, targets)
        outs[5] = dict(outs[5], ok=False)
        seen.append(outs[5])
        return outs

    monkeypatch.setattr(pipeline, "homological_check", fails_at_5)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(example_semisimple_pair(), mode="pdelta")
    assert exc.value.stage == "homological_check"
    assert exc.value.message == "Ext comparison failed"
    assert exc.value.witness == {"i": 2, "j": 1, "k": 2,
                                 "ext_b": seen[0]["ext_b"],
                                 "ext_r": seen[0]["ext_r"]}


def test_hom_dim_verdicts_are_labelled_by_position(monkeypatch):
    # hom_dim_compare returns one verdict per ordered pair, M outer; e0's
    # filtered modules are S(2), S(1), so position 2 is (S(1), S(2))
    import bocskit.pipeline as pipeline
    real = pipeline.hom_dim_compare

    def fails_at_2(certs, bocs):
        assert [list(c.module.dims) for c in certs] == [[0, 1], [1, 0]]
        outs = real(certs, bocs)
        outs[2] = {"dim_hom_A": 0, "dim_hom_bocs": 1, "match": False,
                   "ok": False}
        return outs

    monkeypatch.setattr(pipeline, "hom_dim_compare", fails_at_2)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(example_semisimple_pair(), mode="pdelta")
    assert exc.value.stage == "hom_dim_compare"
    assert exc.value.message == "hom dimensions disagree"
    assert exc.value.witness == {"m": [1, 0], "n": [0, 1], "dim_a": 0,
                                 "dim_bocs": 1}


@pytest.mark.parametrize("case", ["e2", "c01"])
def test_each_stage_builds_its_objects_once(monkeypatch, case):
    # one bocs module per filtered module, and one cover walk per simple
    # of B in the homological stage
    import bocskit.burt_butler as burt_butler
    import bocskit.pipeline as pipeline
    import bocskit.twisted as twisted
    from bocskit.corpus import random_corpus

    if case == "e2":
        alg, order, mode, config = example_a2(), None, "delta", None
    else:
        alg, order, _ = random_corpus(20260823, count=2, max_dim=5,
                                      require_bocs=False)[1]
        mode, config = "pdelta", {"r_max": 3}
    built, walked, in_stage = [], [], []
    to_bocs_module = twisted.filtered_to_bocs_module
    syzygies = burt_butler.syzygies
    homological_check = pipeline.homological_check

    def counted_to_bocs_module(cert, bocs, *args, **kwargs):
        built.append(cert)
        return to_bocs_module(cert, bocs, *args, **kwargs)

    def counted_syzygies(M, depth):
        if in_stage:
            walked.append(M)
        return syzygies(M, depth)

    def marked_homological_check(*args):
        in_stage.append(True)
        try:
            return homological_check(*args)
        finally:
            in_stage.pop()

    monkeypatch.setattr(twisted, "filtered_to_bocs_module",
                        counted_to_bocs_module)
    monkeypatch.setattr(burt_butler, "syzygies", counted_syzygies)
    monkeypatch.setattr(pipeline, "homological_check",
                        marked_homological_check)
    rep = run_pipeline(alg, order, mode=mode, config=config)
    pairs = rep.doc["verdicts"]["hom_dim_compare"]["pairs"]
    assert built and len(built) ** 2 == len(pairs)
    assert len({id(cert) for cert in built}) == len(built)
    assert len(walked) == alg.n
    assert len(rep.doc["verdicts"]["homological_check"]["pairs"]) == \
        2 * alg.n ** 2


@pytest.mark.parametrize("case", ["e1", "c01"])
def test_module_results_are_computed_once_per_algebra(monkeypatch, case):
    # each sum of projectives, cover step and hom solve runs once per
    # content key and algebra: a repeat is read from the Algebra's store
    import bocskit.modules as modules
    from bocskit.corpus import random_corpus

    if case == "e1":
        alg, order, mode, config = example_dual_numbers(), None, "pdelta", None
    else:
        alg, order, _ = random_corpus(20260823, count=2, max_dim=5,
                                      require_bocs=False)[1]
        mode, config = "pdelta", {"r_max": 3}
    algebras, runs = [], Counter()  # algebras kept alive, so ids stay apart
    # each builder's algebra and content key, read off its arguments
    builders = {
        "_sum_of_projectives": lambda alg, vertices: (alg, tuple(vertices)),
        "_cover_step": lambda M: (M.alg, M.key),
        "_hom_mats": lambda M, N: (M.alg, M.key, N.key),
    }

    def counted(name, build, key):
        def run(*args):
            alg, *content = key(*args)
            algebras.append(alg)
            runs[name, id(alg), *content] += 1
            return build(*args)
        return run

    for name, key in builders.items():
        monkeypatch.setattr(modules, name,
                            counted(name, getattr(modules, name), key))
    run_pipeline(alg, order, mode=mode, config=config)
    assert {name for name, *_ in runs} == set(builders)
    assert set(runs.values()) == {1}


def _count_strata_calls(monkeypatch, names):
    """Calls of each named strata function, counted through every bocskit
    module binding: bocskit binds names with `from .strata import ...`."""
    import sys

    import bocskit.strata as strata

    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        original = getattr(strata, name)
        wrapper = counted(name, original)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "bocskit" and \
                    getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def test_one_classification_serves_every_stage(monkeypatch):
    # the classify stage builds both standard systems and the projectives'
    # certificates; the bocs, the loop check and hom_dim_compare read them
    alg = example_dual_numbers()
    mods = indecomposables_up_to(alg, 4)
    counts = _count_strata_calls(
        monkeypatch,
        ("classify_algebra", "standard_modules", "theta_filtration"))
    rep = run_pipeline(alg, mode="pdelta")
    assert rep.doc["ok"]
    # theta_filtration: one per mode and projective in classify, one for
    # the regular module over R in standard_check, one per candidate module
    assert counts == {"classify_algebra": 1, "standard_modules": 2,
                      "theta_filtration": 2 * alg.n + 1 + len(mods)}


def test_construct_bocs_rejects_a_foreign_classification():
    from bocskit.strata import classify_algebra

    alg = example_dual_numbers()
    for other in (example_a2(), example_dual_numbers()):
        with pytest.raises(ValueError, match="another algebra"):
            construct_bocs(alg, mode="pdelta", r_max=3,
                           classification=classify_algebra(other))
    a2 = example_a2()
    with pytest.raises(ValueError, match="another vertex order"):
        construct_bocs(a2, [2, 1], mode="delta", r_max=3,
                       classification=classify_algebra(a2, [1, 2]))
    cls = classify_algebra(alg)
    assert bio.emit(bio.bocs_to_doc(
        construct_bocs(alg, mode="pdelta", r_max=3, classification=cls))) \
        == bio.emit(bio.bocs_to_doc(
            construct_bocs(alg, mode="pdelta", r_max=3)))
