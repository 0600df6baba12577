"""Acceptance battery: one test per criterion, exact arithmetic only."""

import copy
import time
from itertools import product

import pytest

from bocskit import io as bio
from bocskit.ainf import stasheff_check
from bocskit.bocs import classify_bocs, construct_bocs, validate_coalgebra
from bocskit.burt_butler import (homological_check, loop_subalgebra_check,
                                 right_algebra, standard_check)
from bocskit.corpus import random_corpus
from bocskit.linalg import Matrix
from bocskit.modules import simple
from bocskit.pipeline import indecomposables_up_to, run_pipeline
from bocskit.quiver import (Quiver, RelationSet, build_algebra, example_a2,
                            example_dual_numbers, example_jordan3,
                            example_semisimple_pair)
from bocskit.resolution import hodge_data
from bocskit.strata import standard_modules, theta_filtration
from bocskit.twisted import hom_dim_compare

from helpers import all_classes

_T0 = time.time()

CORPUS_SEED = 20260823


@pytest.fixture(scope="module")
def fixtures():
    return {
        "e0": (example_semisimple_pair(), "pdelta"),
        "e1": (example_dual_numbers(), "pdelta"),
        "e2": (example_a2(), "delta"),
        "e3": (example_jordan3(), "pdelta"),
    }


@pytest.fixture(scope="module")
def bocses(fixtures):
    out = {}
    for name, (alg, mode) in fixtures.items():
        r_max = 4 if name == "e0" else 5
        out[name] = construct_bocs(alg, mode=mode, r_max=r_max)
    return out


@pytest.fixture(scope="module")
def ralgs(bocses):
    return {name: right_algebra(b) for name, b in bocses.items()}


@pytest.fixture(scope="module")
def reports(fixtures):
    return {name: run_pipeline(alg, mode=mode)
            for name, (alg, mode) in fixtures.items()}


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(CORPUS_SEED, count=20, max_dim=5, mode="pdelta")


def test_criterion_1_fixture_roundtrips(fixtures, bocses, ralgs, reports):
    for name, rep in reports.items():
        assert rep.doc["ok"], name
        assert rep.doc["verdicts"]["morita_compare"]["verdict"] == \
            "isomorphic", name
    b1 = bocses["e1"]
    assert b1.B.dim == 2 and b1.B.n == 1
    (k,) = [k for _, _, _, k in b1.B.arrows]
    a = b1.B.basis_vec(k)
    assert b1.B.multiply(a, a) == (0,) * b1.B.dim
    assert b1.kernel_basis == [] and b1.d == {}
    assert ralgs["e1"].R.dim == 2
    b3 = bocses["e3"]
    assert b3.B.dim == 3 and b3.B.n == 1
    (k,) = [k for _, _, _, k in b3.B.arrows]
    a = b3.B.basis_vec(k)
    sq = b3.B.multiply(a, a)
    assert sq != (0,) * b3.B.dim
    assert b3.B.multiply(a, sq) == (0,) * b3.B.dim
    (y,) = b3.table.basis(1, 1, 1)
    assert b3.table.m((y, y)) == {}
    assert any(c != 0 for c in b3.table.m((y, y, y)).values())
    assert ralgs["e3"].R.dim == 3
    b2 = bocses["e2"]
    assert b2.B.dim == 3 and b2.B.n == 2
    assert classify_bocs(b2).label == "directed"
    assert ralgs["e2"].R.dim == 3


def test_criterion_2_bocs_classification(bocses, corpus):
    for name in ("e0", "e1", "e3"):
        assert "one-cyclic directed" in classify_bocs(bocses[name]).satisfies
    for alg, order, b in corpus:
        assert "one-cyclic directed" in classify_bocs(b).satisfies
    q = Quiver(2, [("a", 2, 1)])
    qh_inputs = [example_semisimple_pair(),
                 build_algebra(q, RelationSet(q, []))]
    delta_bocses = [bocses["e2"]]
    delta_bocses += [construct_bocs(alg, mode="delta", r_max=4)
                     for alg in qh_inputs]
    for b in delta_bocses:
        assert classify_bocs(b).label == "directed"


def test_criterion_3_coalgebra_axioms(bocses, corpus):
    for name, b in bocses.items():
        report = validate_coalgebra(b)
        assert report and not any(report.values()), name
    for alg, order, b in corpus:
        report = validate_coalgebra(b)
        assert report and not any(report.values())
    bad = copy.deepcopy(bocses["e1"])
    bad.mu = [[] for _ in range(bad.w_dim)]
    assert validate_coalgebra(bad)["counit-left"] == "w0"
    bad = copy.deepcopy(bocses["e1"])
    bad.eps = Matrix.zero(bad.B.dim, bad.w_dim)
    assert validate_coalgebra(bad)["surjectivity"] == "eps"


def test_criterion_4_stasheff_and_yoneda(bocses, corpus):
    tables = [b.table for b in bocses.values()]
    tables += [b.table for _, _, b in corpus]
    for tab in tables:
        for k in range(1, tab.r_max + 1):
            assert stasheff_check(tab, k)
        rsys = tab.rsys
        all_cls = all_classes(tab, {0, 1, 2})
        for a in all_cls:
            for b in all_cls:
                if b.j != a.i or a.k + b.k > 2:
                    continue
                comp = tab.graded_map(a).compose(tab.graded_map(b))
                hd = hodge_data(rsys, b.i, a.j, a.k + b.k)
                hcoeffs, _ = hd.decompose(comp)
                expected = {cls: c for cls, c
                            in zip(tab.basis(a.k + b.k, b.i, a.j), hcoeffs)
                            if c != 0}
                assert tab.m((a, b)) == expected


def test_criterion_5_hom_dimension_formula(ralgs, corpus):
    for name, r in ralgs.items():
        sc = standard_check(r)
        assert sc["ok"] and sc["hom_formula"], name
    for alg, order, b in corpus:
        sc = standard_check(right_algebra(b))
        assert sc["ok"] and sc["hom_formula"]


def test_criterion_6_homological_borel(ralgs):
    for name, r in ralgs.items():
        vertices = range(1, r.bocs.B.n + 1)
        simples = [simple(r.bocs.B, i) for i in vertices]
        outs = homological_check(r, simples, simples)
        for (i, j, k), out in zip(product(vertices, vertices, (1, 2)), outs,
                                  strict=True):
            assert out["surjective"], (name, i, j, k)
            if k == 2:
                assert out["injective"], (name, i, j)
            assert out["ok"]


def test_criterion_7_equivalence_footprint(fixtures, bocses):
    for name in ("e1", "e2", "e3"):
        alg, _ = fixtures[name]
        mods = indecomposables_up_to(alg, 4)
        assert mods, name
        system = bocses[name].table.rsys.system
        certs = [theta_filtration(M, system) for M in mods]
        assert None not in certs, name
        outs = hom_dim_compare(certs, bocses[name])
        for (M, N), out in zip(product(mods, mods), outs, strict=True):
            assert out["ok"], (name, M.dims, N.dims)
            assert out["dim_hom_A"] == out["dim_hom_bocs"]


def test_criterion_8_vertex_subalgebras(fixtures, bocses):
    for name, (alg, mode) in fixtures.items():
        outs = loop_subalgebra_check(
            standard_modules(alg, bocses[name].order, "delta"), bocses[name])
        assert len(outs) == alg.n, name
        for i, out in enumerate(outs, 1):
            assert out["vertex"] == i
            assert out["verdict"] == "isomorphic", (name, i)


def test_criterion_9_determinism_and_roundtrip(fixtures, bocses, corpus,
                                               reports):
    rep = run_pipeline(example_semisimple_pair(), mode="pdelta")
    assert rep.emit() == reports["e0"].emit()
    docs = []
    for name, (alg, mode) in fixtures.items():
        docs.append(bio.algebra_to_doc(alg))
    for b in bocses.values():
        docs.append(bio.bocs_to_doc(b))
    for rep in reports.values():
        docs.append(rep.doc)
    for alg, order, b in corpus:
        docs.append(bio.algebra_to_doc(alg, order))
    for alg, order, b in corpus[:3]:
        docs.append(bio.bocs_to_doc(b))
    for doc in docs:
        text = bio.emit(doc)
        parsed = bio.parse(text)
        assert parsed.doc == doc
        assert bio.emit(parsed.doc) == text
    assert time.time() - _T0 < 60.0
