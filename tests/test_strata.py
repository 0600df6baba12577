from itertools import permutations

import pytest

from bocskit import strata
from bocskit.bocs import construct_bocs
from bocskit.corpus import random_corpus
from bocskit.modules import (hom_basis, is_isomorphic, projective, quotient,
                             simple)
from bocskit.quiver import (Quiver, Relation, RelationSet, build_algebra,
                            example_a2, example_dual_numbers,
                            example_jordan3, example_semisimple_pair)
from bocskit.strata import (StandardSystem, _assert_system_invariants,
                            classify_algebra, standard_modules,
                            theta_filtration)

from helpers import radical_hom_basis, reference_classify_algebra


def test_standard_modules_a2():
    alg = example_a2()
    d = standard_modules(alg, mode="delta")
    pd = standard_modules(alg, mode="pdelta")
    assert is_isomorphic(d.module(1), simple(alg, 1))
    assert is_isomorphic(d.module(2), projective(alg, 2))
    for i in (1, 2):
        assert d.module(i).dims == pd.module(i).dims


def test_standard_modules_dual_numbers():
    alg = example_dual_numbers()
    d = standard_modules(alg, mode="delta")
    pd = standard_modules(alg, mode="pdelta")
    assert d.module(1).total == 2
    assert pd.module(1).total == 1


def test_standard_modules_semisimple():
    alg = example_semisimple_pair()
    for mode in ("delta", "pdelta"):
        sys = standard_modules(alg, mode=mode)
        for i in (1, 2):
            assert is_isomorphic(sys.module(i), simple(alg, i))


def test_filtration_dual_numbers():
    alg = example_dual_numbers()
    p = projective(alg, 1)
    pd = standard_modules(alg, mode="pdelta")
    cert = theta_filtration(p, pd)
    assert cert is not None
    assert cert.vertices() == [1, 1]
    assert cert.verify(pd)

    d = standard_modules(alg, mode="delta")
    cert = theta_filtration(p, d)
    assert cert is not None
    assert cert.vertices() == [1]
    assert cert.verify(d)


def test_filtration_a2_p1():
    alg = example_a2()
    d = standard_modules(alg, mode="delta")
    cert = theta_filtration(projective(alg, 1), d)
    assert cert is not None
    assert sorted(cert.vertices()) == [1, 2]
    assert cert.verify(d)


def test_filtration_impossible():
    alg = example_a2()
    d = standard_modules(alg, mode="delta")
    # P(1) needs Delta(2); restricting to vertex 1 must fail
    assert theta_filtration(projective(alg, 1), d, allowed=[1]) is None


def test_classify_a2_quasi_hereditary():
    assert classify_algebra(example_a2()).label == "quasi-hereditary"


def test_classify_semisimple():
    assert classify_algebra(example_semisimple_pair()).label == \
        "quasi-hereditary"


def test_classify_dual_numbers():
    c = classify_algebra(example_dual_numbers())
    assert c.label == "delta-and-pdelta-filtered"


def test_classify_jordan3():
    c = classify_algebra(example_jordan3())
    assert c.label == "delta-and-pdelta-filtered"


def test_equal_standard_systems_are_searched_once(mixed_algebras,
                                                  monkeypatch):
    # forcing the label searches each mode at most once; when every
    # standard module equals its proper one, the pdelta certificates are
    # the delta ones, and they are those a search over the pdelta system
    # finds
    real, calls = strata.theta_filtration, []

    def counting(M, system, allowed=None):
        calls.append(system.mode)
        return real(M, system, allowed)

    shared = 0
    for alg in mixed_algebras + [example_a2(), example_semisimple_pair()]:
        monkeypatch.setattr(strata, "theta_filtration", counting)
        calls.clear()
        cls = classify_algebra(alg)
        assert calls == []
        cls.label
        systems, certs = cls.systems, cls.certificates
        same = systems["pdelta"].modules == systems["delta"].modules
        assert (certs["pdelta"] is certs["delta"]) == same
        # reading either mode again searches nothing more
        cls.filtered("delta"), cls.filtered("pdelta")
        monkeypatch.undo()
        for mode in strata.MODES:
            assert calls.count(mode) in (0, alg.n)
        assert len(calls) == alg.n * (2 - same)
        for i, cert in certs["pdelta"].items():
            allowed = [j for j in cls.order
                       if cls.order.index(j) >= cls.order.index(i)]
            fresh = theta_filtration(projective(alg, i), systems["pdelta"],
                                     allowed)
            assert (cert is None) == (fresh is None)
            if cert is not None:
                assert cert.vertices() == fresh.vertices()
                assert cert.verify(systems["pdelta"])
        shared += same
    assert shared >= 2


def test_classify_order_dependence():
    # Kronecker-like: two arrows 1 -> 2; P(1) = (1, 2), Delta(1) = S(1)
    q = Quiver(2, [("a", 1, 2), ("b", 1, 2)])
    alg = build_algebra(q, RelationSet(q, []))
    c = classify_algebra(alg)
    assert c.label == "quasi-hereditary"
    # reversed order: Delta(2) = S(2) = P(2)... P(1) has top S(1) and needs
    # Delta(1) = P(1): still filtered
    c2 = classify_algebra(alg, order=[2, 1])
    assert c2.label in ("quasi-hereditary", "delta-and-pdelta-filtered",
                        "delta-filtered", "pdelta-filtered", "none")


def test_multiplicity_sum_matches_dim():
    alg = example_dual_numbers()
    c = classify_algebra(alg)
    total = 0
    for i, cert in c.certificates["pdelta"].items():
        for v in cert.vertices():
            total += c.systems["pdelta"].module(v).total
    assert total == alg.dim


def _standard_by_hom_solve(alg, order, mode):
    """Quotient each P(i) by the images of (radical, in pdelta mode) maps
    from the P(j) above i, found by solving for Hom(P(j), P(i))."""
    rank = {v: k for k, v in enumerate(order)}
    modules = []
    for i in range(1, alg.n + 1):
        p = projective(alg, i)
        vecs = [col for j in range(1, alg.n + 1)
                if rank[j] > rank[i] or (mode == "pdelta" and j == i)
                for f in (radical_hom_basis if mode == "pdelta"
                          else hom_basis)(projective(alg, j), p)
                for col in f.mat.columns()]
        q, _, _ = quotient(p, vecs)
        modules.append(q)
    system = StandardSystem(alg, order, mode, modules)
    _assert_system_invariants(system)
    return system


def test_standard_modules_equal_the_hom_solve_route(mixed_algebras):
    built = 0
    for alg in mixed_algebras:
        ident = list(range(1, alg.n + 1))
        for order in (ident, ident[::-1]):
            for mode in ("delta", "pdelta"):
                try:
                    want = _standard_by_hom_solve(alg, order, mode)
                except ValueError as e:
                    with pytest.raises(ValueError) as got:
                        standard_modules(alg, order, mode)
                    assert str(got.value) == str(e)
                    continue
                got = standard_modules(alg, order, mode)
                for a, b in zip(got.modules, want.modules):
                    assert a.dims == b.dims and a.act == b.act
                built += 1
    assert built > 0


def _search_modes(monkeypatch):
    """The mode of every standard system built and of every search run,
    in order, as (function, mode) pairs."""
    calls = []
    real_system, real_search = strata.standard_modules, strata.theta_filtration

    def system(alg, order=None, mode="delta"):
        calls.append(("standard_modules", mode))
        return real_system(alg, order, mode)

    def search(M, system, allowed=None):
        calls.append(("theta_filtration", system.mode))
        return real_search(M, system, allowed)

    monkeypatch.setattr(strata, "standard_modules", system)
    monkeypatch.setattr(strata, "theta_filtration", search)
    return calls


def test_classification_agrees_with_the_eager_reference(mixed_algebras):
    # whichever mode is asked first, the label, the verdicts and the
    # certificates are those the eager classification gave, and the
    # certificates are shared exactly when the two systems are equal
    compared = 0
    for alg in mixed_algebras:
        for order in permutations(range(1, alg.n + 1)):
            want = reference_classify_algebra(alg, order)
            for first, second in (strata.MODES, strata.MODES[::-1]):
                cls = classify_algebra(alg, order)
                assert not cls.systems and not cls.certificates
                cls.filtered(first)
                assert set(cls.systems) == set(cls.certificates) == {first}
                cls.filtered(second)
                assert cls.label == want.label
                for mode in strata.MODES:
                    assert cls.filtered(mode) == want.filtered(mode)
                    for i, cert in cls.certificates[mode].items():
                        ref = want.certificates[mode][i]
                        assert (cert is None) == (ref is None)
                        if cert is not None:
                            assert cert.vertices() == ref.vertices()
                same = cls.systems["delta"].modules == \
                    cls.systems["pdelta"].modules
                certs = cls.certificates
                assert (certs["delta"] is certs["pdelta"]) == same
                compared += 1
    assert compared >= 2 * len(mixed_algebras)


def test_an_unknown_mode_raises_the_standard_modules_error():
    cls = classify_algebra(example_dual_numbers())
    for read in (lambda: cls.systems["gamma"],
                 lambda: cls.certificates["gamma"],
                 lambda: cls.filtered("gamma")):
        with pytest.raises(ValueError, match="mode must be one of"):
            read()
    assert not cls.systems and not cls.certificates
    with pytest.raises(ValueError, match="mode must be one of"):
        construct_bocs(example_dual_numbers(), mode="gamma", r_max=3)


def test_the_benchmark_corpus_builds_and_searches_pdelta_only(monkeypatch):
    calls = _search_modes(monkeypatch)
    corpus = random_corpus(20260823, count=20, max_dim=5, require_bocs=False)
    assert len(corpus) == 20
    assert calls and {mode for _, mode in calls} == {"pdelta"}


@pytest.mark.parametrize("mode", strata.MODES)
def test_construct_bocs_builds_and_searches_its_mode_alone(monkeypatch,
                                                          mode):
    # Delta(1) = P(1) and Delta-bar(1) = S(1) differ here, so the other
    # mode's certificates could not be the same ones
    alg = example_dual_numbers()
    calls = _search_modes(monkeypatch)
    construct_bocs(alg, mode=mode, r_max=3)
    assert calls == [("standard_modules", mode)] + \
        [("theta_filtration", mode)] * alg.n
