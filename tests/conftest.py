import pytest

from bocskit.bocs import construct_bocs
from bocskit.burt_butler import right_algebra
from bocskit.corpus import random_corpus
from bocskit.quiver import (Quiver, Relation, RelationSet, build_algebra,
                            example_a2, example_dual_numbers,
                            example_jordan3, example_semisimple_pair)


@pytest.fixture(scope="session")
def mixed_algebras():
    """e0-e3, six generated algebras, and the right algebra R of e1, whose
    basis comes from a raw structure table (from_structure_constants)."""
    algs = [example_semisimple_pair(), example_dual_numbers(), example_a2(),
            example_jordan3()]
    algs += [alg for alg, _, _ in random_corpus(
        20260823, count=6, max_dim=5, require_bocs=False)]
    bocs = construct_bocs(example_dual_numbers(), mode="pdelta", r_max=5)
    algs.append(right_algebra(bocs).R)
    return algs


@pytest.fixture(scope="session")
def fixture_bocses():
    """The bocses of e0-e3 in both modes at r_max 5, keyed (name, mode)."""
    examples = {"e0": example_semisimple_pair, "e1": example_dual_numbers,
                "e2": example_a2, "e3": example_jordan3}
    return {(name, mode): construct_bocs(example(), mode=mode, r_max=5)
            for name, example in examples.items()
            for mode in ("pdelta", "delta")}


@pytest.fixture(scope="session")
def corpus_bocses():
    """The benchmark corpus, random_corpus(20260823, count=20, max_dim=5,
    require_bocs=False), as pdelta bocses at r_max 3: (algebra, order,
    bocs) keyed c00 to c19 as perfbench/expected.json keys them.  Member
    9 is left out: its verify run raises outside the stage runner, so its
    verify-corpus record is an error and not a report."""
    corpus = random_corpus(20260823, count=20, max_dim=5, require_bocs=False)
    return {f"c{k:02d}": (alg, order, construct_bocs(alg, order, r_max=3))
            for k, (alg, order, _) in enumerate(corpus) if k != 9}


@pytest.fixture(scope="session")
def mixed_length_algebras():
    """Two algebras whose relations mix path lengths, built through the
    global reduction of build_algebra."""
    return [_mixed_length_loop(), _mixed_length_cycle()]


def _mixed_length_loop():
    """K[x]/(x^2 - x^3, x^4), which is K[x]/(x^2): one relation of two
    lengths, so build_algebra takes the global reduction."""
    q = Quiver(1, [("x", 1, 1)])
    rels = [Relation(q, [(1, 1, ("x", "x")), (-1, 1, ("x", "x", "x"))]),
            Relation(q, [(1, 1, ("x",) * 4)])]
    return build_algebra(q, RelationSet(q, rels), length_bound=8)


def _mixed_length_cycle():
    """a: 1 -> 2, b: 2 -> 1 and a loop c at 1 with b a = c^3, c^4 = 0 and
    a b = b c = a c = 0 (a applied first): the first relation has two
    lengths, so build_algebra takes the global reduction."""
    q = Quiver(2, [("a", 1, 2), ("b", 2, 1), ("c", 1, 1)])
    rels = [Relation(q, [(1, 1, ("a", "b")), (-1, 1, ("c", "c", "c"))]),
            Relation(q, [(1, 1, ("c",) * 4)]),
            Relation(q, [(1, 2, ("b", "a"))]),
            Relation(q, [(1, 2, ("b", "c"))]),
            Relation(q, [(1, 1, ("c", "a"))])]
    return build_algebra(q, RelationSet(q, rels), length_bound=8)
