import pytest

from bocskit.bocs import classify_bocs
from bocskit.corpus import random_corpus
from bocskit.strata import classify_algebra


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(20260823, count=8, max_dim=5)


def test_deterministic_in_seed(corpus):
    again = random_corpus(20260823, count=8, max_dim=5)
    assert len(again) == len(corpus)
    for (a1, o1, _), (a2, o2, _) in zip(corpus, again):
        assert o1 == o2
        assert a1.dim == a2.dim
        assert a1.quiver.arrows == a2.quiver.arrows


def test_members_respect_bounds(corpus):
    for alg, order, bocs in corpus:
        assert 1 <= alg.n <= 3
        assert alg.dim <= 5
        assert sorted(order) == list(range(1, alg.n + 1))


def test_members_are_filtered_in_mode(corpus):
    for alg, order, bocs in corpus:
        assert classify_algebra(alg, order).filtered("pdelta")


def test_members_carry_one_cyclic_bocses(corpus):
    for alg, order, bocs in corpus:
        assert bocs is not None
        assert "one-cyclic directed" in classify_bocs(bocs).satisfies


def test_no_parallel_arrows(corpus):
    for alg, order, bocs in corpus:
        pairs = [(s, t) for name, s, t in alg.quiver.arrows]
        assert len(pairs) == len(set(pairs))


def test_require_bocs_off_skips_construction():
    corp = random_corpus(20260823, count=4, max_dim=5, require_bocs=False)
    assert all(b is None for _, _, b in corp)


def test_exhaustion_raises():
    with pytest.raises(ValueError, match="corpus generation exhausted"):
        random_corpus(1, count=50, max_dim=1, max_attempts=30)


def test_invariant_failures_propagate(monkeypatch):
    import bocskit.bocs

    def broken(*args, **kwargs):
        raise AssertionError("invariant violated")

    monkeypatch.setattr(bocskit.bocs, "construct_bocs", broken)
    with pytest.raises(AssertionError, match="invariant violated"):
        random_corpus(20260823, count=1, max_dim=5)
