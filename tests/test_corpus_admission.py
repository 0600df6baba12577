"""random_corpus decides a candidate's dimension by counting paths before
building it, and rejects a duplicate before classifying it; its members
are those of the loop that built and classified every candidate."""

import re

import pytest

import bocskit.corpus
from bocskit.corpus import random_corpus
from bocskit.io import bocs_to_doc, emit

from helpers import reference_random_corpus

REASONS = {"oversize", "build error", "duplicate", "classification error",
           "not filtered", "bocs error"}


def _members(corpus):
    """What a member is made of: its arrows, relation paths, dimension,
    order, and the document of its bocs when it has one."""
    return [(alg.quiver.arrows,
             [rel.terms for rel in alg.relations.relations],
             alg.dim, order,
             None if bocs is None else emit(bocs_to_doc(bocs)))
            for alg, order, bocs in corpus]


@pytest.mark.parametrize("seed, kwargs", [
    (20260823, {"count": 8, "max_dim": 5}),
    (20260823, {"count": 20, "max_dim": 5, "require_bocs": False}),
    (1, {"count": 30, "max_dim": 8, "require_bocs": False}),
    (2, {"count": 30, "max_dim": 8, "require_bocs": False}),
    (3, {"count": 30, "max_dim": 8, "require_bocs": False}),
])
def test_members_are_those_of_the_reference_loop(seed, kwargs):
    assert _members(random_corpus(seed, **kwargs)) == \
        _members(reference_random_corpus(seed, **kwargs))


def test_benchmark_corpus_builds_28_and_classifies_14(monkeypatch):
    # of 38 candidates, 10 are oversize and never built; of the 28
    # built, 14 repeat a kept member and are never classified
    calls = {"build": 0, "classify": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(bocskit.corpus, "build_algebra",
                        counted("build", bocskit.corpus.build_algebra))
    monkeypatch.setattr(bocskit.corpus, "classify_algebra",
                        counted("classify", bocskit.corpus.classify_algebra))
    corpus = random_corpus(20260823, count=12, max_dim=5, require_bocs=False)
    assert len(corpus) == 12
    assert calls == {"build": 28, "classify": 14}


def test_a_build_off_the_path_count_is_an_invariant_failure(monkeypatch):
    build = bocskit.corpus.build_algebra

    def dropping_a_relation(quiver, relations, **kwargs):
        # the first candidate built loses a length-2 relation, and so
        # has a path more than the count
        relations.relations.pop()
        return build(quiver, relations, **kwargs)

    monkeypatch.setattr(bocskit.corpus, "build_algebra", dropping_a_relation)
    with pytest.raises(AssertionError, match="monomial path count"):
        random_corpus(20260823, count=4, max_dim=5, require_bocs=False)


def test_exhaustion_counts_every_rejection_by_reason():
    attempts = 30
    with pytest.raises(ValueError) as info:
        random_corpus(1, count=50, max_dim=1, max_attempts=attempts)
    message = str(info.value)
    # the message begins as the reference loop's does
    with pytest.raises(ValueError) as reference:
        reference_random_corpus(1, count=50, max_dim=1,
                                max_attempts=attempts)
    assert message.startswith(str(reference.value) + " with ")
    kept = int(re.search(r"with (\d+) kept", message).group(1))
    rejected = dict(item.rsplit(" ", 1) for item
                    in message.split("rejected: ")[1].split(", "))
    rejected = {reason: int(n) for reason, n in rejected.items()}
    assert set(rejected) <= REASONS and rejected["oversize"] > 0
    assert kept == len(random_corpus(1, count=kept, max_dim=1,
                                     max_attempts=attempts))
    assert sum(rejected.values()) == attempts - kept
