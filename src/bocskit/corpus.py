"""Seeded random corpus of small admissible quiver algebras.

The generator is deterministic in the seed and biased toward small
tractable inputs: at most three vertices, total dimension at most eight,
and a filtration certificate in the requested mode.
"""

from __future__ import annotations

import random

from .quiver import Quiver, Relation, RelationSet, build_algebra
from .strata import classify_algebra


def _random_quiver(rng: random.Random, max_vertices: int) -> Quiver:
    # parallel arrows are excluded: repeated extensions between a fixed
    # pair of simples make the resolutions grow too fast for a corpus
    # meant to run inside a tight time budget
    n = rng.randint(1, max_vertices)
    count = rng.randint(0, n + 1)
    pairs = [(s, t) for s in range(1, n + 1) for t in range(1, n + 1)]
    rng.shuffle(pairs)
    arrows = [(f"a{k}", s, t)
              for k, (s, t) in enumerate(pairs[:count])]
    return Quiver(n, arrows)


def _random_paths(rng: random.Random, quiver: Quiver, length: int):
    """Composable arrow-name paths of the given length."""
    by_source = {}
    for name, s, t in quiver.arrows:
        by_source.setdefault(s, []).append((name, t))
    out = []
    for name, s, t in quiver.arrows:
        stack = [([name], t)]
        while stack:
            path, at = stack.pop()
            if len(path) == length:
                out.append(tuple(path))
                continue
            for nxt, tgt in by_source.get(at, []):
                stack.append((path + [nxt], tgt))
    return out


def random_corpus(seed: int, count: int = 20, max_vertices: int = 3,
                  max_dim: int = 8, mode: str = "pdelta",
                  max_attempts: int = 4000, require_bocs: bool = True,
                  r_max: int = 3):
    """Algebras with a full filtration certificate in the given mode.

    Returns a list of (Algebra, order, bocs) triples, deterministic in
    the seed.  With require_bocs the dual construction is attempted at
    the given cutoff and failures are skipped, so every member carries
    its bocs; otherwise the third entry is None.
    """
    rng = random.Random(seed)
    out = []
    seen = set()
    for _ in range(max_attempts):
        if len(out) >= count:
            break
        quiver = _random_quiver(rng, max_vertices)
        relations = []
        # kill every length-3 path so the algebra is finite and small,
        # then drop a random subset of length-2 paths as well
        for p in _random_paths(rng, quiver, 3):
            src = quiver.arrow_source(p[0])
            relations.append(Relation(quiver, [(1, src, p)]))
        for p in _random_paths(rng, quiver, 2):
            if rng.random() < 0.7:
                src = quiver.arrow_source(p[0])
                relations.append(Relation(quiver, [(1, src, p)]))
        try:
            alg = build_algebra(quiver, RelationSet(quiver, relations),
                                length_bound=6)
        except ValueError:
            continue
        if alg.dim > max_dim or alg.dim < 1:
            continue
        order = list(range(1, alg.n + 1))
        rng.shuffle(order)
        try:
            cls = classify_algebra(alg, order)
        except ValueError:
            continue
        if not cls.filtered(mode):
            continue
        key = _signature(alg, order)
        if key in seen:
            continue
        bocs = None
        if require_bocs:
            from .bocs import construct_bocs
            try:
                bocs = construct_bocs(alg, order, mode=mode, r_max=r_max,
                                      classification=cls)
            except ValueError:
                continue
        seen.add(key)
        out.append((alg, order, bocs))
    if len(out) < count:
        raise ValueError(
            f"corpus generation exhausted after {max_attempts} attempts")
    return out


def _signature(alg, order):
    return (alg.n, alg.dim, tuple(order),
            tuple(sorted((s, t) for name, s, t in alg.quiver.arrows)),
            tuple(sorted((rel.min_length, len(rel.terms))
                         for rel in alg.relations.relations)))
