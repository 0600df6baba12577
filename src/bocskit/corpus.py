"""Seeded random corpus of small admissible quiver algebras.

The generator is deterministic in the seed and biased toward small
tractable inputs: at most three vertices, total dimension at most eight,
and a filtration certificate in the requested mode.
"""

from __future__ import annotations

import random
from collections import Counter

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

    Each candidate kills every length-3 path and a random set of
    length-2 paths, all of them monomial relations.  The basis of a
    monomial algebra is the set of paths containing no relation, so here
    the paths of length at most 2 that are not relations themselves:
    dim = n + #arrows + #(length-2 paths not drawn), at least 1 as n is.
    That count decides the dimension bound before the algebra is built,
    and the build is checked against it (AssertionError).  A candidate
    is rejected at the first of: oversize, build error, duplicate (the
    signature of a kept member), classification error, not filtered,
    bocs error.  Only the quiver, the relations and the order draw from
    the generator, so rejecting a candidate before building or
    classifying it keeps every later draw.  When fewer than count
    members are found, the ValueError gives the rejections by reason.
    """
    rng = random.Random(seed)
    out = []
    seen = set()
    rejected = Counter()
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
        alive = 0
        for p in _random_paths(rng, quiver, 2):
            if rng.random() < 0.7:
                src = quiver.arrow_source(p[0])
                relations.append(Relation(quiver, [(1, src, p)]))
            else:
                alive += 1
        dim = quiver.n + len(quiver.arrows) + alive
        if dim > max_dim:
            rejected["oversize"] += 1
            continue
        try:
            alg = build_algebra(quiver, RelationSet(quiver, relations),
                                length_bound=6)
        except ValueError:
            rejected["build error"] += 1
            continue
        if alg.dim != dim:
            raise AssertionError(
                f"monomial path count {dim} but the algebra has dimension "
                f"{alg.dim}")
        order = list(range(1, alg.n + 1))
        rng.shuffle(order)
        key = _signature(alg, order)
        if key in seen:
            rejected["duplicate"] += 1
            continue
        try:
            cls = classify_algebra(alg, order)
            filtered = cls.filtered(mode)
        except ValueError:
            rejected["classification error"] += 1
            continue
        if not filtered:
            rejected["not filtered"] += 1
            continue
        bocs = None
        if require_bocs:
            from .bocs import construct_bocs
            try:
                bocs = construct_bocs(alg, order, mode=mode, r_max=r_max,
                                      classification=cls)
            except ValueError:
                rejected["bocs error"] += 1
                continue
        seen.add(key)
        out.append((alg, order, bocs))
    if len(out) < count:
        reasons = ", ".join(f"{reason} {n}"
                            for reason, n in rejected.items())
        raise ValueError(
            f"corpus generation exhausted after {max_attempts} attempts "
            f"with {len(out)} kept; rejected: {reasons}")
    return out


def _signature(alg, order):
    return (alg.n, alg.dim, tuple(order),
            tuple(sorted((s, t) for name, s, t in alg.quiver.arrows)),
            tuple(sorted((rel.min_length, len(rel.terms))
                         for rel in alg.relations.relations)))
