"""Standard and properly standard modules, filtrations, classification.

Vertex orders are permutations of 1..n; "larger" always refers to the
position in the chosen order, not the raw vertex label.  Mode strings are
"delta" (standard modules) and "pdelta" (properly standard modules).

classify_algebra checks the order and computes nothing else.  Its
Classification builds a mode's standard system on the first access to
systems[mode], searches the filtrations of that mode's projectives on
the first access to certificates[mode] (or filtered(mode)), and derives
the label, which reads both modes, on its first access.  A caller that
asks about one mode, as random_corpus and construct_bocs do, so pays for
that mode alone.  Nothing is kept on the Algebra: a Classification
refers to its algebra (Classification.alg, StandardSystem.alg,
FDModule.alg), so an algebra store holding one would be a reference
cycle, and an algebra with its stores is freed by reference counting
alone (see modules).
"""

from __future__ import annotations

from functools import cached_property

from .linalg import Span
from .modules import (FDModule, _stored, hom_basis, projective, quotient,
                      radical_vectors, submodule)
from .quiver import Algebra

MODES = ("delta", "pdelta")


class StandardSystem:
    def __init__(self, alg: Algebra, order, mode: str, modules):
        self.alg = alg
        self.order = list(order)
        self.rank = {v: k for k, v in enumerate(self.order)}
        self.mode = mode
        self.modules = list(modules)        # index 0 -> vertex 1, ...
        self._tops = {}

    def module(self, i: int) -> FDModule:
        return self.modules[i - 1]

    def top(self, i: int):
        """The matrix of the projection of Theta(i) onto its top, built on
        first use."""
        return _stored(self._tops, i, _top_projection, self.module(i))


def _top_projection(theta: FDModule):
    rad = Span(theta.total, radical_vectors(theta))
    return rad.complement(key=theta.vertex_of_coord)[1]


class FiltrationLayer:
    def __init__(self, vertex, surjection, kernel_inclusion):
        self.vertex = vertex
        self.surjection = surjection
        self.kernel_inclusion = kernel_inclusion


class FiltrationCertificate:
    """Top-down list of layers: peel a Theta(j) quotient, recurse on the
    kernel.  layers[k].surjection maps the k-th kernel onto Theta(vertex)."""

    def __init__(self, module: FDModule, layers):
        self.module = module
        self.layers = list(layers)

    def vertices(self):
        return [l.vertex for l in self.layers]

    def verify(self, system: StandardSystem) -> bool:
        current = self.module
        for layer in self.layers:
            theta = system.module(layer.vertex)
            f = layer.surjection
            if f.source.total != current.total or \
                    f.target.total != theta.total:
                return False
            # one row reduction: the rank is the total less the nullity
            nullity = len(f.mat.kernel_basis())
            if current.total - nullity != theta.total or \
                    nullity != layer.kernel_inclusion.source.total:
                return False
            current = layer.kernel_inclusion.source
        return current.total == 0


def _normalize_order(alg: Algebra, order):
    if order is None:
        return list(range(1, alg.n + 1))
    order = list(order)
    if sorted(order) != list(range(1, alg.n + 1)):
        raise ValueError("order must be a permutation of the vertices")
    return order


def standard_modules(alg: Algebra, order=None, mode="delta") -> StandardSystem:
    """Delta(i) = P(i) / U(i) in mode "delta", properly standard
    Delta-bar(i) = P(i) / U(i) in mode "pdelta", for each vertex i.

    U(i) is the submodule generated by the coordinates of P(i) at the
    vertices j above i and, in pdelta mode, those at i of radical degree
    at least 1.  _assert_system_invariants cannot fail on the result:
    - The algebra is elementary, so the only degree-0 coordinate of P(i)
      is e_i, and every generator of U(i) has degree at least 1.  The
      basis is adapted to the radical filtration, so U(i) lies in the
      submodule rad P(i), which misses e_i: the top S(i) survives.
    - Every coordinate of P(i) at a vertex j above i is a generator, so
      e_j P(i) lies in U(i) and Theta(i) has no composition factor at j.
    - In pdelta mode e_i P(i) is spanned by e_i and its coordinates of
      degree at least 1; those lie in U(i) and e_i does not, so
      Delta-bar(i) keeps exactly one copy of its top.
    The check stays, as a guard on the algebra's basis conventions.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    order = _normalize_order(alg, order)
    rank = {v: k for k, v in enumerate(order)}
    # A map P(j) -> P(i) is a vector of e_j P(i), so the trace of P(j) in
    # P(i) is generated by P(i)'s coordinates at j; the radical
    # endomorphisms are its coordinates at i of radical degree >= 1.
    modules = []
    for i in range(1, alg.n + 1):
        p = projective(alg, i)
        _, _, words = p.proj_gens[0]
        gens = [c for c, k in words
                if rank[alg.btarget[k]] > rank[i]
                or (mode == "pdelta" and alg.btarget[k] == i
                    and alg.bdegree[k] >= 1)]
        q, _, _ = quotient(p, [a.column(c) for a in p.act for c in gens])
        modules.append(q)
    sys = StandardSystem(alg, order, mode, modules)
    _assert_system_invariants(sys)
    return sys


def _assert_system_invariants(system: StandardSystem):
    alg = system.alg
    for i in range(1, alg.n + 1):
        theta = system.module(i)
        if theta.dims[i - 1] < 1:
            raise ValueError(f"standard module at {i} lost its top")
        for j in range(1, alg.n + 1):
            if system.rank[j] > system.rank[i] and theta.dims[j - 1] != 0:
                raise ValueError(
                    f"standard module at {i} has factors above {i}")
        if system.mode == "pdelta" and theta.dims[i - 1] != 1:
            raise ValueError(
                f"properly standard module at {i} has multiple tops")


def _filtration_search(current: FDModule, system: StandardSystem, allowed):
    """Layers of a filtration of current, top first, or None."""
    if current.total == 0:
        return []
    for j in allowed:
        theta = system.module(j)
        if theta.total == 0 or theta.total > current.total:
            continue
        if any(theta.dims[v] > current.dims[v]
               for v in range(system.alg.n)):
            continue
        homs = hom_basis(current, theta)
        candidates = [f for f in homs
                      if not (system.top(j) @ f.mat).is_zero()]
        if len(candidates) > 1:
            acc = candidates[0]
            for f in candidates[1:]:
                acc = acc + f
            candidates = candidates + [acc]
        for f in candidates:
            # one row reduction: the rank is the total less the nullity
            kb = f.mat.kernel_basis()
            if current.total - len(kb) != theta.total:
                continue
            ker, kinc = submodule(current, kb)
            rest = _filtration_search(ker, system, allowed)
            if rest is not None:
                return [FiltrationLayer(j, f, kinc)] + rest
    return None


def theta_filtration(M: FDModule, system: StandardSystem, allowed=None):
    """Depth-first search for a filtration with factors among the system.

    allowed restricts the usable vertices.  Returns a certificate or None.
    """
    allowed = sorted(allowed if allowed is not None
                     else range(1, system.alg.n + 1),
                     key=lambda v: -system.rank[v])
    layers = _filtration_search(M, system, allowed)
    if layers is None:
        return None
    return FiltrationCertificate(M, layers)


class _Systems(dict):
    """mode -> the StandardSystem of the algebra at the order, built by
    standard_modules on first access; an unknown mode raises its
    ValueError and is not kept."""

    def __init__(self, alg: Algebra, order):
        super().__init__()
        self.alg = alg
        self.order = order

    def __missing__(self, mode):
        system = self[mode] = standard_modules(self.alg, self.order, mode)
        return system


class _Certificates(dict):
    """mode -> {vertex i: certificate of P(i) or None}, searched on first
    access among the Theta(j) with j at or above i in the order.

    The search reads only the system's modules, their tops and the order,
    so when the other mode is already certified and its modules are the
    same, its certificates are handed out.  It refers to the systems, not
    to the Classification, so no reference cycle passes through it."""

    def __init__(self, systems: _Systems):
        super().__init__()
        self.systems = systems

    def __missing__(self, mode):
        system = self.systems[mode]
        for other, certs in self.items():
            if self.systems[other].modules == system.modules:
                break
        else:
            alg, rank = system.alg, system.rank
            certs = {i: theta_filtration(projective(alg, i), system,
                                         [j for j in range(1, alg.n + 1)
                                          if rank[j] >= rank[i]])
                     for i in range(1, alg.n + 1)}
        self[mode] = certs
        return certs


class Classification:
    """The classification of alg at the order, computed at the cost of the
    question: systems[mode] and certificates[mode] are built on their
    first access and kept, filtered(mode) reads certificates[mode], and
    label, which reads both modes, is derived on its first access."""

    def __init__(self, alg: Algebra, order):
        self.alg = alg
        self.order = order
        self.systems = _Systems(alg, order)        # mode -> StandardSystem
        self.certificates = _Certificates(self.systems)

    def filtered(self, mode: str) -> bool:
        return all(c is not None for c in self.certificates[mode].values())

    @cached_property
    def label(self) -> str:
        delta_ok, pdelta_ok = self.filtered("delta"), self.filtered("pdelta")
        same = all(d.dims == p.dims for d, p in zip(
            self.systems["delta"].modules, self.systems["pdelta"].modules))
        if delta_ok and same:
            return "quasi-hereditary"
        if delta_ok and pdelta_ok:
            return "delta-and-pdelta-filtered"
        if delta_ok:
            return "delta-filtered"
        if pdelta_ok:
            return "pdelta-filtered"
        return "none"


def classify_algebra(alg: Algebra, order=None) -> Classification:
    """The Classification of alg at the order (default 1..n), which is
    checked here; every standard system and search waits for its reader."""
    return Classification(alg, _normalize_order(alg, order))
