"""Standard and properly standard modules, filtrations, classification.

Vertex orders are permutations of 1..n; "larger" always refers to the
position in the chosen order, not the raw vertex label.  Mode strings are
"delta" (standard modules) and "pdelta" (properly standard modules).
"""

from __future__ import annotations

from .modules import (FDModule, hom_basis, kernel, projective, quotient,
                      radical_vectors)
from .quiver import Algebra

MODES = ("delta", "pdelta")


class StandardSystem:
    def __init__(self, alg: Algebra, order, mode: str, modules):
        self.alg = alg
        self.order = list(order)
        self.rank = {v: k for k, v in enumerate(self.order)}
        self.mode = mode
        self.modules = list(modules)        # index 0 -> vertex 1, ...

    def module(self, i: int) -> FDModule:
        return self.modules[i - 1]


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
            if f.mat.rank() != theta.total:
                return False
            if kernel(f)[0].total != layer.kernel_inclusion.source.total:
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
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    order = _normalize_order(alg, order)
    rank = {v: k for k, v in enumerate(order)}
    modules = []
    for i in range(1, alg.n + 1):
        p = projective(alg, i)
        radical_flag = (mode == "pdelta")
        if mode == "delta":
            family = [projective(alg, j) for j in range(1, alg.n + 1)
                      if rank[j] > rank[i]]
        else:
            family = [projective(alg, j) for j in range(1, alg.n + 1)
                      if rank[j] >= rank[i]]
        vecs = []
        for F in family:
            for f in hom_basis(F, p, radical_only=radical_flag):
                vecs.extend(f.mat.columns())
        q, _, _ = quotient(p, vecs,
                           name=("D" if mode == "delta" else "pD") + f"({i})")
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


def _top_projection(theta: FDModule):
    q, proj, _ = quotient(theta, radical_vectors(theta))
    return proj


def _filtration_search(current: FDModule, system: StandardSystem, allowed,
                       tops):
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
                      if not (tops[j].mat @ f.mat).is_zero()]
        if len(candidates) > 1:
            acc = candidates[0]
            for f in candidates[1:]:
                acc = acc + f
            candidates = candidates + [acc]
        for f in candidates:
            if f.mat.rank() != theta.total:
                continue
            ker, kinc = kernel(f)
            rest = _filtration_search(ker, system, allowed, tops)
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
    tops = {j: _top_projection(system.module(j)) for j in allowed}
    layers = _filtration_search(M, system, allowed, tops)
    if layers is None:
        return None
    return FiltrationCertificate(M, layers)


class Classification:
    def __init__(self, label, order, systems, certificates):
        self.label = label
        self.order = order
        self.systems = systems            # mode -> StandardSystem
        self.certificates = certificates  # mode -> {vertex: certificate|None}

    def filtered(self, mode: str) -> bool:
        return all(c is not None for c in self.certificates[mode].values())


def classify_algebra(alg: Algebra, order=None) -> Classification:
    order = _normalize_order(alg, order)
    rank = {v: k for k, v in enumerate(order)}
    systems = {}
    certificates = {}
    for mode in MODES:
        system = standard_modules(alg, order, mode)
        systems[mode] = system
        certs = {}
        for i in range(1, alg.n + 1):
            allowed = [j for j in range(1, alg.n + 1)
                       if rank[j] >= rank[i]]
            certs[i] = theta_filtration(projective(alg, i), system, allowed)
        certificates[mode] = certs

    cls = Classification(None, order, systems, certificates)
    delta_ok, pdelta_ok = cls.filtered("delta"), cls.filtered("pdelta")
    same = all(systems["delta"].module(i).dims ==
               systems["pdelta"].module(i).dims
               for i in range(1, alg.n + 1))
    if delta_ok and same:
        label = "quasi-hereditary"
    elif delta_ok and pdelta_ok:
        label = "delta-and-pdelta-filtered"
    elif delta_ok:
        label = "delta-filtered"
    elif pdelta_ok:
        label = "pdelta-filtered"
    else:
        label = "none"
    cls.label = label
    return cls
