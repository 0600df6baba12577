"""Pretwisted data and the object-level module correspondence.

A pretwisted pair carries multiplicity spaces over the vertex set and a
degree-1 element delta written as a sum of (linear map, Ext class) pairs.
Pairing delta against the dual generators of the bocs base yields a
candidate module; triangularity plus the Maurer-Cartan equation make it an
actual module.  A filtered module over the original algebra is sent to
the pair whose delta holds the extension classes of its adjacent layers;
higher twisting components are not computed, so a module whose
first-order delta fails the Maurer-Cartan equation is refused as
inconclusive.
"""

from __future__ import annotations

from .ainf import AInfTable
from .bocs import Bocs, bocs_hom_basis
from .linalg import MapSpace, Matrix, Span, ZERO
from .modules import (FDModule, ModuleMap, _from_arrow_blocks, hom_basis,
                      hom_from_projective, place_block, quotient)
from .strata import FiltrationCertificate


class PretwistedModule:
    """Multiplicity spaces X plus delta as (map, degree-1 class) pairs."""

    def __init__(self, X, delta):
        self.X = tuple(X)
        self.delta = list(delta)
        for f, cls in self.delta:
            if cls.k != 1:
                raise ValueError("delta classes must have degree 1")
            if f.rows != self.X[cls.j - 1] or f.cols != self.X[cls.i - 1]:
                raise ValueError("map endpoints do not match the class")

    @property
    def total(self):
        return sum(self.X)


def module_from_pretwisted(pt: PretwistedModule, bocs: Bocs) -> FDModule:
    """Candidate B-module with each generator acting by the pairing.

    The generator dual to a class acts by the sum of the maps attached to
    that class; relations are not checked here (see check_pretwisted).
    """
    blocks = {}
    for name, cls in bocs.duals.q0:
        m = Matrix.zero(pt.X[cls.j - 1], pt.X[cls.i - 1])
        for f, c in pt.delta:
            if c == cls:
                m = m + f
        blocks[name] = m
    return _from_arrow_blocks(bocs.B, pt.X,
                              [blocks[a[0]] for a in bocs.B.arrows])


def _mc_matrices(pt: PretwistedModule, table: AInfTable):
    """Coefficient of each degree-2 class in the Maurer-Cartan sum.

    With every class of degree 1 the twisting sign equals the suspension
    sign, so the sum is evaluated through the truncated bar products.
    """
    emb = [(cls, place_block(pt.X, cls.j, cls.i, f)) for f, cls in pt.delta]
    out = {}
    chains = [((cls,), m) for cls, m in emb if not m.is_zero()]
    for r in range(2, table.r_max + 1):
        grown = []
        for key, prod in chains:
            for cls, m in emb:
                if key[0].j != cls.i:
                    continue
                nm = m @ prod
                if nm.is_zero():
                    continue
                grown.append(((cls,) + key, nm))
        chains = grown
        if not chains:
            break
        for key, prod in chains:
            for zcls, c in table.bprime(key).items():
                cur = out.get(zcls)
                out[zcls] = prod.scale(c) if cur is None \
                    else cur + prod.scale(c)
    return {z: m for z, m in out.items() if not m.is_zero()}


def _is_nilpotent(pt: PretwistedModule) -> bool:
    total = pt.total
    if total == 0:
        return True
    gens = [place_block(pt.X, cls.j, cls.i, f) for f, cls in pt.delta]
    layer = [m for m in gens if not m.is_zero()]
    for _ in range(total):
        nxt = []
        seen = Span(total * total)
        for g in gens:
            for m in layer:
                p = g @ m
                if seen.add(p.flat()):
                    nxt.append(p)
        layer = nxt
        if not layer:
            return True
    return False


def check_pretwisted(pt: PretwistedModule, table: AInfTable, bocs: Bocs):
    """(triangular, maurer_cartan) flags for pretwisted data.

    Maurer-Cartan is evaluated through the product tables and
    cross-checked against relation compatibility of the candidate module.
    That relation check is what makes the candidate a module, so it is
    not validated otherwise: each idempotent acts as its vertex block and
    each path as the composite of its arrow blocks, so the module axioms
    hold exactly when every relation of B acts as zero.
    """
    triangular = _is_nilpotent(pt)
    mc = not _mc_matrices(pt, table)
    candidate = module_from_pretwisted(pt, bocs)
    compatible = True
    for rel in bocs.B.relations.relations:
        total = Matrix.zero(pt.total, pt.total)
        for c, src, names in rel.terms:
            m = Matrix.identity(pt.total)
            for aname in names:
                m = candidate.act[bocs.arrow_idx[aname]] @ m
            total = total + m.scale(c)
        if not total.is_zero():
            compatible = False
    if mc != compatible:
        raise AssertionError(
            "Maurer-Cartan and relation compatibility disagree")
    return triangular, mc


def _extension_coefficients(bocs: Bocs, E: FDModule, pi: ModuleMap,
                            iota: ModuleMap, i: int, j: int):
    """Class coordinates of the extension of Theta(i) by Theta(j).

    pi maps E onto Theta(i), iota embeds Theta(j); the class is read off
    by lifting the augmentation and matching the induced cocycle against
    the tabulated representatives modulo coboundaries.
    """
    table = bocs.table
    rsys = table.rsys
    Ri = rsys.resolution(i)
    Rj = rsys.resolution(j)
    basis = table.basis(1, i, j)
    if not basis:
        return []
    P0 = Ri.P(0)
    theta_j = Rj.module

    # lift the augmentation through pi
    space = MapSpace([h.mat for h in hom_from_projective(P0, E)], E.total,
                     P0.total)
    try:
        umat = space.combine(space.through(pi.mat).coords(Ri.aug.mat))
    except ValueError:
        raise AssertionError("augmentation does not lift through pi") \
            from None

    # restrict to the first syzygy and pull back along iota
    g = iota.mat.solve_columns(umat @ Ri.diff(1).mat)
    if g is None:
        raise AssertionError("lift does not land in the submodule")

    # match against tabulated cocycles modulo coboundaries
    cocs = [Rj.aug.mat @ table.graded_map(c).component(1).mat
            for c in basis]
    cobs = [h.mat @ Ri.diff(1).mat for h in hom_from_projective(P0, theta_j)]
    try:
        sol = MapSpace(cocs + cobs, g.rows, g.cols).coords(g)
    except ValueError:
        raise AssertionError(
            "extension cocycle outside the table span") from None
    return list(sol[:len(basis)])


def filtered_to_bocs_module(cert: FiltrationCertificate, bocs: Bocs):
    """B-module of a standardly filtered A-module, given by a filtration
    certificate over the standard system of the bocs, via pretwisted data.

    delta is the first-order twisting: the extension class of each pair
    of adjacent layers.  Higher twisting components, between layers two
    or more apart, are not computed, so when the first-order data fail
    the Maurer-Cartan equation the result is inconclusive and a
    ValueError says so.
    """
    table = bocs.table
    system = table.rsys.system
    layers = cert.layers
    word = [l.vertex for l in layers]
    dims = [0] * system.alg.n
    coord = []
    for v in word:
        coord.append(dims[v - 1])
        dims[v - 1] += 1

    def elementary(t, value):
        """value times the map from layer t to layer t + 1."""
        u = t + 1
        f = [[ZERO] * dims[word[t] - 1]
             for _ in range(dims[word[u] - 1])]
        f[coord[u]][coord[t]] = value
        return Matrix(dims[word[u] - 1], dims[word[t] - 1], f)

    # adjacent classes from subquotients
    delta = []
    for t in range(len(layers) - 1):
        upper = layers[t].surjection.source  # the t-th kernel, M at t = 0
        inc1 = layers[t].kernel_inclusion
        inc2 = layers[t + 1].kernel_inclusion
        sub = [tuple(col) for col in (inc1.mat @ inc2.mat).columns()]
        E, proj, sect = quotient(upper, sub)
        # the surjection kills sub, so it factors through proj by sect
        pi = ModuleMap(E, system.module(word[t]),
                       layers[t].surjection.mat @ sect)
        theta_j = system.module(word[t + 1])
        pre = layers[t + 1].surjection.mat.solve_columns(
            Matrix.identity(theta_j.total))
        iota = ModuleMap(theta_j, E, proj.mat @ (inc1.mat @ pre))
        xs = _extension_coefficients(bocs, E, pi, iota,
                                     word[t], word[t + 1])
        for x, cls in zip(xs, table.basis(1, word[t], word[t + 1])):
            if x != 0:
                delta.append((elementary(t, x), cls))

    pt = PretwistedModule(dims, delta)
    triangular, mc = check_pretwisted(pt, table, bocs)
    if not triangular:
        raise AssertionError("adjacent-layer twisting is not triangular")
    if not mc:
        raise ValueError("inconclusive: the first-order twisting fails the "
                         "Maurer-Cartan equation, and higher twisting "
                         "components are not computed")
    out = module_from_pretwisted(pt, bocs)
    out.pretwisted = pt
    return out


def hom_dim_compare(certs, bocs: Bocs):
    """dim Hom over A against dim Hom in the bocs category, for every
    ordered pair (M, N) of the modules filtered by the certificates
    certs, M outer.  Each module's bocs module is built once."""
    mods = [cert.module for cert in certs]
    xs = [filtered_to_bocs_module(cert, bocs) for cert in certs]
    out = []
    for M, XM in zip(mods, xs):
        for N, XN in zip(mods, xs):
            da = len(hom_basis(M, N))
            db = len(bocs_hom_basis(bocs, XM, XN))
            out.append({"dim_hom_A": da, "dim_hom_bocs": db,
                        "match": da == db, "ok": da == db})
    return out
