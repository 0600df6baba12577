"""Oracles and strategies shared by the tests; the package calls none of
them.

Among them are reference constructions and checks that the verifier does
not need: direct sums, modules from arrow blocks with the module axioms
checked, the intertwining check of a map, the zero module and the kernel
of a module map, the dense hom solve that hom_basis replaced, hom_basis,
sum_of_projectives and syzygies as they were before the Algebra stores,
the module builders (simple, from arrow blocks, sum of projectives,
submodule, quotient and the tensor module over a right basis) as they
were before the idempotent actions were filled in from the dimension
vector, each computing every action matrix,
the radical of a hom space, the bocs identity, the pairs of W (x) X with
their projection and section, the composition over every pair of
W (x) X read back through the section that bocs_compose replaced, the
balanced relations of M (x)_B N, and on them W (x)_B X and the
coalgebra check, which the right basis of W replaced, and the count of
R (x)_B X, which the right basis of R replaced, induction through
Hom_bocs(B, -), which R (x)_B X read off the right basis of R replaced,
the coassociativity check in the K-tensor cube, the K-tensor kernel
those references run on (outer, kron_apply), the counit identities read
through it on mu in the dense layout of its document, the dense
associativity check that Algebra.check_associativity replaced, the trace
form summed over every ordered pair, the Auslander algebras,
null-homotopy by a homotopy solve against the radical criterion, the
Ext comparison of A with a factor algebra A/AeA (reduction_check), the
A-infinity table keys enumerated over every composable tuple and the
Stasheff check through bprime on every slice, which the growth of the
tabulated tuples and the bp_table reads replaced, the dense word layer
that the sparse words of a bocs replaced (a word b.g.c as a vector on
the degree-1 word basis, the dense projection onto W and section of W,
eps on every degree-1 word, and the sandwich b.u.c and d' of a path of
B built from those vectors), the bimodule action and mu of a bocs
through that dense projection, and the enumeration of indecomposables
that tested every candidate through its endomorphism algebra, the
random corpus loop that built every candidate and classified every one
of admissible dimension, and the embedding check of the right algebra on
the dense embedding matrix.
"""

import copy
import random
from collections import namedtuple
from types import SimpleNamespace
from typing import Sequence

from hypothesis import strategies as st

from bocskit.ainf import AInfTable, _chains
from bocskit.bocs import (Bocs, TensorModule, _hom_source, _path_vec,
                          bocs_compose, construct_bocs,
                          bocs_hom_basis, bocs_lift, pair_image,
                          tensor_module)
from bocskit.corpus import _random_paths, _random_quiver, _signature
from bocskit.io import mu_to_matrix
from bocskit.linalg import (ONE, ZERO, MapSpace, Matrix, Span, nonzeros,
                            vec_is_zero)
from bocskit.modules import (FDModule, ModuleMap, _from_arrow_blocks,
                             _trace_pairing, from_generators, hom_basis,
                             is_isomorphic, place_block, projective,
                             quotient, radical_vectors, submodule)
from bocskit.pipeline import _is_indecomposable
from bocskit.quiver import (Algebra, Quiver, Relation, RelationSet,
                            build_algebra, from_structure_constants)
from bocskit.resolution import (GradedMap, ResolvedSystem, _flatten_graded,
                                _hom_space, differential, ext_basis)
from bocskit.strata import (_normalize_order, classify_algebra,
                            standard_modules)


def all_classes(table, degrees):
    """Every Ext class of an AInfTable with degree in degrees, ordered by
    (degree, source, target) and then by index."""
    out = []
    for (k, i, j), lst in sorted(table.classes.items()):
        if k in degrees:
            out.extend(lst)
    return out


@st.composite
def monomial_algebras(draw):
    """A quiver algebra on at most two vertices and two arrows, with every
    path of length 2 or 3 set to zero, and when 3 some paths of length 2."""
    n = draw(st.integers(1, 2))
    pairs = [(s, t) for s in range(1, n + 1) for t in range(1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2))
    q = Quiver(n, [(f"a{k}", s, t) for k, (s, t) in enumerate(chosen)])
    length = draw(st.integers(2, 3))
    paths = [(s, (name,), t) for name, s, t in q.arrows]
    rels = []
    for ell in range(2, length + 1):
        paths = [(s, p + (name,), t2) for s, p, t in paths
                 for name, s2, t2 in q.arrows if s2 == t]
        rels += [Relation(q, [(1, s, p)]) for s, p, t in paths
                 if ell == length or draw(st.booleans())]
    return build_algebra(q, RelationSet(q, rels))


# -- modules ----------------------------------------------------------------


def validate(M: FDModule):
    """Raise ValueError unless the idempotents act as the vertex
    projections and the action is multiplicative."""
    alg = M.alg
    for i in range(alg.n):
        k = alg.unit_index[i]
        m = M.act[k]
        for r in range(M.total):
            for c in range(M.total):
                want = (ONE if (r == c and r in M.vertex_range(i + 1))
                        else ZERO)
                if m.data[r][c] != want:
                    raise ValueError(
                        f"idempotent e{i+1} does not act as the "
                        f"vertex projection")
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = M.act[i] @ M.act[j]
            rhs = Matrix.zero(M.total, M.total)
            for k, c in M.alg.table[i][j].items():
                rhs = rhs + M.act[k].scale(c)
            if lhs != rhs:
                raise ValueError(
                    f"action is not multiplicative at "
                    f"({alg.labels[i]},{alg.labels[j]})")


def check_intertwining(f: ModuleMap):
    """Raise ValueError unless f commutes with the action of every basis
    element of the algebra."""
    for k, (a, b) in enumerate(zip(f.source.act, f.target.act)):
        if f.mat @ a != b @ f.mat:
            raise ValueError(
                f"square for {f.source.alg.labels[k]} does not commute")


def zero_module(alg: Algebra) -> FDModule:
    return FDModule(alg, [0] * alg.n,
                    [Matrix.zero(0, 0) for _ in range(alg.dim)])


def kernel(f: ModuleMap):
    """Kernel of a module map: (FDModule, inclusion ModuleMap)."""
    return submodule(f.source, f.mat.kernel_basis())


def dense_hom_basis(M: FDModule, N: FDModule):
    """Basis of Hom(M, N) as ModuleMaps, solved for all N.total * M.total
    entries of a map, with the equations of the idempotents and arrows:
    the reference for hom_basis, which solves on the vertex blocks."""
    if M.alg is not N.alg and M.alg.dim != N.alg.dim:
        raise ValueError("modules over different algebras")
    tM, tN = M.total, N.total
    if tM == 0 or tN == 0:
        return []
    nunk = tN * tM

    def unk(r, c):
        return r * tM + c

    rows = []
    for k in M.alg.unit_index + [k for _, _, _, k in M.alg.arrows]:
        a, b = M.act[k], N.act[k]
        # F a - b F = 0
        for r in range(tN):
            for c in range(tM):
                row = [ZERO] * nunk
                for s in range(tM):
                    if a.data[s][c] != 0:
                        row[unk(r, s)] += a.data[s][c]
                for s in range(tN):
                    if b.data[r][s] != 0:
                        row[unk(s, c)] -= b.data[r][s]
                if any(x != 0 for x in row):
                    rows.append(row)
    sol = Matrix(len(rows), nunk, rows) if rows else Matrix.zero(0, nunk)
    return [ModuleMap(M, N, Matrix(tN, tM, [[v[unk(r, c)] for c in range(tM)]
                                            for r in range(tN)]))
            for v in sol.kernel_basis()]


def reference_hom_basis(M: FDModule, N: FDModule):
    """hom_basis as it was before the Algebra stores: the same block
    solve, run on every call."""
    if M.alg is not N.alg:
        raise ValueError("modules over different algebras")
    # F_v[r][c] is unknown base[v - 1] + r * M.dims[v - 1] + c
    base, nunk = [], 0
    for dm, dn in zip(M.dims, N.dims):
        base.append(nunk)
        nunk += dn * dm
    if nunk == 0:
        return []
    rows = []
    for _, s, t, k in M.alg.arrows:
        a, b = M.act[k].data, N.act[k].data
        ms, mt = M.vertex_range(s), M.vertex_range(t)
        ns = N.vertex_range(s)
        for r, nr in enumerate(N.vertex_range(t)):
            for c, mc in enumerate(ms):
                row = [ZERO] * nunk
                for j, mj in enumerate(mt):
                    row[base[t - 1] + r * len(mt) + j] += a[mj][mc]
                for i, ni in enumerate(ns):
                    row[base[s - 1] + i * len(ms) + c] -= b[nr][ni]
                if any(row):
                    rows.append(row)
    sol = Matrix(len(rows), nunk, rows) if rows else Matrix.zero(0, nunk)
    out = []
    for v in sol.kernel_basis():
        grid = [[ZERO] * M.total for _ in range(N.total)]
        for b0, dm, mo, no, dn in zip(base, M.dims, M.offsets, N.offsets,
                                      N.dims):
            for r in range(dn):
                grid[no + r][mo:mo + dm] = v[b0 + r * dm:b0 + (r + 1) * dm]
        out.append(ModuleMap(M, N, Matrix(N.total, M.total, grid)))
    return out


def reference_projectives_action(alg: Algebra, vertices):
    """(dims, act, keys) of the sum of the P(v) for v in vertices, with
    every action matrix, the e_v's too, read off alg.table: the module
    data sum_of_projectives built before it skipped the idempotents, and
    keys[c] = (target, summand, degree, word) of coordinate c."""
    keys = sorted((alg.btarget[k], s, alg.bdegree[k], k)
                  for s, v in enumerate(vertices)
                  for k in range(alg.dim) if alg.bsource[k] == v)
    pos = {(s, k): c for c, (_, s, _, k) in enumerate(keys)}
    dims = [0] * alg.n
    for t, _, _, _ in keys:
        dims[t - 1] += 1
    total = len(keys)
    act = []
    for row in alg.table:
        grid = [[ZERO] * total for _ in range(total)]
        for c, (_, s, _, k) in enumerate(keys):
            for m, x in row[k].items():
                grid[pos[s, m]][c] = x
        act.append(Matrix(total, total, grid))
    return dims, act, keys


def reference_sum_of_projectives(alg: Algebra, vertices):
    """sum_of_projectives as it was before the Algebra stores, with
    proj_gens a list of (coordinate of e_v, v, [(coordinate, word k)])."""
    vertices = list(vertices)
    dims, act, keys = reference_projectives_action(alg, vertices)
    pos = {(s, k): c for c, (_, s, _, k) in enumerate(keys)}
    out = FDModule(alg, dims, act)
    out.proj_gens = [(pos[s, alg.unit_index[v - 1]], v, [])
                     for s, v in enumerate(vertices)]
    for c, (_, s, _, k) in enumerate(keys):
        out.proj_gens[s][2].append((c, k))
    out.summands = vertices
    return out


# The module builders as they were before FDModule filled in the
# idempotent actions: each returns (dims, act) with every action matrix
# computed, the e_v's by the same products as the rest.


def reference_simple(alg: Algebra, i: int):
    dims = [0] * alg.n
    dims[i - 1] = 1
    return dims, [Matrix.identity(1) if k == alg.unit_index[i - 1]
                  else Matrix.zero(1, 1) for k in range(alg.dim)]


def reference_arrow_blocks(alg: Algebra, dims, arrow_mats):
    """_from_arrow_blocks: each path acts as the product of its arrow
    blocks, placed in the global matrix, and e_v as its vertex block."""
    dims = tuple(dims)
    by_arrow = {aname: place_block(dims, t, s, block)
                for (aname, s, t, k), block in zip(alg.arrows, arrow_mats)}
    act = []
    for k in range(alg.dim):
        source, names = alg.paths[k]
        if not names:
            block = Matrix.identity(dims[source - 1])
            act.append(place_block(dims, source, source, block))
        else:
            m = Matrix.identity(sum(dims))
            for aname in names:
                m = by_arrow[aname] @ m
            act.append(m)
    return dims, act


def reference_submodule(M: FDModule, vectors):
    """submodule: every action restricted to the span, closure checked."""
    span = Span(M.total, vectors)
    per_vertex = {i: [] for i in range(1, M.alg.n + 1)}
    for r, p in zip(span.rows, span.pivots):
        verts = {M.vertex_of_coord(c) for c, x in enumerate(r) if x != 0}
        if len(verts) > 1:
            raise ValueError("submodule vectors must be vertex-pure")
        per_vertex[verts.pop()].append((p, tuple(r)))
    basis = [pr for prs in per_vertex.values() for pr in prs]
    dims = [len(prs) for prs in per_vertex.values()]
    inc = (Matrix.from_columns([r for _, r in basis]) if basis
           else Matrix.zero(M.total, 0))
    act = []
    for a in M.act:
        image = a @ inc
        on_sub = Matrix(len(basis), len(basis),
                        [image.data[p] for p, _ in basis])
        if inc @ on_sub != image:
            raise ValueError("span is not closed under the action")
        act.append(on_sub)
    return dims, act


def reference_quotient(M: FDModule, vectors):
    """quotient: every action read through the projection and section."""
    comp, pmat, _ = Span(M.total, vectors).complement(key=M.vertex_of_coord)
    dims = [0] * M.alg.n
    for c in comp:
        dims[M.vertex_of_coord(c) - 1] += 1
    act = ([pmat @ Matrix(M.total, len(comp), [[r[c] for c in comp]
                                               for r in a.data])
            for a in M.act] if comp
           else [Matrix.zero(0, 0)] * len(M.act))
    return dims, act


def reference_right_tensor(basis, X: FDModule):
    """TensorModule(basis, X): every k of basis.alg, the e_v's too, acting
    by rho(k.t (x) x) on the coordinates (t, x)."""
    block = basis.block
    chosen = [(t, x) for t in basis.top for x in X.vertex_range(block[t][1])]
    dims = [sum(block[t][0] == i for t, _ in chosen)
            for i in range(1, basis.alg.n + 1)]
    cols = [a.nonzero_columns() for a in X.act]
    act = []
    for lc in basis.lcols:
        images = [basis.rho([((), u, x, c) for u, c in lc[t]], cols)
                  for t, x in chosen]
        act.append(Matrix(len(chosen), len(chosen),
                          [[col.get(key, ZERO) for col in images]
                           for key in chosen]))
    return dims, act


def reference_syzygies(M: FDModule, depth: int):
    """syzygies as it was before the Algebra stores: each step builds the
    quotient M / rad M for the top, a cover from its section, and the
    kernel of the cover."""
    out = []
    for _ in range(depth):
        q, _, sect = quotient(M, radical_vectors(M))
        vertices = [v for v in range(1, M.alg.n + 1)
                    for _ in range(q.dims[v - 1])]
        P = reference_sum_of_projectives(M.alg, vertices)
        cover = from_generators(P, M, dict(enumerate(sect.columns())))
        if cover.mat.rank() != M.total:
            raise ValueError("projective cover construction failed to "
                             "surject")
        M, inc = kernel(cover)
        out.append((cover, M, inc))
    return out


def from_arrow_matrices(alg: Algebra, dims, arrow_mats):
    """Build a module from one (target-dim x source-dim) block per arrow.

    Only valid for quiver-presented algebras whose basis elements carry
    paths.  The action of a longer word is the composition of its arrow
    blocks; the relations are checked by FDModule construction plus an
    explicit validate().
    """
    mod = _from_arrow_blocks(alg, dims, arrow_mats)
    validate(mod)
    return mod


def direct_sum(modules):
    if not modules:
        raise ValueError("empty direct sum")
    alg = modules[0].alg
    dims = [sum(m.dims[i] for m in modules) for i in range(alg.n)]
    total = sum(dims)
    offsets = []
    off = 0
    for d in dims:
        offsets.append(off)
        off += d
    # coordinate in the sum of each coordinate of each summand
    embeds = []
    cursor = [0] * alg.n
    for m in modules:
        emb = []
        for i in range(alg.n):
            for c in range(m.dims[i]):
                emb.append(offsets[i] + cursor[i] + c)
            cursor[i] += m.dims[i]
        embeds.append(emb)

    act = []
    for k in range(alg.dim):
        grid = [[ZERO] * total for _ in range(total)]
        for m, emb in zip(modules, embeds):
            a = m.act[k]
            for r in range(m.total):
                for c in range(m.total):
                    if a.data[r][c] != 0:
                        grid[emb[r]][emb[c]] = a.data[r][c]
        act.append(Matrix(total, total, grid))
    return FDModule(alg, dims, act)


def radical_hom_basis(M: FDModule, N: FDModule):
    """Basis of the perp of the trace pairing with Hom(N, M) inside
    Hom(M, N); over the rationals this is exactly the radical of the hom
    space (non-isomorphism part)."""
    basis = hom_basis(M, N)
    back = hom_basis(N, M)
    if not basis or not back:
        return basis
    out = []
    for kv in _trace_pairing(basis, back).kernel_basis():
        acc = Matrix.zero(N.total, M.total)
        for c, f in zip(kv, basis):
            if c != 0:
                acc = acc + f.mat.scale(c)
        out.append(ModuleMap(M, N, acc))
    return out


# -- the tensor kernel over K ------------------------------------------------


def outer(u, v) -> tuple:
    """u (x) v flattened: the pair (i, j) sits at index i * len(v) + j."""
    n = len(v)
    out = [ZERO] * (len(u) * n)
    nz = [(j, b) for j, b in enumerate(v) if b != 0]
    for i, a in enumerate(u):
        if a != 0:
            for j, b in nz:
                out[i * n + j] = a * b
    return tuple(out)


def kron_apply(L: Matrix, R: Matrix, vec) -> tuple:
    """(L (x) R) vec, with vec and the result in the layout of outer."""
    if len(vec) != L.cols * R.cols:
        raise ValueError("vector length mismatch")
    lcols, rcols = L.nonzero_columns(), R.nonzero_columns()
    n = R.rows
    out = [ZERO] * (L.rows * n)
    for idx, c in enumerate(vec):
        if c != 0:
            k, l = divmod(idx, R.cols)
            for i, a in lcols[k]:
                ca = c * a
                for j, b in rcols[l]:
                    out[i * n + j] += ca * b
    return tuple(out)


def pair_vector(terms, wdim: int) -> list:
    """sum c w1 (x) w2 over the terms (w1, w2, c), in the layout of
    outer."""
    vec = [ZERO] * (wdim * wdim)
    for w1, w2, c in terms:
        vec[w1 * wdim + w2] += c
    return vec


def balanced_relations(right: Sequence[Matrix],
                       left: Sequence[Matrix]) -> list:
    """Vectors spanning the relations m.b (x) n - m (x) b.n of M (x)_B N.

    right[k] acts by the k-th basis element of B on M from the right and
    left[k] on N from the left.  The vectors are the nonzero columns of
    right[k] (x) I - I (x) left[k] over all k, the pair (m, n) at index
    m * dim N + n.  They give dim M (x)_B N independently of any basis of
    M over B, the reference for the counts read off a right basis
    (bocs.RightBasis): a dense vector per pair (m, n) and basis element,
    so it is for small M and N only.
    """
    rels = []
    for Rk, Lk in zip(right, left):
        m, n = Rk.cols, Lk.cols
        rcols, lcols = Rk.nonzero_columns(), Lk.nonzero_columns()
        for a in range(m):
            for x in range(n):
                v = [ZERO] * (m * n)
                for y, c in rcols[a]:
                    v[y * n + x] += c
                for y, c in lcols[x]:
                    v[a * n + y] -= c
                if any(v):
                    rels.append(v)
    return rels


def dense_counit_identities(bocs: Bocs):
    """counit_identities through dense l_W on B (x) W and r_W on W (x) B,
    in the layout of outer, applied by kron_apply to mu in the layout of
    its document."""
    wdim = bocs.w_dim
    eye = Matrix.identity(wdim)
    l_w = Matrix.from_columns([m.column(x) for m in bocs.WL
                               for x in range(wdim)])
    r_w = Matrix.from_columns([m.column(x) for x in range(wdim)
                               for m in bocs.WR])
    out = []
    for w, col in enumerate(mu_to_matrix(bocs.mu).columns()):
        unit = eye.column(w)
        out.append((l_w.apply(kron_apply(bocs.eps, eye, col)) == unit,
                    r_w.apply(kron_apply(eye, bocs.eps, col)) == unit))
    return out


# -- bocses -----------------------------------------------------------------


def bocs_identity(bocs: Bocs, X: FDModule) -> ModuleMap:
    """The identity morphism on X, through the counit."""
    return bocs_lift(bocs, ModuleMap(X, X, Matrix.identity(X.total)))


def pair_layout(bocs: Bocs, tx: TensorModule):
    """The pairs (w, x) of W (x) X for tx = W (x)_B X, in the order of
    proj, rho on them (which pair_image sets on tx), their index, and
    sect, the 0/1 selection of the chosen pairs."""
    if tx.proj is None:
        pair_image(bocs, ModuleMap(tx, tx, Matrix.identity(tx.total)))
    pairs = [(w, x) for w in range(bocs.w_dim) for x in range(tx.X.total)]
    index = {p: k for k, p in enumerate(pairs)}
    sect = Matrix(len(pairs), tx.total,
                  [[ONE if p == c else ZERO for c in tx.chosen]
                   for p in pairs])
    return SimpleNamespace(pairs=pairs, index=index, proj=tx.proj,
                           sect=sect)


def reference_bocs_compose(bocs: Bocs, g: ModuleMap,
                           f: ModuleMap) -> ModuleMap:
    """g after f in the bocs module category, through mu.

    With f and g read on pairs (through proj), the pair (w, x) goes to

        sum over mu(w) = sum c w1 (x) w2, and over the nonzero entries
        f(w2 (x) x) = sum a y, of c a g(w1 (x) y),

    and the result is read back on W (x)_B X through sect (pair_layout).
    Only nonzero terms of mu and nonzero entries of f and g are visited.
    """
    tx, ty = _hom_source(bocs, f), _hom_source(bocs, g)
    px, py = pair_layout(bocs, tx), pair_layout(bocs, ty)
    fcols = (f.mat @ px.proj).nonzero_columns()
    gcols = (g.mat @ py.proj).nonzero_columns()
    rows = g.target.total
    big = [[ZERO] * len(px.pairs) for _ in range(rows)]
    for k, (w, x) in enumerate(px.pairs):
        for w1, w2, c in bocs.mu[w]:
            for y, a in fcols[px.index[(w2, x)]]:
                ca = c * a
                for z, b in gcols[py.index[(w1, y)]]:
                    big[z][k] += ca * b
    return ModuleMap(tx, g.target, Matrix(rows, len(px.pairs), big) @ px.sect)


def reference_tensor_module(bocs: Bocs, X: FDModule) -> FDModule:
    """W (x)_B X as the quotient of the pair space W (x) X, its pairs
    ordered by the left vertex of w, by the balanced relations: the
    reference for TensorModule, which reads it off the right basis."""
    B, wdim = bocs.B, bocs.w_dim
    pairs = sorted(((w, x) for w in range(wdim) for x in range(X.total)),
                   key=lambda p: (bocs.w_block[p[0]][0], p[0], p[1]))
    index = {p: k for k, p in enumerate(pairs)}
    dims = [0] * B.n
    for (w, x) in pairs:
        dims[bocs.w_block[w][0] - 1] += 1
    act = []
    for k in range(B.dim):
        cols = []
        for (w, x) in pairs:
            col = [ZERO] * len(pairs)
            for y, c in enumerate(bocs.WL[k].column(w)):
                if c != 0:
                    col[index[(y, x)]] = c
            cols.append(col)
        act.append(Matrix.from_columns(cols))
    # the relations in the layout of outer, read at the sorted pairs
    layout = [w * X.total + x for (w, x) in pairs]
    relvecs = [[v[p] for p in layout]
               for v in balanced_relations(bocs.WR, X.act)]
    return quotient(FDModule(B, dims, act), relvecs)[0]


def module_from_action(alg: Algebra, dim: int, raw_act):
    """FDModule from action matrices on an ungrouped coordinate space.

    raw_act[k] is the action of algebra basis element k.  Returns the
    module together with the coordinate changes to_new (raw to module)
    and to_old (module to raw).  The module's basis at vertex i is the
    reduced echelon basis of the image of E_i, the action of e_i, so the
    coordinates of x on it are the entries of E_i x at its pivots.
    """
    if dim == 0:
        return zero_module(alg), Matrix.zero(0, 0), Matrix.zero(0, 0)
    old_cols, new_rows, dims = [], [], []
    for i in range(1, alg.n + 1):
        E = raw_act[alg.unit_index[i - 1]]
        image = Span(dim, E.columns())
        dims.append(len(image))
        old_cols.extend(image.rows)
        new_rows.extend(E.data[p] for p in image.pivots)
    if sum(dims) != dim:
        raise ValueError("idempotent images do not decompose the space")
    to_old = Matrix.from_columns(old_cols)
    to_new = Matrix(dim, dim, new_rows)
    if to_new @ to_old != Matrix.identity(dim):
        raise ValueError("idempotent images do not decompose the space")
    acts = [to_new @ raw_act[k] @ to_old for k in range(alg.dim)]
    return FDModule(alg, dims, acts), to_new, to_old


# R (x)_B X realized on the basis of Hom_bocs(B, X) and its MapSpace, the
# pair images of that basis, and the coordinate changes between the two
HomInduced = namedtuple("HomInduced",
                        "module basis space images to_new to_old")


class HomInduction:
    """Induction to R-modules through the corepresentable functor
    Hom_bocs(B, -), functorial by construction: the reference for induce
    and induce_map, which read R (x)_B X off the right basis of R.

    R is End_bocs(B) opposed, so its basis element r acts on Hom(B, X)
    by precomposition with the map of r, whose pair images are formed
    once here; the raw action is regrouped by the idempotent images
    (module_from_action).
    """

    def __init__(self, ralg):
        bocs, R, XB = ralg.bocs, ralg.R, ralg.XB
        self.ralg = ralg
        self.tB = tensor_module(bocs, XB)
        space = MapSpace([h.mat for h in ralg.basis], XB.total,
                         self.tB.total)
        self.element_images = [
            pair_image(bocs, ModuleMap(self.tB, XB, space.combine(
                R.new_to_old.apply(R.basis_vec(k)))))
            for k in range(R.dim)]

    def induce(self, X: FDModule) -> HomInduced:
        bocs = self.ralg.bocs
        basis = bocs_hom_basis(bocs, self.ralg.XB, X)
        space = MapSpace([h.mat for h in basis], X.total, self.tB.total)
        images = [pair_image(bocs, h) for h in basis]
        raw_act = [Matrix.from_columns(
            [space.coords(bocs_compose(bocs, h, rimg).mat) for h in images])
            for rimg in self.element_images]
        module, to_new, to_old = module_from_action(self.ralg.R, len(basis),
                                                    raw_act)
        return HomInduced(module, basis, space, images, to_new, to_old)

    def induce_bocs_map(self, f: ModuleMap, FM: HomInduced,
                        FN: HomInduced, compose=bocs_compose) -> ModuleMap:
        """Image of a bocs morphism under induction (post-composition),
        composed by compose."""
        bocs = self.ralg.bocs
        cols = [FN.space.coords(compose(bocs, f, h).mat) for h in FM.basis]
        raw = Matrix.from_columns(cols) if cols else \
            Matrix.zero(len(FN.basis), 0)
        return ModuleMap(FM.module, FN.module, FN.to_new @ raw @ FM.to_old)

    def induce_map(self, u: ModuleMap, FM: HomInduced,
                   FN: HomInduced, compose=bocs_compose) -> ModuleMap:
        """Image of a plain B-module map under induction."""
        return self.induce_bocs_map(bocs_lift(self.ralg.bocs, u), FM, FN,
                                    compose)


def reference_validate_coalgebra(bocs: Bocs):
    """validate_coalgebra with W (x)_B W and (W (x)_B W) (x)_B W presented
    as quotients by the balanced relations, the reference for the right
    basis presentation; its dict has no "right-free" entry.  It reads
    well-definedness and the grouplikes through the dense word layer
    (dense_word, dense_w_parts, dense_eps_u1)."""
    B = bocs.B
    report = {}

    def record(axiom, ok, where):
        if report.setdefault(axiom, None) is None and not ok:
            report[axiom] = where

    wdim = bocs.w_dim
    mu = mu_to_matrix(bocs.mu)
    eye = Matrix.identity(wdim)
    _, ww_proj, ww_sect = Span(
        wdim * wdim, balanced_relations(bocs.WR, bocs.WL)).complement()
    for w, (left, right) in enumerate(dense_counit_identities(bocs)):
        record("counit-left", left, f"w{w}")
        record("counit-right", right, f"w{w}")

    # coassociativity in (W (x)_B W) (x)_B W.  ww_proj (x) 1 kills
    # rel (x) W and takes W (x) rel onto the balanced relations of the
    # right action on W (x)_B W against the left action on W.  It takes
    # (1 (x) mu)(w1 (x) w2) to (P_w1 (x) 1) mu(w2), where P_w1 maps u to
    # ww_proj(w1 (x) u).
    right = [Matrix.from_columns([ww_proj.apply(kron_apply(eye, r, s))
                                  for s in ww_sect.columns()])
             for r in bocs.WR]
    triple = Span(ww_proj.rows * wdim, balanced_relations(right, bocs.WL))
    p_w = [Matrix(ww_proj.rows, wdim,
                  [row[w1 * wdim:(w1 + 1) * wdim] for row in ww_proj.data])
           for w1 in range(wdim)]
    mu_ww = ww_proj @ mu
    for w, terms in enumerate(bocs.mu):
        diff = [-a for a in kron_apply(mu_ww, eye, mu.column(w))]
        for w1, w2, c in terms:
            diff = [a + c * b for a, b in zip(
                diff, kron_apply(p_w[w1], eye, mu.column(w2)))]
        record("coassociativity", diff in triple, f"w{w}")

    for k in range(B.dim):
        for w in range(wdim):
            ev = bocs.eps.column(w)
            lhs = bocs.eps.apply(bocs.WL[k].column(w))
            ok = tuple(lhs) == tuple(B.multiply(B.basis_vec(k), ev))
            record("bilinearity", ok, f"eps-left-{B.labels[k]}-w{w}")
            lhs = bocs.eps.apply(bocs.WR[k].column(w))
            ok = tuple(lhs) == tuple(B.multiply(ev, B.basis_vec(k)))
            record("bilinearity", ok, f"eps-right-{B.labels[k]}-w{w}")
        for w in range(wdim):
            col = mu.column(w)
            diff = [a - b for a, b in zip(mu.apply(bocs.WL[k].column(w)),
                                          kron_apply(bocs.WL[k], eye, col))]
            record("bilinearity", vec_is_zero(ww_proj.apply(diff)),
                   f"mu-left-{B.labels[k]}-w{w}")
            diff = [a - b for a, b in zip(mu.apply(bocs.WR[k].column(w)),
                                          kron_apply(eye, bocs.WR[k], col))]
            record("bilinearity", vec_is_zero(ww_proj.apply(diff)),
                   f"mu-right-{B.labels[k]}-w{w}")

    record("surjectivity", bocs.eps.rank() == B.dim, "eps")
    eps_u1 = dense_eps_u1(bocs)
    w_proj, _ = dense_w_parts(bocs)
    for idx, row in enumerate(bocs.sub_span.rows):
        ok = vec_is_zero(eps_u1.apply(row))
        record("well-definedness", ok, f"eps-sub{idx}")
        ok = vec_is_zero(ww_proj.apply(
            pair_vector(bocs._dprime_terms(nonzeros(row)), wdim)))
        record("well-definedness", ok, f"mu-sub{idx}")
    for i in range(1, B.n + 1):
        e = B.idempotent(i)
        wvec = w_proj.apply(dense_word(bocs, e, bocs.duals.omega_index(i), e))
        diff = [a - b for a, b in zip(mu.apply(wvec), outer(wvec, wvec))]
        record("grouplike", vec_is_zero(ww_proj.apply(diff)), f"omega{i}")
    return report


def cube_coassociativity(bocs: Bocs):
    """The first W basis element at which coassociativity fails, or None:
    the reference for validate_coalgebra, which checks it in
    (W (x)_B W) (x)_B W.  This check spans the relations of
    W (x)_B W (x)_B W inside the K-tensor cube W (x) W (x) W."""
    wdim = bocs.w_dim
    mu = mu_to_matrix(bocs.mu)
    eye = Matrix.identity(wdim)
    ww_span = Span(wdim * wdim, balanced_relations(bocs.WR, bocs.WL))
    # coassociativity in W (x)_B W (x)_B W, whose relations are those of
    # W (x)_B W tensored with W on either side
    units = eye.columns()
    span3 = Span(wdim ** 3,
                 [outer(r, e) for r in ww_span.rows for e in units]
                 + [outer(e, r) for e in units for r in ww_span.rows])
    for w in range(wdim):
        col = mu.column(w)
        diff = [a - b for a, b in zip(kron_apply(eye, mu, col),
                                      kron_apply(mu, eye, col))]
        if diff not in span3:
            return f"w{w}"
    return None


def dense_check_associativity(alg: Algebra):
    """Algebra.check_associativity as a dense loop over every basis
    triple, multiplying whole coefficient vectors."""
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                lhs = alg.multiply(alg.multiply(alg.basis_vec(i),
                                                alg.basis_vec(j)),
                                   alg.basis_vec(k))
                rhs = alg.multiply(alg.basis_vec(i),
                                   alg.multiply(alg.basis_vec(j),
                                                alg.basis_vec(k)))
                if lhs != rhs:
                    raise ValueError(
                        f"structure constants not associative at "
                        f"({alg.labels[i]},{alg.labels[j]},{alg.labels[k]})")


def dense_trace_form(table) -> Matrix:
    """The trace form tr(L_a L_b) summed over every ordered pair (a, b),
    each reading all of L_a again: the reference for
    quiver._trace_form."""
    dim = len(table)
    return Matrix(dim, dim, [
        [sum((c * table[b][j].get(k, ZERO)
              for k in range(dim) for j, c in table[a][k].items()), ZERO)
         for b in range(dim)] for a in range(dim)])


def auslander(n: int) -> Algebra:
    """The Auslander algebra of K[x]/(x^n), of dimension sum min(i, j)
    over 1 <= i, j <= n: arrows a_i: i -> i+1 and b_i: i+1 -> i, with
    a1 b1 = 0 and b_{i-1} a_{i-1} = a_i b_i.  It is quasi-hereditary for
    the order [n, ..., 1]."""
    arrows = []
    for i in range(1, n):
        arrows += [(f"a{i}", i, i + 1), (f"b{i}", i + 1, i)]
    q = Quiver(n, arrows)
    rels = [Relation(q, [(1, 1, ("a1", "b1"))])]
    rels += [Relation(q, [(1, i, (f"b{i-1}", f"a{i-1}")),
                          (-1, i, (f"a{i}", f"b{i}"))])
             for i in range(2, n)]
    return build_algebra(q, RelationSet(q, rels), length_bound=2 * n + 2)


# -- resolutions ------------------------------------------------------------


def radical_criterion(f: GradedMap) -> bool:
    """Bottom-component test: True when f^(k) lands in the radical.

    For chain maps of degree k >= 1 between resolutions of a properly
    standard module this decides null-homotopy.
    """
    if f.k < 1:
        raise ValueError("radical criterion needs degree at least 1")
    bottom = f.component(f.lo)
    p0 = f.tgt.P(0)
    _, proj, _ = quotient(p0, radical_vectors(p0))
    return (proj.mat @ bottom.mat).is_zero()


def is_null_homotopic(f: GradedMap):
    """(flag, witness): solve f = d(u) over the stored range.

    The witness u has degree k - 1.  For degree >= 1 chain maps on a
    properly standard resolution the answer is checked against the
    radical criterion.
    """
    k = f.k
    src, tgt = f.src, f.tgt
    levels = range(max(k - 1, 0), src.N_max + 1)
    spaces = [_hom_space(src, l, tgt.P(l - k + 1)) for l in levels]
    cols = [_flatten_graded(differential(GradedMap(src, tgt, k - 1, {l: h})),
                            f.hi)
            for l, (basis, _) in zip(levels, spaces) for h in basis]
    rhs = _flatten_graded(f, f.hi)
    mat = (Matrix.from_columns(cols) if cols
           else Matrix.zero(len(rhs), 0))
    sol = mat.solve(rhs)
    answer = sol is not None

    if src is tgt and src.pdelta and k >= 1 and f.hi == src.N_max \
            and differential(f).is_zero():
        if radical_criterion(f) != answer:
            raise AssertionError(
                "homotopy system disagrees with the radical criterion")
    if not answer:
        return False, None
    coeffs = iter(sol)
    comps = {l: ModuleMap(src.P(l), tgt.P(l - k + 1),
                          space.combine([next(coeffs) for _ in basis]))
             for l, (basis, space) in zip(levels, spaces)}
    return True, GradedMap(src, tgt, k - 1, comps)


def ext_dim(rsys: ResolvedSystem, i: int, j: int, k: int) -> int:
    return len(ext_basis(rsys, i, j, k))


def quotient_by_idempotents(alg: Algebra, vertices):
    """(A / AeA, old-to-new vertex map) for e the sum over the vertices."""
    removed = set(vertices)
    kept = [j for j in range(1, alg.n + 1) if j not in removed]
    if not kept:
        raise ValueError("cannot remove every vertex")
    # AeA is spanned by the products b * c of basis elements with c in eA
    ideal = [[alg.table[b][c].get(k, ZERO) for k in range(alg.dim)]
             for c in range(alg.dim) if alg.btarget[c] in removed
             for b in range(alg.dim)]
    _, proj, sect = Span(alg.dim, ideal).complement()
    cols = sect.columns()
    table = [[nonzeros(proj.apply(alg.multiply(u, v))) for v in cols]
             for u in cols]
    idempotents = [proj.apply(alg.idempotent(j)) for j in kept]
    quo = from_structure_constants(len(kept), table, idempotents)
    return quo, {j: p + 1 for p, j in enumerate(kept)}


def reduction_check(alg: Algebra, order, i: int):
    """Compare dim Ext^k(pD(i), pD(i)), k <= 2, over A and A/AeA.

    e is the idempotent sum over the vertices above i in the order; the
    dimensions are expected to agree.
    """
    order = _normalize_order(alg, order)
    rank = {v: p for p, v in enumerate(order)}
    removed = [j for j in range(1, alg.n + 1) if rank[j] > rank[i]]

    sysA = standard_modules(alg, order, mode="pdelta")
    rsA = ResolvedSystem(sysA)
    dims_A = [ext_dim(rsA, i, i, k) for k in range(3)]

    if removed:
        quo, vmap = quotient_by_idempotents(alg, removed)
        new_order = [vmap[j] for j in order if j in vmap]
        new_i = vmap[i]
    else:
        quo, new_order, new_i = alg, order, i
    sysQ = standard_modules(quo, new_order, mode="pdelta")
    rsQ = ResolvedSystem(sysQ)
    dims_Q = [ext_dim(rsQ, new_i, new_i, k) for k in range(3)]

    return {"vertex": i,
            "removed": removed,
            "dims_A": dims_A,
            "dims_Aprime": dims_Q,
            "equal": dims_A == dims_Q}


# -- A-infinity tables ------------------------------------------------------


def _reference_tabulated(key):
    """The range test of the table before it grew only the tabulated
    tuples, on the degree sum."""
    r = len(key)
    if r < 2:
        return False
    counts = [0, 0, 0]
    for c in key:
        counts[c.k] += 1
    degsum = counts[1] + 2 * counts[2]
    if degsum - r > 0 or not (0 <= degsum + 2 - r <= 2):
        return False
    return counts[0] <= 2 and counts[2] <= 1


def reference_tabulated_keys(table: AInfTable):
    """The keys of m_table as the table enumerated them before it grew
    only the tabulated tuples: every composable tuple of 2..r_max classes
    in _chains order, filtered through the range test."""
    return [key for r in range(2, table.r_max + 1)
            for key in _chains(table, r, (0, 1, 2))
            if _reference_tabulated(key)]


def _add_into(acc, coeffs, scalar):
    """acc += scalar * coeffs on sparse dicts, dropping the entries that
    reach zero: the reference check's own sum, kept apart from the
    package's."""
    for cls, c in coeffs.items():
        acc[cls] = acc.get(cls, ZERO) + scalar * c
        if acc[cls] == 0:
            del acc[cls]


def reference_stasheff_sum(table: AInfTable, key) -> dict:
    """The Stasheff sum of one chain, as reference_stasheff_check forms
    it: bprime on every (left, t) slice, as sparse coefficients."""
    acc = {}
    for left in range(0, len(key)):
        for t in range(1, len(key) - left + 1):
            mid = key[left:left + t]
            right = key[left + t:]
            inner = table.bprime(mid)
            if not inner:
                continue
            koszul = sum(c.k - 1 for c in key[:left])
            sign = -1 if koszul % 2 == 1 else 1
            for cls, c in inner.items():
                new_key = key[:left] + (cls,) + right
                outer = table.bprime(new_key)
                if outer:
                    _add_into(acc, outer, sign * c)
    return acc


def reference_stasheff_check(table: AInfTable, k: int) -> bool:
    """stasheff_check as it was before it read the inner values off
    bp_table: bprime on every (left, t) slice of every chain."""
    if k > table.r_max:
        raise ValueError("k exceeds r_max")
    return not any(reference_stasheff_sum(table, key)
                   for key in _chains(table, k, (0, 1)))


def dense_vector(u: dict, dim: int) -> tuple:
    """The dense vector of length dim of the sparse terms {k: a} of u."""
    return tuple(u.get(k, ZERO) for k in range(dim))


def dense_word(bocs: Bocs, b, g, c) -> tuple:
    """The word b.g.c of the generator g between the B elements b and c as
    a dense vector on bocs.u1_basis, as Bocs._word built it before words
    were held as their terms.  As g = e_j g e_i, only the parts of b in
    B e_j and of c in e_i B survive."""
    vec = [ZERO] * bocs.u1_dim
    cs = [(p1, y) for p1, y in enumerate(c) if y != 0]
    for p2, x in enumerate(b):
        if x != 0:
            for p1, y in cs:
                k = bocs.u1_index.get((p2, g, p1))
                if k is not None:
                    vec[k] += x * y
    return tuple(vec)


def dense_w_parts(bocs: Bocs):
    """(w_proj, w_sect): the dense projection of the degree-1 words onto W
    and the section of W into them, which the bocs held before it kept
    only the sparse columns of the projection."""
    _, w_proj, w_sect = bocs.sub_span.complement()
    return w_proj, w_sect


def dense_eps_u1(bocs: Bocs) -> Matrix:
    """The B.dim x u1_dim matrix of eps on the degree-1 words: the word
    p2.omega.p1 of a grouplike goes to p2.p1 and every other word to
    zero, as the bocs held it before Bocs._eps_word."""
    B = bocs.B
    cols = [list(B.multiply(B.basis_vec(p2), B.basis_vec(p1)))
            if bocs.duals.q1[gi][2] else [ZERO] * B.dim
            for p2, gi, p1 in bocs.u1_basis]
    return Matrix.from_columns(cols) if cols else Matrix.zero(B.dim, 0)


def reference_sandwich(bocs: Bocs, b, u, c) -> tuple:
    """Bocs._sandwich on a dense word vector u as it was before it summed
    over the nonzeros: one dense word per index of u, added into a rebuilt
    vector."""
    B = bocs.B
    out = [ZERO] * bocs.u1_dim
    for idx, x in enumerate(u):
        if x != 0:
            p2, g, p1 = bocs.u1_basis[idx]
            word = dense_word(bocs, B.multiply(b, B.basis_vec(p2)), g,
                              B.multiply(B.basis_vec(p1), c))
            out = [a + x * y for a, y in zip(out, word)]
    return tuple(out)


def reference_dprime_path(bocs: Bocs, k: int) -> tuple:
    """Bocs._dprime_path as it was before the sparse sandwich: d' of the
    basis path k of B as a dense vector, one rebuilt vector per arrow of
    the path."""
    B = bocs.B
    source, names = B.paths[k]
    vec = [ZERO] * bocs.u1_dim
    suffix = B.idempotent(source)
    for t, name in enumerate(names):
        pre = _path_vec(B, bocs.arrow_idx,
                        B.quiver.arrow_target(name), names[t + 1:])
        mid = reference_sandwich(
            bocs, pre, dense_vector(bocs.dprime_arrow[name], bocs.u1_dim),
            suffix)
        vec = [a + b for a, b in zip(vec, mid)]
        suffix = B.multiply(B.basis_vec(bocs.arrow_idx[name]), suffix)
    return tuple(vec)


def dense_projection_parts(bocs: Bocs):
    """(WL, WR, mu) of a bocs built from words: each dense sandwich of a
    section word and each word of d' projected onto W by the dense product
    w_proj.apply, as Bocs._build_w and Bocs._dprime_terms did before the
    sparse columns."""
    B = bocs.B
    basis = [B.basis_vec(k) for k in range(B.dim)]
    w_proj, w_sect = dense_w_parts(bocs)
    words, unit = w_sect.columns(), B.unit()
    WL = [Matrix.from_columns([
        w_proj.apply(reference_sandwich(bocs, b, u, unit)) for u in words])
        for b in basis]
    WR = [Matrix.from_columns([
        w_proj.apply(reference_sandwich(bocs, unit, u, c)) for u in words])
        for c in basis]
    dense = copy.copy(bocs)
    dense._project = lambda u: nonzeros(
        w_proj.apply(dense_vector(u, bocs.u1_dim)))
    return WL, WR, [dense._dprime_terms(nonzeros(u)) for u in words]


def reference_indecomposables(alg: Algebra, bound: int):
    """pipeline.indecomposables_up_to as it was before the local
    candidates P(i) / rad^b P(i) skipped End: every candidate through
    _is_indecomposable."""
    loewy = max(alg.bdegree) + 1
    found = []
    for i in range(1, alg.n + 1):
        P = projective(alg, i)
        for b in range(1, loewy + 1):
            Q, proj, _ = quotient(P, radical_vectors(P, b))
            for a in range(0, b):
                if a == 0:
                    cand = Q
                else:
                    vecs = [tuple(proj.mat.apply(v))
                            for v in radical_vectors(P, a)]
                    cand, _ = submodule(Q, vecs)
                if cand.total == 0 or cand.total > bound:
                    continue
                if not _is_indecomposable(cand):
                    continue
                if any(is_isomorphic(cand, other) for other in found):
                    continue
                found.append(cand)
    found.sort(key=lambda M: (M.total, M.dims))
    return found


def reference_random_corpus(seed: int, count: int = 20,
                            max_vertices: int = 3, max_dim: int = 8,
                            mode: str = "pdelta", max_attempts: int = 4000,
                            require_bocs: bool = True, r_max: int = 3):
    """random_corpus as it was before it counted the dimension ahead of
    the build and rejected duplicates ahead of the classification: every
    candidate is built, and every one of admissible dimension classified
    before its signature is looked up."""
    rng = random.Random(seed)
    out = []
    seen = set()
    for _ in range(max_attempts):
        if len(out) >= count:
            break
        quiver = _random_quiver(rng, max_vertices)
        relations = []
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


def reference_check_embedding(B: Algebra, R: Algebra, emb: Matrix):
    """RightAlgebra._check_embedding as it was on the dense matrix emb of
    the embedding B -> R, applying emb to every product of B."""
    if emb.rank() != B.dim:
        raise AssertionError("embedding is not injective")
    unit = [ZERO] * R.dim
    for i in range(1, B.n + 1):
        iv = emb.apply(B.idempotent(i))
        unit = [a + b for a, b in zip(unit, iv)]
    if tuple(unit) != tuple(R.unit()):
        raise AssertionError("embedding is not unital")
    for u in range(B.dim):
        for v in range(B.dim):
            lhs = emb.apply(B.multiply(B.basis_vec(u), B.basis_vec(v)))
            rhs = R.multiply(emb.apply(B.basis_vec(u)),
                             emb.apply(B.basis_vec(v)))
            if tuple(lhs) != tuple(rhs):
                raise AssertionError("embedding is not multiplicative")
