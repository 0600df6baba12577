"""Finite-dimensional left modules over an Algebra, and their maps.

A module is a representation of the algebra's quiver: its coordinates
are grouped by vertex (all vertex-1 coordinates first, then vertex 2, and
so on), and it stores one square matrix per basis element of the
algebra.  The vertex idempotent e_v acts as the projection onto vertex
v's coordinates, which the dimension vector fixes, so those matrices are
never computed: each is one shared projection per (dims, v), kept in the
store alg.vertex_projections, and the builders compute the radical
actions alone.  Module maps are global matrices that are block diagonal
with respect to the grouping, since they commute with the idempotent
actions; hom_basis solves for the entries of those vertex blocks alone,
and an arrow s -> t constrains only the (t, s) block.

Three results are computed once per algebra and kept in stores on the
Algebra the modules are over: each sum of projectives (keyed on its
vertex tuple), each step of a syzygy walk (the projective cover of a
module and its kernel) and each hom_basis solve (keyed on the contents
of M and N).  A module is keyed on its content, the dims and the radical
actions (the dims fix the rest), never on the FDModule, and a stored
value is plain data: Matrix objects, dims, the vertex tuple and
proj_gens.  So no stored value refers back to the algebra, and an
algebra with its stores is freed by reference counting alone.  The
public functions wrap the stored data in fresh FDModule and ModuleMap
objects around the caller's own modules.
"""

from __future__ import annotations

from .linalg import ONE, Matrix, Span, ZERO
from .quiver import Algebra


class FDModule:
    """A module is its content: modules with the same Algebra object, dims
    and action matrices are equal, and every module memo keys on that.
    Nothing mutates a module; attributes set later are read by no memo.

    act holds a matrix per algebra basis element.  At each e_v it may
    hold None, and FDModule puts the shared projection onto vertex v's
    coordinates there; any other matrix there that is not that projection
    is refused.  The key is the dims and the radical actions, which fix
    the idempotent ones."""

    def __init__(self, alg: Algebra, dims, act):
        self.alg = alg
        self.dims = tuple(dims)
        if len(self.dims) != alg.n:
            raise ValueError("dimension vector length mismatch")
        self.total = sum(self.dims)
        self.offsets = []
        off = 0
        for d in self.dims:
            self.offsets.append(off)
            off += d
        act = list(act)
        if len(act) != alg.dim:
            raise ValueError("need an action matrix per algebra basis element")
        projs = _stored(alg.vertex_projections, self.dims,
                        _vertex_projections, self.dims)
        for v, (k, p) in enumerate(zip(alg.unit_index, projs), 1):
            m = act[k]
            if m is not p:
                if m is not None and m != p:
                    raise ValueError(f"e{v} does not act as the projection "
                                     f"onto vertex {v}'s coordinates")
                act[k] = p
        self.act = act
        # the content every module memo and Algebra store keys on
        self.key = (self.dims,) + tuple(map(act.__getitem__, alg.radical))
        self._hash = None

    def __eq__(self, other):
        return (isinstance(other, FDModule) and self.alg is other.alg
                and self.key == other.key)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key)
        return self._hash

    def vertex_of_coord(self, c: int) -> int:
        for i in range(self.alg.n - 1, -1, -1):
            if c >= self.offsets[i]:
                return i + 1
        raise ValueError("bad coordinate")

    def vertex_range(self, vertex: int):
        off = self.offsets[vertex - 1]
        return range(off, off + self.dims[vertex - 1])


class ModuleMap:
    def __init__(self, source: FDModule, target: FDModule, mat: Matrix):
        if mat.rows != target.total or mat.cols != source.total:
            raise ValueError("map shape mismatch")
        self.source = source
        self.target = target
        self.mat = mat

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("maps not composable")
        return ModuleMap(other.source, self.target, self.mat @ other.mat)

    def __add__(self, other):
        return ModuleMap(self.source, self.target, self.mat + other.mat)

    def scale(self, c):
        return ModuleMap(self.source, self.target, self.mat.scale(c))

    def is_zero(self) -> bool:
        return self.mat.is_zero()


def projective(alg: Algebra, i: int) -> FDModule:
    """A e_i on the basis of algebra words with source i."""
    return sum_of_projectives(alg, [i])


def _unit(total: int, c: int) -> tuple:
    """The unit vector of length total at c."""
    return (ZERO,) * c + (ONE,) + (ZERO,) * (total - c - 1)


def _vertex_projections(dims):
    """The action of each e_v on modules with these dims: the projection
    onto vertex v's coordinates, one Matrix per vertex."""
    total = sum(dims)
    zero = (ZERO,) * total
    units = [_unit(total, c) for c in range(total)]
    out, off = [], 0
    for d in dims:
        out.append(Matrix(total, total,
                          [units[c] if off <= c < off + d else zero
                           for c in range(total)]))
        off += d
    return tuple(out)


def _act(alg: Algebra, build):
    """An action list for FDModule: build(k) at each radical basis
    element k, and None at each e_v."""
    act = [None] * alg.dim
    for k in alg.radical:
        act[k] = build(k)
    return act


def simple(alg: Algebra, i: int) -> FDModule:
    dims = [0] * alg.n
    dims[i - 1] = 1
    zero = Matrix.zero(1, 1)
    return FDModule(alg, dims, _act(alg, lambda k: zero))


def _from_arrow_blocks(alg: Algebra, dims, arrow_mats):
    """from_arrow_matrices without validate(): a candidate module."""
    if alg.paths is None:
        raise ValueError("algebra has no path presentation")
    dims = tuple(dims)
    by_arrow = {}
    for (aname, s, t, k), block in zip(alg.arrows, arrow_mats):
        if block.rows != dims[t - 1] or block.cols != dims[s - 1]:
            raise ValueError(f"arrow {aname}: block shape mismatch")
        by_arrow[aname] = place_block(dims, t, s, block)

    def path(k):
        first, *rest = alg.paths[k][1]
        m = by_arrow[first]
        for aname in rest:
            m = by_arrow[aname] @ m
        return m
    return FDModule(alg, dims, _act(alg, path))


def place_block(dims, t: int, s: int, block: Matrix) -> Matrix:
    """The square matrix, on coordinates grouped by vertex with dims[v - 1]
    at vertex v, that is block from vertex s's coordinates to vertex t's
    and zero elsewhere."""
    total = sum(dims)
    rt, cs = sum(dims[:t - 1]), sum(dims[:s - 1])
    grid = [[ZERO] * total for _ in range(total)]
    for r, row in enumerate(block.data):
        grid[rt + r][cs:cs + block.cols] = row
    return Matrix(total, total, grid)


def hom_basis(M: FDModule, N: FDModule):
    """Basis of Hom(M, N) as ModuleMaps, solved once per pair of contents
    (the store M.alg.homs)."""
    if M.alg is not N.alg:
        raise ValueError("modules over different algebras")
    mats = _stored(M.alg.homs, (M.key, N.key), _hom_mats, M, N)
    return [ModuleMap(M, N, m) for m in mats]


def _hom_mats(M: FDModule, N: FDModule):
    """The matrices of the basis of Hom(M, N).

    The unknowns are the entries of the vertex blocks F_v, block after
    block and each in row-major order, and the equations are F_t a = b F_s
    on the (t, s) block of each arrow s -> t, acting by a on M and b on N.
    """
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
        out.append(Matrix(N.total, M.total, grid))
    return out


def _trace_pairing(hom_mn, hom_nm) -> Matrix:
    """The pairing trace(g f), one row per g in Hom(N, M) and one column
    per f in Hom(M, N): the sum of g[i][j] f[j][i] over the nonzero
    entries of g, with no product formed."""
    rows = []
    for g in hom_nm:
        nz = [(i, j, a) for i, row in enumerate(g.mat.data)
              for j, a in enumerate(row) if a]
        rows.append([sum([a * f.mat.data[j][i] for i, j, a in nz], ZERO)
                     for f in hom_mn])
    return Matrix(len(hom_nm), len(hom_mn), rows)


def from_generators(P: FDModule, X: FDModule, images) -> ModuleMap:
    """The map P -> X sending the generator of summand s to images[s].

    P is built by sum_of_projectives, and images[s] is a vector of e_v X
    for v the vertex of summand s; a summand absent from images goes to
    zero.  A map out of A e_v is fixed by the image x of e_v, so the
    coordinate of word k in summand s goes to act_X(k) x, which is x itself
    at k = e_v.  An image outside e_v X raises ValueError.
    """
    cols = [(ZERO,) * X.total] * P.total
    for s, x in images.items():
        gen, v, _ = P.proj_gens[s]
        at_v = X.vertex_range(v)
        if any(x[:at_v.start]) or any(x[at_v.stop:]):
            raise ValueError(f"image of summand {s} is not in e_{v} X")
        for coord, k in P.proj_gens[s][2]:
            cols[coord] = x if coord == gen else X.act[k].apply(x)
    return ModuleMap(P, X, Matrix(X.total, P.total, zip(*cols)) if cols
                     else Matrix.zero(X.total, 0))


def hom_from_projective(P: FDModule, X: FDModule):
    """Basis of Hom(P, X) for P a realized direct sum of projectives.

    Reads P.proj_gens, which every module built by sum_of_projectives (so
    every projective) carries: one map per summand s at vertex v and per
    unit vector of e_v X, the generator's image.
    """
    gens = getattr(P, "proj_gens", None)
    if gens is None:
        raise ValueError("module does not carry projective summand data")
    return [from_generators(P, X, {s: _unit(X.total, c)})
            for s, (_, v, _) in enumerate(gens) for c in X.vertex_range(v)]


def sum_of_projectives(alg: Algebra, vertices):
    """Direct sum of P(v) = A e_v for v in vertices, built once per vertex
    tuple (the store alg.projectives).

    Summand s has one coordinate per word k with source vertices[s];
    coordinates are ordered by (target vertex, s, degree, k), and act[g]
    sends (s, k) to table[g][k] read at (s, .).  proj_gens[s] is
    (coordinate of e_v, v, ((coordinate, word k), ...)) and summands
    lists v.
    """
    vertices = list(vertices)
    dims, act, proj_gens = _stored(alg.projectives, tuple(vertices),
                                   _sum_of_projectives, alg, vertices)
    out = FDModule(alg, dims, act)
    out.proj_gens = proj_gens
    out.summands = vertices
    return out


def _sum_of_projectives(alg: Algebra, vertices):
    """(dims, act, proj_gens) of the sum of the P(v), act[g] read off
    alg.table for each radical g."""
    keys = sorted((alg.btarget[k], s, alg.bdegree[k], k)
                  for s, v in enumerate(vertices)
                  for k in range(alg.dim) if alg.bsource[k] == v)
    pos = {(s, k): c for c, (_, s, _, k) in enumerate(keys)}
    dims = [0] * alg.n
    for t, _, _, _ in keys:
        dims[t - 1] += 1
    total = len(keys)

    def left(g):
        grid = [[ZERO] * total for _ in range(total)]
        row = alg.table[g]
        for c, (_, s, _, k) in enumerate(keys):
            for m, x in row[k].items():
                grid[pos[s, m]][c] = x
        return Matrix(total, total, grid)
    act = _act(alg, left)
    words = [[] for _ in vertices]
    for c, (_, s, _, k) in enumerate(keys):
        words[s].append((c, k))
    proj_gens = tuple((pos[s, alg.unit_index[v - 1]], v, tuple(words[s]))
                      for s, v in enumerate(vertices))
    return tuple(dims), act, proj_gens


def submodule(M: FDModule, vectors):
    """Submodule spanned by the given vertex-pure vectors (must be closed).

    Returns (FDModule, inclusion ModuleMap).  The basis is the reduced
    echelon basis of the span, so a vector of the span has its
    coordinates at the pivots.  Raises when the span is not closed under
    the action: vertex-purity is closure under each e_v, and each radical
    action is checked.
    """
    span = Span(M.total, vectors)
    per_vertex = {i: [] for i in range(1, M.alg.n + 1)}
    for i, r in enumerate(span.rows):
        verts = {M.vertex_of_coord(c) for c, x in enumerate(r) if x != 0}
        if len(verts) > 1:
            raise ValueError("submodule vectors must be vertex-pure")
        per_vertex[verts.pop()].append(i)
    # the rows of the span, grouped by vertex
    basis = [i for rows in per_vertex.values() for i in rows]
    dims = [len(rows) for rows in per_vertex.values()]
    inc = (Matrix.from_columns([span.rows[i] for i in basis]) if basis
           else Matrix.zero(M.total, 0))

    def on_sub(k):
        image = M.act[k] @ inc
        coeffs = span.coordinates(image.data)
        out = Matrix(len(basis), len(basis), [coeffs[i] for i in basis])
        if inc @ out != image:
            raise ValueError("span is not closed under the action")
        return out
    sub = FDModule(M.alg, dims, _act(M.alg, on_sub))
    return sub, ModuleMap(sub, M, inc)


def quotient(M: FDModule, vectors):
    """Quotient of M by the submodule spanned by vectors.

    Returns (FDModule, projection ModuleMap, section Matrix) where the
    section embeds chosen coset representatives back into M.
    """
    # complement coordinates ordered by vertex keep the grouping invariant
    comp, pmat, sect = Span(M.total, vectors).complement(
        key=M.vertex_of_coord)
    dims = [0] * M.alg.n
    for c in comp:
        dims[M.vertex_of_coord(c) - 1] += 1
    # sect selects the columns at comp, so a @ sect is read off a
    q = FDModule(M.alg, dims, _act(M.alg, lambda k: pmat @ Matrix(
        M.total, len(comp), [[r[c] for c in comp] for r in M.act[k].data])))
    return q, ModuleMap(M, q, pmat), sect


def radical_vectors(M: FDModule, power: int = 1):
    """Spanning vectors of rad^power A * M: the columns of the basis
    elements of radical degree at least power.  Every Algebra basis is
    adapted to the radical filtration (path bases by length, structure
    constant bases by radical layer), so these elements span rad^power A.
    """
    return [M.act[k].column(c) for k in range(M.alg.dim)
            if M.alg.bdegree[k] >= power for c in range(M.total)]


def projective_cover(M: FDModule):
    """Surjection from a sum of projectives with superfluous kernel."""
    vertices, cover, _, _, _ = _stored(M.alg.steps, M.key, _cover_step, M)
    return ModuleMap(sum_of_projectives(M.alg, vertices), M, cover)


def syzygies(M: FDModule, depth: int):
    """depth steps of iterated projective covers, starting at M.

    Step t is (cover P_t -> Omega_t, Omega_{t+1}, inclusion Omega_{t+1} ->
    P_t) with Omega_0 = M and Omega_{t+1} the kernel of the cover.
    """
    out = []
    for _ in range(depth):
        vertices, cover, dims, act, inc = _stored(M.alg.steps, M.key,
                                                  _cover_step, M)
        P = sum_of_projectives(M.alg, vertices)
        omega = FDModule(M.alg, dims, act)
        out.append((ModuleMap(P, M, cover), omega, ModuleMap(omega, P, inc)))
        M = omega
    return out


def _cover_step(M: FDModule):
    """(vertices, cover matrix, dims and act of the kernel Omega, matrix
    of its inclusion) of the projective cover of M, kept in the store
    M.alg.steps by its callers.

    The top of M is read off the span of rad M, with no quotient module
    built: its coordinates are the quotient coordinates, sorted by vertex,
    and the cover has one summand per top coordinate c, its generator sent
    to the unit vector at c.
    """
    rad = Span(M.total, radical_vectors(M))
    top = rad.quotient_coords(key=M.vertex_of_coord)
    vertices = tuple(M.vertex_of_coord(c) for c in top)
    P = sum_of_projectives(M.alg, vertices)
    cover = from_generators(P, M, {s: _unit(M.total, c)
                                   for s, c in enumerate(top)}).mat
    ker = cover.kernel_basis()
    if P.total - len(ker) != M.total:
        raise ValueError("projective cover construction failed to surject")
    omega, inc = submodule(P, ker)
    return vertices, cover, omega.dims, omega.act, inc.mat


def _stored(store, key, build, *args):
    """store[key], set to build(*args) when absent."""
    got = store.get(key)
    if got is None:
        got = store[key] = build(*args)
    return got


def iso_defect(M: FDModule, N: FDModule):
    """Rank of the trace pairing of Hom(M, N) with Hom(N, M): dim Hom(M, N)
    minus the dim of its radical (a Morita-invariant count)."""
    hom_mn = hom_basis(M, N)
    hom_nm = hom_mn if M is N else hom_basis(N, M)
    return _trace_pairing(hom_mn, hom_nm).rank()


def is_isomorphic(M: FDModule, N: FDModule) -> bool:
    """Decide isomorphism through the trace pairing (valid in char 0)."""
    if M.dims != N.dims:
        return False
    if M.total == 0:
        return True
    mn = iso_defect(M, N)
    return mn == iso_defect(M, M) and mn == iso_defect(N, N)
