"""Finite-dimensional basic algebras presented by quivers with relations.

A path stores its arrows in traversal order (first applied arrow first).
The product convention throughout the package is "q * p means p then q":
for a path p from vertex i to vertex j we have p = e_j * p * e_i, and
Hom(Ae_i, Ae_j) is identified with e_i A e_j acting by right multiplication.

Every algebra has one representation, a sparse structure-constant table:
table[i][j] is the dict {k: c} of the nonzero coefficients of
basis[i] * basis[j], where basis[j] is applied first.  `table_product`
is the one product routine that reads it.  Quiver algebras get their
table from a normal-form path basis; algebras handed over as raw tables
(endomorphism algebras, Burt-Butler algebras and corner algebras e B e;
the tests build factor algebras A/AeA this way too) go through
`from_structure_constants`, which reshapes them into
a block-pure basis adapted to the radical filtration so the rest of the
package can treat both kinds uniformly.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import Matrix, ONE, Span, ZERO, _apply_cols, frac, nonzeros


def table_product(table, u, v):
    """u * v for coefficient vectors over a basis with structure table
    table[i][j] = {k: c} of basis[i] * basis[j]; v is applied first.
    Only the nonzero pairs of entries of u and v are visited."""
    out = [ZERO] * len(table)
    vs = [(j, cv) for j, cv in enumerate(v) if cv != 0]
    for i, cu in enumerate(u):
        if cu == 0:
            continue
        row = table[i]
        for j, cv in vs:
            for k, c in row[j].items():
                out[k] += cu * cv * c
    return tuple(out)


class Quiver:
    """Finite quiver with vertices 1..n and named arrows."""

    def __init__(self, n: int, arrows: Sequence[tuple[str, int, int]]):
        if n < 1:
            raise ValueError("quiver needs at least one vertex")
        names = [a[0] for a in arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow names must be unique")
        for name, s, t in arrows:
            if not (1 <= s <= n and 1 <= t <= n):
                raise ValueError(f"arrow {name} has endpoint outside 1..{n}")
        self.n = n
        self.arrows = [(name, s, t) for name, s, t in arrows]
        self.arrow_index = {a[0]: k for k, a in enumerate(self.arrows)}

    def arrow_source(self, name: str) -> int:
        return self.arrows[self.arrow_index[name]][1]

    def arrow_target(self, name: str) -> int:
        return self.arrows[self.arrow_index[name]][2]

    def path_endpoints(self, source: int, names: Sequence[str]):
        """Validate a traversal-ordered arrow word; return (source, target)."""
        v = source
        for name in names:
            if name not in self.arrow_index:
                raise ValueError(f"unknown arrow {name}")
            if self.arrow_source(name) != v:
                raise ValueError(f"arrow {name} does not start at vertex {v}")
            v = self.arrow_target(name)
        return source, v


class Relation:
    """Linear combination of parallel paths of length >= 2.

    terms: list of (coefficient, source vertex, arrow-name tuple).
    """

    def __init__(self, quiver: Quiver, terms):
        cleaned = []
        endpoints = None
        for coeff, source, names in terms:
            coeff = frac(coeff)
            if coeff == 0:
                continue
            names = tuple(names)
            if len(names) < 2:
                raise ValueError("relation paths must have length >= 2")
            ep = quiver.path_endpoints(source, names)
            if endpoints is None:
                endpoints = ep
            elif ep != endpoints:
                raise ValueError("inhomogeneous relation")
            cleaned.append((coeff, source, names))
        if not cleaned:
            raise ValueError("empty relation")
        self.terms = cleaned
        self.source, self.target = endpoints
        lengths = {len(names) for _, _, names in cleaned}
        self.min_length = min(lengths)
        self.max_length = max(lengths)
        self.homogeneous = len(lengths) == 1


class RelationSet:
    def __init__(self, quiver: Quiver, relations: Sequence[Relation]):
        self.quiver = quiver
        self.relations = list(relations)
        self.homogeneous = all(r.homogeneous for r in self.relations)


class Algebra:
    """Finite-dimensional elementary algebra with a block-pure basis.

    Fields:
        n           number of vertices
        dim         K-dimension
        bsource     per basis element: vertex s with w = w * e_s
        btarget     per basis element: vertex t with w = e_t * w
        bdegree     radical degree of each basis element
        unit_index  basis position of e_i, per vertex (0-based list, vertex-1)
        radical     the basis positions of radical degree >= 1, ascending;
                    the algebra being elementary, every position but the
                    unit_index ones
        table       table[i][j] = coefficient dict of basis[i] * basis[j]
        arrows      list of (name, source, target, basis index) of the
                    distinguished radical generators
        paths       for quiver algebras: the path of each basis element as
                    (source, arrow-name tuple); None otherwise
        vertex_projections
                    modules' store of the idempotent actions: per
                    dimension vector, the projection onto each vertex's
                    coordinates, shared by every module with those dims
        projectives modules.sum_of_projectives's store: (dims, act,
                    proj_gens) per vertex tuple, act holding the radical
                    actions and None at each e_v
        steps       modules' store of syzygy walk steps: per module
                    content (dims and the radical actions), its cover and
                    kernel as (vertices, cover matrix, kernel dims,
                    kernel act, inclusion matrix)
        homs        modules.hom_basis's store: the basis matrices per
                    pair of module contents

    The four stores hold plain data (matrices, dims, vertex tuples), never
    a module or map, so nothing in them refers back to the algebra.
    """

    def __init__(self, n, bsource, btarget, bdegree, unit_index, table,
                 arrows, labels, paths=None, quiver=None, relations=None):
        self.n = n
        self.dim = len(bsource)
        self.bsource = list(bsource)
        self.btarget = list(btarget)
        self.bdegree = list(bdegree)
        self.unit_index = list(unit_index)
        self.radical = tuple(k for k in range(self.dim)
                             if self.bdegree[k] >= 1)
        self.table = table
        self.arrows = list(arrows)
        self.labels = list(labels)
        self.paths = paths
        self.quiver = quiver
        self.relations = relations
        self.old_to_new = None
        self.new_to_old = None
        self.vertex_projections = {}
        self.projectives = {}
        self.steps = {}
        self.homs = {}

    # -- element helpers ---------------------------------------------------

    def basis_vec(self, i: int):
        v = [ZERO] * self.dim
        v[i] = ONE
        return tuple(v)

    def unit(self):
        v = [ZERO] * self.dim
        for i in self.unit_index:
            v[i] = ONE
        return tuple(v)

    def idempotent(self, vertex: int):
        return self.basis_vec(self.unit_index[vertex - 1])

    def multiply(self, u, v):
        """Product u * v; v is applied first under the path convention."""
        return table_product(self.table, u, v)

    def block_indices(self, target: int, source: int):
        """Basis positions spanning e_target A e_source."""
        return [k for k in range(self.dim)
                if self.btarget[k] == target and self.bsource[k] == source]

    def radical_indices(self):
        return list(self.radical)

    def cartan_matrix(self):
        """Integer matrix with entry (i,j) = dim e_i A e_j = [P(j):S(i)]."""
        c = [[0] * self.n for _ in range(self.n)]
        for k in range(self.dim):
            c[self.btarget[k] - 1][self.bsource[k] - 1] += 1
        return c

    def check_associativity(self):
        """Raise ValueError at the first basis triple (i, j, k), in that
        loop order, where (b_i b_j) b_k differs from b_i (b_j b_k).  Both
        sides are summed over the sparse table.  With after[x] the k with
        b_x b_k nonzero, b_i (b_j b_k) is zero unless k is in after[j], and
        (b_i b_j) b_k unless k is in after[m] for some m in b_i b_j; only
        those k are visited, in ascending order."""
        table = self.table
        # by_left[i][m] and by_right[k][m] are the terms of b_i b_m, b_m b_k
        by_left = [[prod.items() for prod in row] for row in table]
        by_right = list(zip(*by_left))
        after = [{k for k, prod in enumerate(row) if prod} for row in table]
        for i, row_i in enumerate(by_left):
            for j, ij in enumerate(row_i):
                for k in sorted(after[j].union(*(after[m] for m, _ in ij))):
                    lhs = _apply_cols(by_right[k], ij)
                    rhs = _apply_cols(row_i, by_left[j][k])
                    if lhs != rhs:
                        raise ValueError(
                            f"structure constants not associative at "
                            f"({self.labels[i]},{self.labels[j]},{self.labels[k]})")

    def radical_nilpotent(self) -> bool:
        rad = [self.basis_vec(k) for k in self.radical_indices()]
        return _powers(self.table, rad) is not None


def _powers(table, rad):
    """Reduced echelon bases of rad, rad^2, ... down to the first zero
    power, for rad a basis of an ideal; None when no power is zero."""
    layers = [rad]
    while layers[-1]:
        if len(layers) > len(table):
            return None
        nxt = [table_product(table, u, g) for u in layers[-1] for g in rad]
        layers.append([tuple(r) for r in Span(len(table), nxt).rows])
    return layers


def _path_label(source: int, names: tuple) -> str:
    if not names:
        return f"e{source}"
    return "*".join(reversed(names))


def build_algebra(quiver: Quiver, relations: RelationSet,
                  length_bound: int = 12) -> Algebra:
    """Construct KQ/I with a normal-form path basis.

    Length-homogeneous relation sets are reduced degree by degree; mixed
    ones fall back to a global truncated reduction.  Raises ValueError with
    "not finite dimensional within bound" when path degrees survive up to
    length_bound.
    """
    if length_bound < 1:
        raise ValueError("length_bound must be >= 1")
    if relations.homogeneous:
        alg = _build_graded(quiver, relations, length_bound)
    else:
        alg = _build_global(quiver, relations, length_bound)
    alg.check_associativity()
    if not alg.radical_nilpotent():
        raise ValueError("radical is not nilpotent")
    return alg


def _finish_algebra(quiver, relations, basis_paths, nf):
    """Assemble the Algebra once basis paths and a normal-form map exist.

    basis_paths: list of (source, arrow-name tuple), trivial paths first.
    nf(path) -> dict basis_index -> coeff.
    """
    n = quiver.n
    index = {p: k for k, p in enumerate(basis_paths)}
    bsource, btarget, bdegree, labels = [], [], [], []
    for source, names in basis_paths:
        _, target = quiver.path_endpoints(source, names)
        bsource.append(source)
        btarget.append(target)
        bdegree.append(len(names))
        labels.append(_path_label(source, names))
    unit_index = [index[(i, ())] for i in range(1, n + 1)]

    table = [[{} for _ in range(len(basis_paths))]
             for _ in range(len(basis_paths))]
    for i, (si, ni) in enumerate(basis_paths):
        ti = btarget[i]
        for j, (sj, nj) in enumerate(basis_paths):
            if btarget[j] != si:
                continue
            prod = nf((sj, nj + ni))
            if prod:
                table[i][j] = prod

    arrows = []
    for name, s, t in quiver.arrows:
        p = (s, (name,))
        if p in index:
            arrows.append((name, s, t, index[p]))
        # an arrow can die in the quotient only for non-admissible input;
        # relations of length >= 2 never remove arrows, so this is exhaustive
    alg = Algebra(n, bsource, btarget, bdegree, unit_index, table, arrows,
                  labels, paths=list(basis_paths), quiver=quiver,
                  relations=relations)
    return alg


def _graded_nf(path, basis, degrees, memo):
    """Normal form of a path as a dict (degree, position in basis[degree])
    -> coeff.  degrees[ell] holds the index of degree ell's coordinate
    words (arrow, position in basis[ell - 1]), the Span of the ideal over
    them and its quotient coordinates, whose words are basis[ell]; memo
    holds the forms already found."""
    got = memo.get(path)
    if got is not None:
        return got
    source, names = path
    ell = len(names)
    if ell == 0:
        out = {(0, basis[0].index(path)): ONE}
    elif ell not in basis:
        out = {}
    else:
        last = names[-1]
        index, ideal, free = degrees[ell]
        inner = _graded_nf((source, names[:-1]), basis, degrees, memo)
        vec = [ZERO] * len(index)
        for (deg, pos), c in inner.items():
            cw = (last, pos)
            if cw in index:
                vec[index[cw]] += c
            # incompatible arrow start: the term dies structurally
        out = {(ell, slot): c for slot, c
               in ideal.quotient_terms(vec, free).items()}
    memo[path] = out
    return out


def _build_graded(quiver, relations, length_bound):
    n = quiver.n
    # per degree: the basis paths, and (index of the coordinate words,
    # Span of the ideal over them, its quotient coordinates) (_graded_nf)
    basis = {0: [(i, ()) for i in range(1, n + 1)]}
    degrees = {}
    words = {}  # degree -> its coordinate words (arrow, lower position)
    rows_kept = {}  # degree -> raw ideal rows (over that degree's coords)
    memo = {}

    def nf(path):
        return _graded_nf(path, basis, degrees, memo)

    by_len = {}
    for r in relations.relations:
        by_len.setdefault(r.max_length, []).append(r)

    top = None
    for ell in range(1, length_bound + 1):
        lower = basis[ell - 1]
        cws = []
        for pos, (src, names) in enumerate(lower):
            _, tgt = quiver.path_endpoints(src, names)
            for name, s, t in quiver.arrows:
                if s == tgt:
                    cws.append((name, pos))
        words[ell] = cws
        index = {cw: p for p, cw in enumerate(cws)}
        rows = []
        # genuine relations of this length
        for r in by_len.get(ell, []):
            vec = [ZERO] * len(cws)
            for coeff, src, names in r.terms:
                last = names[-1]
                for (deg, pos), c in nf((src, names[:-1])).items():
                    cw = (last, pos)
                    if cw in index:
                        vec[index[cw]] += coeff * c
            rows.append(vec)
        # propagate the lower ideal rows by right multiplication with arrows
        if ell - 1 in rows_kept:
            lower_cws = words[ell - 1]
            lower_basis = basis[ell - 2]
            for row in rows_kept[ell - 1]:
                for name, s, t in quiver.arrows:
                    vec = [ZERO] * len(cws)
                    for p, c in enumerate(row):
                        if c == 0:
                            continue
                        b_arrow, b_pos = lower_cws[p]
                        lsrc, lnames = lower_basis[b_pos]
                        if lsrc != t:
                            continue
                        inner = nf((s, (name,) + lnames))
                        for (deg, pos), cc in inner.items():
                            cw = (b_arrow, pos)
                            if cw in index:
                                vec[index[cw]] += c * cc
                    if any(x != 0 for x in vec):
                        rows.append(vec)
        ideal = Span(len(cws), rows)
        rows_kept[ell] = [list(r) for r in rows]
        free = ideal.quotient_coords()
        degrees[ell] = (index, ideal, free)
        basis[ell] = [(lower[pos][0], lower[pos][1] + (arrow,))
                      for arrow, pos in (cws[k] for k in free)]
        if not basis[ell]:
            top = ell
            break
    if top is None:
        raise ValueError("not finite dimensional within bound")

    basis_paths = []
    for ell in sorted(basis):
        basis_paths.extend(basis[ell])
    global_index = {p: k for k, p in enumerate(basis_paths)}

    def nf_global(path):
        return {global_index[basis[deg][slot]]: c
                for (deg, slot), c in nf(path).items()}

    return _finish_algebra(quiver, relations, basis_paths, nf_global)


PATH_CAP = 40000  # paths _build_global enumerates before it gives up


def _build_global(quiver, relations, length_bound):
    n = quiver.n
    paths = [(i, ()) for i in range(1, n + 1)]
    by_length = {0: list(paths)}
    targets = {p: p[0] for p in paths}

    def extend(ell):
        new = []
        for src, names in by_length.get(ell - 1, []):
            tgt = targets[(src, names)]
            for name, s, t in quiver.arrows:
                if s == tgt:
                    p = (src, names + (name,))
                    targets[p] = t
                    new.append(p)
        by_length[ell] = new
        paths.extend(new)
        if len(paths) > PATH_CAP:
            raise ValueError("path enumeration exceeded cap; "
                             "not finite dimensional within bound?")
        return new

    def pad_rows(max_total):
        col = {p: k for k, p in enumerate(paths)}
        rows = []
        for r in relations.relations:
            for lp in paths:
                # left pad lp is applied after the relation, so it must
                # start where the relation ends
                if lp[0] != r.target:
                    continue
                for rp in paths:
                    if targets[rp] != r.source:
                        continue
                    total = len(lp[1]) + r.max_length + len(rp[1])
                    if total > max_total:
                        continue
                    vec = [ZERO] * len(paths)
                    dead = False
                    for coeff, src, names in r.terms:
                        word = (rp[0], rp[1] + names + lp[1])
                        if word not in col:
                            dead = True
                            break
                        vec[col[word]] += coeff
                    if not dead:
                        rows.append(vec)
        return rows

    top = None
    for ell in range(1, length_bound + 1):
        new = extend(ell)
        if not new:
            top = ell
            break
        ideal = Span(len(paths), pad_rows(ell))
        col = {p: k for k, p in enumerate(paths)}
        all_dead = all(
            [ONE if k == col[p] else ZERO for k in range(len(paths))] in ideal
            for p in new)
        if all_dead:
            top = ell
            break
    if top is None:
        raise ValueError("not finite dimensional within bound")

    # extend enumeration so products of basis words stay in range
    for ell in range(top + 1, 2 * top):
        if not extend(ell):
            break
    ideal = Span(len(paths), pad_rows(2 * top - 1))
    col = {p: k for k, p in enumerate(paths)}
    # the quotient coordinates are the basis: no long path survives
    free = ideal.quotient_coords()
    if any(len(paths[k][1]) >= top for k in free):
        raise ValueError("not finite dimensional within bound")
    basis_paths = [paths[k] for k in free]

    def nf_global(path):
        if path not in col:
            return {}
        vec = [ONE if k == col[path] else ZERO for k in range(len(paths))]
        return ideal.quotient_terms(vec, free)

    return _finish_algebra(quiver, relations, basis_paths, nf_global)


def _trace_form(table) -> Matrix:
    """The trace form tr(L_a L_b) of a structure-constant table, L_a the
    left multiplication by basis[a], whose entry (j, k) is table[a][k][j].
    Each L_a's entries are read once, and the form is symmetric, so each
    unordered pair is summed once."""
    dim = len(table)
    entries = [[(k, j, c) for k in range(dim) for j, c in row[k].items()]
               for row in table]
    gram = [[ZERO] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a, dim):
            tb = table[b]
            gram[a][b] = gram[b][a] = sum(
                (c * tb[j].get(k, ZERO) for k, j, c in entries[a]), ZERO)
    return Matrix(dim, dim, gram)


def from_structure_constants(n, table, idempotents) -> Algebra:
    """Reshape a raw structure-constant table into a block-pure Algebra.

    table: the raw algebra in Algebra.table format, table[i][j] the sparse
    dict {k: c} of raw basis[i] * raw basis[j], basis[j] applied first.
    table may also be a function mult(u, v) -> raw vector (v applied
    first); it is tabulated once on the raw basis.
    idempotents: n raw vectors, pairwise orthogonal, summing to the unit.
    The radical is the perp of the trace form of the left regular
    representation (characteristic zero).  The result's new_to_old maps
    its coordinates to raw ones and old_to_new inverts it.  Raises when
    the input is not elementary (some e_i (A/rad) e_i bigger than K).
    """
    if callable(table):
        units = Matrix.identity(len(idempotents[0])).data
        table = [[nonzeros(table(u, v)) for v in units] for u in units]
    dim = len(table)

    for a in range(n):
        for b in range(n):
            prod = table_product(table, idempotents[a], idempotents[b])
            want = idempotents[a] if a == b else (ZERO,) * dim
            if tuple(prod) != tuple(want):
                raise ValueError("inputs are not orthogonal idempotents")

    # the radical is the kernel of the trace form; layers[d-1] spans rad^d
    layers = _powers(table, _trace_form(table).kernel_basis())
    if layers is None:
        raise ValueError("radical is not nilpotent")
    maxdeg = len(layers) - 1  # rad^(maxdeg+1) is zero

    def peirce(t, s, v):
        return table_product(table, idempotents[t - 1],
                             table_product(table, v, idempotents[s - 1]))

    new_vecs, bsource, btarget, bdegree, new_labels = [], [], [], [], []
    unit_index = [None] * n
    span = Span(dim)

    def try_add(v, s, t, deg, label):
        if not span.add(v):
            return False
        new_vecs.append(tuple(v))
        bsource.append(s)
        btarget.append(t)
        bdegree.append(deg)
        new_labels.append(label)
        return True

    count = 0
    for i in range(1, n + 1):
        if not try_add(idempotents[i - 1], i, i, 0, f"e{i}"):
            raise ValueError("idempotents are not independent")
        unit_index[i - 1] = len(new_vecs) - 1
    for t in range(1, n + 1):
        for s in range(1, n + 1):
            for deg in range(maxdeg, 0, -1):
                for v in layers[deg - 1]:
                    w = peirce(t, s, v)
                    if try_add(w, s, t, deg, f"r{count}"):
                        count += 1
    if len(new_vecs) != dim:
        # whatever is missing must be degree-0 mass outside the K-span of
        # the idempotents: the algebra is not elementary
        for t in range(1, n + 1):
            for s in range(1, n + 1):
                for u in Matrix.identity(dim).data:
                    w = peirce(t, s, u)
                    if try_add(w, s, t, 0, f"z{count}"):
                        count += 1
        if len(new_vecs) == dim:
            raise ValueError("algebra is not elementary "
                             "(semisimple quotient larger than K per vertex)")
        raise ValueError("structure constants do not span a unital algebra")

    # the flag construction emits deep radical layers first; reorder by
    # ascending degree so the basis reads unit part, arrows, higher powers
    perm = sorted(range(dim), key=lambda k: (bdegree[k], btarget[k],
                                             bsource[k], k))
    new_vecs, bsource, btarget, bdegree, new_labels = (
        [xs[k] for k in perm]
        for xs in (new_vecs, bsource, btarget, bdegree, new_labels))
    old_pos = {old: new for new, old in enumerate(perm)}
    unit_index = [old_pos[k] for k in unit_index]

    F = Matrix.from_columns(new_vecs)      # new coords -> old coords
    Finv = F.inverse()                     # old coords -> new coords
    to_new = Finv.nonzero_columns()

    def product_in_new(i, j):
        # through Finv's sparse columns, keys ascending as nonzeros has them
        old = nonzeros(table_product(table, new_vecs[i], new_vecs[j]))
        return dict(sorted(_apply_cols(to_new, old.items()).items()))

    new_table = [[product_in_new(i, j) if bsource[i] == btarget[j] else {}
                  for j in range(dim)] for i in range(dim)]

    # degree-1 layer elements are the radical generators
    arrows = [(new_labels[k], bsource[k], btarget[k], k)
              for k in range(dim) if bdegree[k] == 1]

    alg = Algebra(n, bsource, btarget, bdegree, unit_index, new_table,
                  arrows, new_labels)
    alg.old_to_new = Finv
    alg.new_to_old = F
    alg.check_associativity()
    if not alg.radical_nilpotent():
        raise ValueError("radical is not nilpotent")
    return alg


# ---------------------------------------------------------------------------
# canonical small examples used across the test suite

def example_semisimple_pair() -> Algebra:
    """K x K: two vertices, no arrows."""
    q = Quiver(2, [])
    return build_algebra(q, RelationSet(q, []))


def example_dual_numbers() -> Algebra:
    """K[x]/(x^2): one vertex, one loop with square zero."""
    q = Quiver(1, [("x", 1, 1)])
    rel = Relation(q, [(1, 1, ("x", "x"))])
    return build_algebra(q, RelationSet(q, [rel]))


def example_a2() -> Algebra:
    """Path algebra of the quiver 1 -> 2."""
    q = Quiver(2, [("a", 1, 2)])
    return build_algebra(q, RelationSet(q, []))


def example_jordan3() -> Algebra:
    """K[x]/(x^3)."""
    q = Quiver(1, [("x", 1, 1)])
    rel = Relation(q, [(1, 1, ("x", "x", "x"))])
    return build_algebra(q, RelationSet(q, [rel]))
