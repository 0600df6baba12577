"""Differential bocses attached to filtered algebras.

The construction dualizes the truncated transferred products: arrows of B
are duals of Ext^1 classes, relations of B pair Ext^2 duals against the
b'-products of Ext^1 tuples, the bimodule W is the degree-1 part of the
dg tensor category modulo the image of d' on B, and the comultiplication
is the projected d'.  Words are handled with the package-wide convention
that the rightmost factor acts first.

Every word and every tensor product over B has one presentation.  A
degree-1 word is its sparse terms {k: a} on the basis (p2, g, p1) of
words p2.g.p1 (u1_basis), from d' to the projection onto W: gen[g] is the
word e_j.g.e_i of a generator, Bocs._sandwich multiplies a word by
elements of B through B's structure table, Bocs._split cuts a b' key into
the B elements and gen words of its words, and Bocs._eps_word reads eps
on words.  Only the killed sandwiches b.d'(a).c are made dense, as the
rows of the one Span (sub_span) whose complement is W; a word is
projected onto W through that Span's sparse columns (Bocs._project).
W, like R, is free as a right B-module on a lift of its top,
w = sum t.c_t(w) with c_t(w) in e_v(t)B (RightBasis), so
one map rho(w (x) x) = (c_t(w).x)_t presents W (x)_B X and R (x)_B X, the
induced module (TensorModule, one builder for both), W (x)_B W, where mu
lands, and, again in each t block, (W (x)_B W) (x)_B W, where
validate_coalgebra checks coassociativity.  mu is held as its terms
(Bocs.mu) from its construction on, and the pairs of W (x) X are read
only in this module (pair_image).  The coordinate (t, x) of W (x)_B X is
the image of the pair t (x) x (TensorModule.chosen), so a map on pairs
is read on W (x)_B X at the chosen pairs alone: bocs_lift turns a
B-module map into a morphism through the counit read there, and
bocs_compose computes a composite there, through the terms of mu and the
pair images of the two morphisms (pair_image), which a caller composing
many pairs forms once per morphism.
"""

from __future__ import annotations

from collections import namedtuple
from operator import le, lt

from .ainf import AInfTable, build_tables
from .linalg import (ONE, ZERO, Matrix, Span, _apply_cols, _sum_terms, frac,
                     nonzeros, vec_is_zero)
from .modules import FDModule, ModuleMap, _act, _stored, hom_basis
from .quiver import (Algebra, Quiver, Relation, RelationSet, build_algebra)
from .resolution import ResolvedSystem
from .strata import classify_algebra


class DualGenerators:
    """Dual bases of the truncated Ext spaces with pairing bookkeeping.

    q1: duals of Ext^0 classes (grouplikes omega_i and, in delta mode,
    duals of nilpotent endomorphisms); q0: duals of Ext^1 classes (the
    arrows of B); qm1: duals of Ext^2 classes (relation labels).  Every
    dual sits in the (i, j) block of its class.
    """

    def __init__(self, table: AInfTable):
        self.table = table
        self.q1 = []
        self.q0 = []
        self.qm1 = []
        n = table.rsys.alg.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for cls in table.basis(0, i, j):
                    ident = (i == j and cls == table.identity_class(i))
                    name = f"w{i}" if ident else f"u{i}_{j}_{cls.idx}"
                    self.q1.append((name, cls, ident))
                for cls in table.basis(1, i, j):
                    self.q0.append((f"a{i}_{j}_{cls.idx}", cls))
                for cls in table.basis(2, i, j):
                    self.qm1.append((f"z{i}_{j}_{cls.idx}", cls))
        self.arrow_of_class = {cls: name for name, cls in self.q0}

    def omega_index(self, i: int) -> int:
        for pos, (name, cls, ident) in enumerate(self.q1):
            if ident and cls.i == i:
                return pos
        raise ValueError(f"no grouplike at vertex {i}")


def _path_vec(B: Algebra, arrow_idx, source, names):
    """The element of B of the arrow word names from source, the first
    name acting first."""
    vec = B.idempotent(source)
    for name in names:
        vec = B.multiply(B.basis_vec(arrow_idx[name]), vec)
    return vec


class Bocs:
    """The bocs (B, W, eps, mu) of a filtered algebra.

    All structure constants live on explicit bases: W is presented by a
    complement of the killed sub-bimodule inside the degree-1 words, eps
    is a matrix, mu[w] lists the nonzero terms (w1, w2, c) of
    mu(w) = sum c w1 (x) w2 sorted by (w1, w2), and the Peirce blocks of
    the W basis are recorded for classification.
    """

    def __init__(self, alg, order, mode, r_max, table, B, duals):
        self._set_base(alg, order, mode, r_max, table, B, duals)
        self._build_u1()
        self._build_dprime()
        self._build_w()
        self._build_eps()
        self.mu = [self._dprime_terms(u) for u in self.w_words]
        self._build_kernel()
        self.right = RightBasis("W", B, B, self.w_block, self.WR,
                                [m.nonzero_columns() for m in self.WL])

    def _set_base(self, alg, order, mode, r_max, table, B, duals):
        self.alg = alg
        self.order = order
        self.mode = mode
        self.r_max = r_max
        self.table = table
        self.B = B
        self.duals = duals
        self.arrow_idx = {name: k for name, s, t, k in B.arrows}
        self._dpath_cache = {}

    @classmethod
    def from_parts(cls, B, order, mode, r_max, *, w_dim, w_block, WL, WR,
                   eps, mu):
        """The bocs of a document, from B, W, eps and mu; the kernel data
        and the right basis are derived as in __init__.

        It has no algebra, A-infinity table or duals (alg, table and duals
        are None), so no presentation of W by words.
        """
        bocs = cls.__new__(cls)
        bocs._set_base(None, list(order), mode, r_max, None, B, None)
        bocs.w_dim = w_dim
        bocs.w_block = w_block
        bocs.WL = WL
        bocs.WR = WR
        bocs.eps = eps
        bocs.mu = mu
        bocs._build_kernel()
        bocs.right = RightBasis("W", B, B, w_block, WR,
                                [m.nonzero_columns() for m in WL])
        return bocs

    # -- degree-1 words ---------------------------------------------------

    def _build_u1(self):
        """The K-basis (p2, g, p1) of the degree-1 words p2.g.p1, with g
        a generator of q1 in block (i, j), p2 in B e_j and p1 in e_i B, and
        gen[g], the word e_j.g.e_i."""
        B = self.B
        self.u1_basis = [(p2, gi, p1)
                         for gi, (name, cls, ident) in enumerate(self.duals.q1)
                         for p2 in range(B.dim) if B.bsource[p2] == cls.j
                         for p1 in range(B.dim) if B.btarget[p1] == cls.i]
        self.u1_index = {t: k for k, t in enumerate(self.u1_basis)}
        self.u1_dim = len(self.u1_basis)
        self._gi_of_cls = {cls: gi for gi, (name, cls, ident)
                           in enumerate(self.duals.q1)}
        e = B.unit_index
        self.gen = [{self.u1_index[(e[cls.j - 1], gi, e[cls.i - 1])]: ONE}
                    for gi, (name, cls, ident) in enumerate(self.duals.q1)]

    def _sandwich(self, b, u, c) -> dict:
        """b.u.c for a degree-1 word u between B elements b and c, over the
        nonzeros of b, u and c: the word p2.g.p1 goes to (b p2).g.(p1 c),
        each side read off B's sparse table once per p2 and per p1."""
        table, index = self.B.table, self.u1_index
        bs = [(i, x) for i, x in enumerate(b) if x != 0]
        cs = [(j, y) for j, y in enumerate(c) if y != 0]
        lefts, rights, terms = {}, {}, []
        for idx, x in u.items():
            p2, g, p1 = self.u1_basis[idx]
            left = lefts.get(p2)
            if left is None:
                left = lefts[p2] = _sum_terms(
                    (q2, bx * d) for i, bx in bs
                    for q2, d in table[i][p2].items()).items()
            right = rights.get(p1)
            if right is None:
                right = rights[p1] = _sum_terms(
                    (q1, d * cy) for j, cy in cs
                    for q1, d in table[p1][j].items()).items()
            for q2, bx in left:
                for q1, cy in right:
                    k = index.get((q2, g, q1))
                    if k is not None:
                        terms.append((k, x * bx * cy))
        return _sum_terms(terms)

    def _b_elt(self, chunk, start_vertex):
        """Product in B of the dual arrows of a display-ordered chunk."""
        return _path_vec(self.B, self.arrow_idx, start_vertex,
                         [self.duals.arrow_of_class[c]
                          for c in reversed(chunk)])

    def _split(self, key):
        """A display-ordered b' key cut at its degree-0 classes: the B
        elements between them, left to right, and the words gen[g] of the
        generators g of q1 dual to those classes."""
        cuts = [p for p, c in enumerate(key) if c.k == 0]
        starts = [key[p].j for p in cuts] + [key[-1].i]
        elts = [self._b_elt(key[a + 1:b], s) for a, b, s
                in zip([-1] + cuts, cuts + [len(key)], starts)]
        return elts, [self.gen[self._gi_of_cls[key[p]]] for p in cuts]

    def _build_dprime(self):
        """d' of each arrow of B as a degree-1 word."""
        self.dprime_arrow = {}
        for name, cls in self.duals.q0:
            terms = []
            for key, coeff in self.table.products_into(cls, 1, self.r_max):
                (lp, rp), (g,) = self._split(key)
                terms += [(k, coeff * x)
                          for k, x in self._sandwich(lp, g, rp).items()]
            self.dprime_arrow[name] = _sum_terms(terms)

    def _dprime_path(self, k: int):
        """d' of a basis path of B, as a degree-1 word, built once."""
        return _stored(self._dpath_cache, k, self._dprime_word, k)

    def _dprime_word(self, k: int):
        B = self.B
        source, names = B.paths[k]
        terms = []
        suffix = B.idempotent(source)
        for t, name in enumerate(names):
            pre = _path_vec(B, self.arrow_idx,
                            B.quiver.arrow_target(name), names[t + 1:])
            terms += self._sandwich(pre, self.dprime_arrow[name],
                                    suffix).items()
            suffix = B.multiply(B.basis_vec(self.arrow_idx[name]), suffix)
        return _sum_terms(terms)

    def _build_w(self):
        """W, the degree-1 words modulo the sub-bimodule spanned by the
        sandwiches b.d'(a).c of the arrows a, over basis elements b, c;
        its basis words w_words are the words of the complement."""
        B = self.B
        basis = [B.basis_vec(k) for k in range(B.dim)]
        killed = []
        for name, cls in self.duals.q0:
            for b in basis:
                for c in basis:
                    v = self._sandwich(b, self.dprime_arrow[name], c)
                    if v:
                        killed.append([v.get(k, ZERO)
                                       for k in range(self.u1_dim)])
        self.sub_span = Span(self.u1_dim, killed)
        comp, proj, _ = self.sub_span.complement()
        self._proj_cols = proj.nonzero_columns()
        self.w_dim = len(comp)
        self.w_words = [{c: ONE} for c in comp]
        # Peirce block of each W basis element
        self.w_block = []
        for c in comp:
            p2, gi, p1 = self.u1_basis[c]
            self.w_block.append((B.btarget[p2], B.bsource[p1]))
        # bimodule action on W
        unit, rows = B.unit(), range(self.w_dim)
        self.WL = [_on_coords(rows, [self._project(self._sandwich(b, u, unit))
                                     for u in self.w_words])
                   for b in basis]
        self.WR = [_on_coords(rows, [self._project(self._sandwich(unit, u, c))
                                     for u in self.w_words])
                   for c in basis]

    def _project(self, u) -> dict:
        """The nonzero coordinates {w: a} in W of a degree-1 word u: the
        columns of the projection onto W at the terms of u, summed."""
        return _apply_cols(self._proj_cols, u.items())

    # -- counit -----------------------------------------------------------

    def _eps_word(self, u) -> dict:
        """eps of a degree-1 word u as {k: a} on B's basis: the word
        p2.omega.p1 of a grouplike goes to p2.p1, read off B's table, and
        a word of any other generator to zero."""
        q1, table = self.duals.q1, self.B.table
        terms = []
        for idx, x in u.items():
            p2, gi, p1 = self.u1_basis[idx]
            if q1[gi][2]:
                terms += [(k, x * a) for k, a in table[p2][p1].items()]
        return _sum_terms(terms)

    def _build_eps(self):
        for row in self.sub_span.rows:
            if self._eps_word(nonzeros(row)):
                raise ValueError(
                    "coalgebra axiom violated: well-definedness of eps")
        self.eps = _on_coords(range(self.B.dim),
                              [self._eps_word(u) for u in self.w_words])

    # -- comultiplication -------------------------------------------------

    def _dprime_terms(self, u):
        """(pi (x) pi) d' of a degree-1 word u, as the sorted nonzero terms
        (w1, w2, c) of sum c w1 (x) w2: the word p2.g.p1 goes to
        d'(p2).g.p1 + p2.d'(g).p1 - p2.g.d'(p1)."""
        B = self.B
        unit = B.unit()
        terms = []
        for idx, coeff in u.items():
            p2, gi, p1 = self.u1_basis[idx]
            b2, b1, g = B.basis_vec(p2), B.basis_vec(p1), self.gen[gi]
            terms += [(coeff, self._dprime_path(p2),
                       self._sandwich(unit, g, b1)),
                      (-coeff, self._sandwich(b2, g, unit),
                       self._dprime_path(p1))]
            for key, c2 in self.table.products_into(self.duals.q1[gi][1], 2,
                                                    self.r_max):
                (lp, mp, rp), (gl, gr) = self._split(key)
                terms.append((coeff * c2,
                              self._sandwich(B.multiply(b2, lp), gl, mp),
                              self._sandwich(unit, gr, B.multiply(rp, b1))))
        sides = [(c, self._project(left).items(),
                  self._project(right).items())
                 for c, left, right in terms]
        return sorted(k + (frac(a),) for k, a in _sum_terms(
            ((w1, w2), c * a * b) for c, lhs, rhs in sides
            for w1, a in lhs for w2, b in rhs).items())

    # -- kernel of the counit ---------------------------------------------

    def _build_kernel(self):
        """The basis of ker eps, and generators of it as a bimodule modulo
        rad B.ker eps + ker eps.rad B, one Peirce block at a time; d counts
        them per block.  The radical actions are read off their nonzero
        columns at the nonzeros of each kernel vector."""
        B = self.B
        kvecs = self.eps.kernel_basis()
        self.kernel_basis = [tuple(v) for v in kvecs]
        sides = [m.nonzero_columns() for k in B.radical_indices()
                 for m in (self.WL[k], self.WR[k])]
        svecs = []
        for v in self.kernel_basis:
            nz = nonzeros(v).items()
            for cols in sides:
                w = _apply_cols(cols, nz)
                if w:
                    svecs.append([w.get(y, ZERO) for y in range(self.w_dim)])
        span = Span(self.w_dim, svecs)
        self.d = {}
        self.kernel_generators = []
        for a in range(1, B.n + 1):
            for b in range(1, B.n + 1):
                for v in self.kernel_basis:
                    w = tuple(v[c] if self.w_block[c] == (a, b) else ZERO
                              for c in range(self.w_dim))
                    if span.add(w):
                        self.kernel_generators.append((a, b, w))
                        self.d[(a, b)] = self.d.get((a, b), 0) + 1

    def kernel_is_free(self) -> bool:
        """ker eps isomorphic to the free bimodule on its generators."""
        B = self.B
        expect = 0
        for (a, b), mult in self.d.items():
            be_a = sum(1 for k in range(B.dim) if B.bsource[k] == a)
            e_b_b = sum(1 for k in range(B.dim) if B.btarget[k] == b)
            expect += mult * be_a * e_b_b
        if expect != len(self.kernel_basis):
            return False
        # the sub-bimodule the generators span: every r(l(g)), read off
        # the nonzero columns of the actions
        lefts = [_apply_cols(m.nonzero_columns(), nonzeros(g).items())
                 for (a, b, g) in self.kernel_generators for m in self.WL]
        rights = [_apply_cols(m.nonzero_columns(), v.items())
                  for v in lefts if v for m in self.WR]
        span = Span(self.w_dim, [[w.get(y, ZERO) for y in range(self.w_dim)]
                                 for w in rights if w])
        return len(span) == len(self.kernel_basis)


class RightBasis:
    """M = W or R as a right B-module on a lift of its top.

    alg acts on M from the left (B on W, R on R).  block[m] is the Peirce
    block of the basis element m of M, right[b] the action of b from the
    right, and lcols[k][m] (rcols[b][m]) lists the (y, a) of k.m (m.b)
    for k in alg (b in B).  top lists, by left vertex, the t whose classes
    form a basis of M / M.rad B; t lies in the column v(t) = block[t][1].
    The t.e_v(t)B span M (Nakayama), so they are a basis of it when the
    counts of witness agree.  Then m = sum t.c_t(m), and coords[m] lists
    the terms (t, b, a) of the c_t(m) = sum a b in e_v(t)B; else coords is
    None.  tensors keeps each M (x)_B X built on this basis (tensor).
    """

    def __init__(self, name, alg, B, block, right, lcols):
        dim = len(block)
        self.name = name
        self.alg = alg
        self.block = block
        self.tensors = {}
        self.lcols = lcols
        self.rcols = [m.nonzero_columns() for m in right]
        rad = Span(dim, [col for k in B.radical_indices()
                         for col in right[k].columns()])
        self.top = rad.quotient_coords(key=lambda t: block[t][0])
        free = [(t, b) for t in self.top for b in range(B.dim)
                if B.btarget[b] == block[t][1]]
        self.witness = f"dim {name} = {dim}, sum of dim e_v(t)B = {len(free)}"
        self.coords = None
        if len(free) == dim:
            # right acts as B does (io checks a document's), so the t.b span M
            inv = Matrix.from_columns([right[b].column(t) for t, b in free]
                                      ).solve_columns(Matrix.identity(dim))
            if inv is None:
                raise AssertionError(f"dependent products t.b in {name}")
            self.coords = [[free[p] + (a,) for p, a in col]
                           for col in inv.nonzero_columns()]

    def require(self):
        """Raise ValueError unless the module is right-free on its top."""
        if self.coords is None:
            raise ValueError(
                f"{self.name} is not right-free on its top: {self.witness}")

    def rho(self, terms, cols=None) -> dict:
        """rho of sum c (key, w (x) x) over the terms (key, w, x, c): the
        nonzero entries {key + (t, y): coefficient} of sum c (key, c_t(w).x),
        where cols[b][x] lists the (y, a) of b.x, by default for X = M = W."""
        cols = cols or self.lcols
        return _sum_terms((key + (t, y), c * a * e) for key, w, x, c in terms
                          for t, b, a in self.coords[w] for y, e in cols[b][x])

    def tensor(self, X: FDModule) -> "TensorModule":
        """M (x)_B X, built once per module content and kept."""
        return _stored(self.tensors, X, TensorModule, self, X)


def _relations_from_pairings(table, duals, r_top):
    """One candidate relation per Ext^2 dual, paired against b' values."""
    rels = []
    for zname, zcls in duals.qm1:
        terms = [(coeff, zcls.i,
                  tuple(duals.arrow_of_class[c] for c in reversed(key)))
                 for key, coeff in table.products_into(zcls, 0, r_top)]
        if terms:
            rels.append((zname, terms))
    return rels


def _evaluates_to_zero(B: Algebra, terms) -> bool:
    arrow_idx = {name: k for name, s, t, k in B.arrows}
    acc = (ZERO,) * B.dim
    for coeff, source, names in terms:
        vec = _path_vec(B, arrow_idx, source, names)
        acc = tuple(a + coeff * c for a, c in zip(acc, vec))
    return vec_is_zero(acc)


def construct_bocs(alg: Algebra, order=None, mode: str = "pdelta",
                   r_max: int = 6, *, classification=None) -> Bocs:
    """Steps 1 to 5: the bocs of a filtered algebra.

    The table is built one degree beyond r_max so that the relation ideal
    of B can be compared at cutoffs r_max and r_max + 1; a difference
    raises the stabilization error.  Relations of B have degree at least
    2, so r_max below 2 is rejected.  A caller that has classified alg
    passes its Classification, whose standard system is then used; one
    built on another algebra or order raises ValueError.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    if classification is None:
        classification = classify_algebra(alg, order)
    elif classification.systems[mode].alg is not alg:
        raise ValueError("classification is of another algebra")
    elif order is not None and list(order) != classification.order:
        raise ValueError("classification is for another vertex order")
    if not classification.filtered(mode):
        raise ValueError("mode not admitted")
    order = classification.order
    rsys = ResolvedSystem(classification.systems[mode])
    table = build_tables(rsys, r_max=r_max + 1)
    duals = DualGenerators(table)

    quiver = Quiver(alg.n, [(name, cls.i, cls.j)
                            for name, cls in duals.q0])
    rels = _relations_from_pairings(table, duals, r_max)
    relation_set = RelationSet(
        quiver, [Relation(quiver, terms) for _, terms in rels])
    B = build_algebra(quiver, relation_set)

    rels_plus = _relations_from_pairings(table, duals, r_max + 1)
    for _, terms in rels_plus:
        if not _evaluates_to_zero(B, terms):
            raise ValueError(f"relation degree not stabilized at {r_max}")

    return Bocs(alg, order, mode, r_max, table, B, duals)


# -- coalgebra validation ---------------------------------------------------


def counit_identities(bocs: Bocs):
    """Per W basis element w, whether l_W (eps (x) 1) mu(w) = w and
    whether r_W (1 (x) eps) mu(w) = w: the sums of c eps(w1)_k k.w2 and
    of c eps(w2)_k w1.k over the terms (w1, w2, c) of mu(w).  They need
    only W, eps and mu, so a bocs read from a document is checked too."""
    eps = bocs.eps.nonzero_columns()
    lcols, rcols = bocs.right.lcols, bocs.right.rcols
    out = []
    for w, terms in enumerate(bocs.mu):
        left = _sum_terms((y, c * e * a) for w1, w2, c in terms
                          for k, e in eps[w1] for y, a in lcols[k][w2])
        right = _sum_terms((y, c * e * a) for w1, w2, c in terms
                           for k, e in eps[w2] for y, a in rcols[k][w1])
        out.append((left == {w: 1}, right == {w: 1}))
    return out


def validate_coalgebra(bocs: Bocs):
    """Check the coalgebra axioms on the K-basis of W.

    Returns, per axiom in the order checked, None when it holds and else
    the first element it fails at, such as "w3" or "omega1".  When W is
    not right-free on its top, "right-free" fails with RightBasis.witness
    and the axioms read in W (x)_B W are not checked.  Well-definedness
    and the grouplikes are read off the presentation of W by words, so a
    bocs read from a document (table None) is checked for the others.
    """
    B = bocs.B
    report = {}

    def record(axiom, ok, where):
        if report.setdefault(axiom, None) is None and not ok:
            report[axiom] = where

    wdim = bocs.w_dim
    for w, (left, right) in enumerate(counit_identities(bocs)):
        record("counit-left", left, f"w{w}")
        record("counit-right", right, f"w{w}")
    basis = bocs.right
    record("right-free", basis.coords is not None, basis.witness)
    if basis.coords is None:
        return report

    # rho with key () lands in W (x)_B W, with key (t,) in block t of
    # (W (x)_B W) (x)_B W
    # eps and rho mu on W, and b.- and -.b on B, as sparse columns, which
    # _apply_cols sums over the entries of a vector
    rho, lcols, rcols, mu = basis.rho, basis.lcols, basis.rcols, bocs.mu
    eps = bocs.eps.nonzero_columns()
    mu_ww = [rho(((), w1, w2, c) for w1, w2, c in terms).items()
             for terms in mu]

    for w, terms in enumerate(mu):
        # (mu (x) 1) mu(w) through rho(mu(w1)), and (1 (x) mu) mu(w)
        # through w1 = sum t.c_t(w1)
        lhs = rho(((t,), y, w2, c * a) for w1, w2, c in terms
                  for (t, y), a in mu_ww[w1])
        rhs = rho(((t,), y, v2, c * a * e * f) for w1, w2, c in terms
                  for t, b, a in basis.coords[w1]
                  for v1, v2, e in mu[w2] for y, f in lcols[b][v1])
        record("coassociativity", lhs == rhs, f"w{w}")

    # bilinearity of eps and mu
    for k in range(B.dim):
        left_k = [prod.items() for prod in B.table[k]]
        right_k = [row[k].items() for row in B.table]
        for w in range(wdim):
            ok = _apply_cols(eps, lcols[k][w]) == _apply_cols(left_k, eps[w])
            record("bilinearity", ok, f"eps-left-{B.labels[k]}-w{w}")
            ok = _apply_cols(eps, rcols[k][w]) == _apply_cols(right_k, eps[w])
            record("bilinearity", ok, f"eps-right-{B.labels[k]}-w{w}")

        # mu(b.w) against (b (x) 1) mu(w), and mu(w.b) against
        # (1 (x) b) mu(w), in W (x)_B W
        for w in range(wdim):
            ok = _apply_cols(mu_ww, lcols[k][w]) == rho(
                ((), y, w2, c * a) for w1, w2, c in mu[w]
                for y, a in lcols[k][w1])
            record("bilinearity", ok, f"mu-left-{B.labels[k]}-w{w}")
            ok = _apply_cols(mu_ww, rcols[k][w]) == rho(
                ((), w1, z, c * a) for w1, w2, c in mu[w]
                for z, a in rcols[k][w2])
            record("bilinearity", ok, f"mu-right-{B.labels[k]}-w{w}")

    # surjectivity of eps
    record("surjectivity", bocs.eps.rank() == B.dim, "eps")
    if bocs.table is None:
        return report

    # well-definedness on the quotient presentation
    for idx, row in enumerate(bocs.sub_span.rows):
        u = nonzeros(row)
        record("well-definedness", not bocs._eps_word(u), f"eps-sub{idx}")
        ok = not rho(((), w1, w2, c) for w1, w2, c in bocs._dprime_terms(u))
        record("well-definedness", ok, f"mu-sub{idx}")

    # grouplikes
    for i in range(1, B.n + 1):
        nz = list(bocs._project(bocs.gen[bocs.duals.omega_index(i)]).items())
        ok = _apply_cols(mu_ww, nz) == rho(((), u, v, a * b) for u, a in nz
                                           for v, b in nz)
        record("grouplike", ok, f"omega{i}")

    return report


# -- classification ---------------------------------------------------------


class BocsClass:
    def __init__(self, label, satisfies, d):
        self.label = label
        self.satisfies = list(satisfies)
        self.d = dict(d)

    def __repr__(self):
        return self.label


def radical_below(B: Algebra, rank, strict: bool) -> bool:
    """True when no radical basis element of B lies in a block e_i B e_j
    with i ranked below j, or at or below j when not strict."""
    below = lt if strict else le
    return not any(below(rank[B.btarget[k]], rank[B.bsource[k]])
                   for k in B.radical_indices())


def classify_bocs(bocs: Bocs) -> BocsClass:
    """Shape classification of the bocs against the vertex order."""
    if not bocs.kernel_is_free():
        return BocsClass("invalid", [], bocs.d)
    rank = {v: k for k, v in enumerate(bocs.order)}
    rad_le = radical_below(bocs.B, rank, strict=False)
    rad_lt = radical_below(bocs.B, rank, strict=True)
    blocks_gt = all(rank[a] > rank[b] for (a, b) in bocs.d)
    blocks_ge = all(rank[a] >= rank[b] for (a, b) in bocs.d)

    satisfies = []
    if rad_le and blocks_gt:
        satisfies.append("directed")
    if rad_le and blocks_ge:
        satisfies.append("weakly directed")
    if rad_lt and blocks_gt:
        satisfies.append("one-cyclic directed")
    if satisfies:
        return BocsClass(satisfies[0], satisfies, bocs.d)
    return BocsClass("projective-kernel only", ["projective-kernel only"],
                     bocs.d)


# -- the module category ----------------------------------------------------


class TensorModule(FDModule):
    """M (x)_B X over the RightBasis of M = W or R, an alg-module.

    It is the sum of the e_v(t)X over the top t, on the coordinates
    (t, x), x in e_v(t)X, that chosen lists; (t, x) is the image of the
    pair t (x) x.  A radical k in alg acts by k.(t (x) x) = rho(k.t (x) x),
    and each e_v by its projection (FDModule).  W (x)_B X is the source
    of the bocs morphisms out of X; on it pair_image sets
    proj, rho from the pairs (w, x) of W (x) X, in the order of w and then
    x, and bocs_lift sets counit, the map w (x) x to eps(w) x, each the
    first time it is needed.  R (x)_B X is the induced module (induce).
    An M not right-free on its top raises ValueError.
    """

    def __init__(self, basis: RightBasis, X: FDModule):
        basis.require()
        block = basis.block
        self.X = X
        self.proj = self.counit = None
        self.chosen = [(t, x) for t in basis.top
                       for x in X.vertex_range(block[t][1])]
        dims = [sum(block[t][0] == i for t, _ in self.chosen)
                for i in range(1, basis.alg.n + 1)]
        cols = [a.nonzero_columns() for a in X.act]

        def left(k):
            lc = basis.lcols[k]
            return _on_coords(self.chosen, [
                basis.rho([((), u, x, c) for u, c in lc[t]], cols)
                for t, x in self.chosen])
        super().__init__(basis.alg, dims, _act(basis.alg, left))


def _on_coords(keys, columns) -> Matrix:
    """The Matrix of the sparse columns, its rows the keys."""
    return Matrix(len(keys), len(columns),
                  [[col.get(k, ZERO) for col in columns] for k in keys])


def tensor_module(bocs: Bocs, X: FDModule) -> TensorModule:
    """W (x)_B X, built once per module content and kept on the bocs."""
    return bocs.right.tensor(X)


def _hom_source(bocs: Bocs, f: ModuleMap) -> TensorModule:
    src = f.source
    if not (isinstance(src, TensorModule)
            and bocs.right.tensors.get(src.X) is src):
        raise ValueError("hom source was not built by this bocs")
    return src


def bocs_hom_basis(bocs: Bocs, X: FDModule, Y: FDModule):
    """Basis of the hom space from X to Y in the bocs module category.

    Morphisms are B-module maps out of W (x)_B X."""
    return hom_basis(tensor_module(bocs, X), Y)


def _counit(eps: Matrix, tx: TensorModule) -> Matrix:
    """The counit of W (x)_B X: the pair (w, x) goes to eps(w) x, summed
    over the nonzero coefficients of eps(w), read at the chosen pairs."""
    X = tx.X
    terms = eps.nonzero_columns()
    out = [[ZERO] * len(tx.chosen) for _ in range(X.total)]
    for p, (w, x) in enumerate(tx.chosen):
        for k, c in terms[w]:
            for y, row in enumerate(X.act[k].data):
                a = row[x]
                if a:
                    out[y][p] += c * a
    return Matrix(X.total, len(tx.chosen), out)


def bocs_lift(bocs: Bocs, u: ModuleMap) -> ModuleMap:
    """A B-module map u: X -> Y as a bocs morphism, through the counit:
    w (x) x goes to u(eps(w) x)."""
    tx = tensor_module(bocs, u.source)
    if tx.counit is None:
        tx.counit = _counit(bocs.eps, tx)
    return ModuleMap(tx, u.target, u.mat @ tx.counit)


# A bocs morphism f: W (x)_B X -> Y read on the pairs of W (x) X: source
# is W (x)_B X, target is Y, and cols[w][x] lists the nonzero entries
# (y, a) of f(w (x) x) = sum a y.
PairImage = namedtuple("PairImage", "source target cols")


def pair_image(bocs: Bocs, f: ModuleMap) -> PairImage:
    """f on the pairs of W (x) X, through proj."""
    tx = _hom_source(bocs, f)
    n = tx.X.total
    if tx.proj is None:
        cols = [a.nonzero_columns() for a in tx.X.act]
        tx.proj = _on_coords(tx.chosen, [
            bocs.right.rho([((), w, x, 1)], cols)
            for w in range(bocs.w_dim) for x in range(n)])
    cols = (f.mat @ tx.proj).nonzero_columns()
    return PairImage(tx, f.target,
                     [cols[w * n:(w + 1) * n] for w in range(bocs.w_dim)])


def bocs_compose(bocs: Bocs, g, f) -> ModuleMap:
    """g after f in the bocs module category, through mu.

    g and f are bocs morphisms or their pair images; a caller composing
    many pairs forms each pair image once.  The coordinate of W (x)_B X
    at the chosen pair (w, x) goes to

        sum over mu(w) = sum c w1 (x) w2, and over the nonzero entries
        f(w2 (x) x) = sum a y, of c a g(w1 (x) y).

    Only the chosen pairs, nonzero terms of mu and nonzero entries of f
    and g are visited.
    """
    g, f = (h if isinstance(h, PairImage) else pair_image(bocs, h)
            for h in (g, f))
    chosen = f.source.chosen
    rows = g.target.total
    out = [[ZERO] * len(chosen) for _ in range(rows)]
    for k, (w, x) in enumerate(chosen):
        for w1, w2, c in bocs.mu[w]:
            gcols = g.cols[w1]
            for y, a in f.cols[w2][x]:
                ca = c * a
                for z, b in gcols[y]:
                    out[z][k] += ca * b
    return ModuleMap(f.source, g.target, Matrix(rows, len(chosen), out))
