"""Differential bocses attached to filtered algebras.

The construction dualizes the truncated transferred products: arrows of B
are duals of Ext^1 classes, relations of B pair Ext^2 duals against the
b'-products of Ext^1 tuples, the bimodule W is the degree-1 part of the
dg tensor category modulo the image of d' on B, and the comultiplication
is the projected d'.  Words are handled with the package-wide convention
that the rightmost factor acts first.

Tensor products over B are quotients of plain tensor products in the
row-major layout of linalg.outer: W (x)_B W, where mu lands, W (x)_B W
(x)_B W, where coassociativity is checked, and W (x)_B X, which gives the
morphisms Hom_B(W (x)_B X, Y) of the module category.  Their relations
come from linalg.balanced_relations, and linalg.kron_apply applies maps
such as 1 (x) mu to them.
"""

from __future__ import annotations

from .ainf import AInfTable, build_tables
from .linalg import (Matrix, ONE, Span, ZERO, balanced_relations,
                     kron_apply, outer, vec_is_zero)
from .modules import FDModule, ModuleMap, hom_basis, quotient
from .quiver import (Algebra, Quiver, Relation, RelationSet, build_algebra)
from .resolution import ResolvedSystem
from .strata import classify_algebra, standard_modules


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


def _tuples_with_h0(table: AInfTable, r: int, h0_count: int, src: int,
                    tgt: int):
    """Composable display tuples (a_r..a_1) from src to tgt with the given
    number of degree-0 entries, the rest of degree 1."""
    n = table.rsys.alg.n
    out = []

    def extend(chain, vertex, zeros):
        if len(chain) == r:
            if vertex == tgt and zeros == h0_count:
                out.append(tuple(reversed(chain)))
            return
        remaining = r - len(chain)
        for deg in (0, 1):
            if deg == 0 and zeros == h0_count:
                continue
            need = zeros + (1 if deg == 0 else 0)
            if need + 0 > h0_count or h0_count - need > remaining - 1:
                continue
            for j in range(1, n + 1):
                for cls in table.classes[(deg, vertex, j)]:
                    chain.append(cls)
                    extend(chain, j, need)
                    chain.pop()

    extend([], src, 0)
    return out


class Bocs:
    """The bocs (B, W, eps, mu) of a filtered algebra.

    All structure constants live on explicit bases: W is presented by a
    complement of the killed sub-bimodule inside the degree-1 words, eps
    and mu are matrices, and the Peirce blocks of every W basis element
    are recorded for classification.
    """

    def __init__(self, alg, order, mode, r_max, table, B, duals):
        self._set_base(alg, order, mode, r_max, table, B, duals)
        self._build_u1()
        self._build_dprime()
        self._build_w()
        self._build_eps()
        self._build_mu()
        self._build_kernel()

    def _set_base(self, alg, order, mode, r_max, table, B, duals):
        self.alg = alg
        self.order = order
        self.mode = mode
        self.r_max = r_max
        self.table = table
        self.B = B
        self.duals = duals
        self.arrow_idx = {name: k for name, s, t, k in B.arrows}
        self._tensor_cache = {}
        self._dpath_cache = {}

    @classmethod
    def from_parts(cls, B, order, mode, r_max, *, w_dim, w_block, WL, WR,
                   eps, mu_pairs, kernel_basis, kernel_generators, d):
        """The bocs of a document, from B, W, eps, mu and the kernel data.

        It has no algebra, A-infinity table or duals (alg, table and duals
        are None), so validate_coalgebra does not apply to it.
        """
        bocs = cls.__new__(cls)
        bocs._set_base(None, list(order), mode, r_max, None, B, None)
        bocs.w_dim = w_dim
        bocs.w_block = w_block
        bocs.WL = WL
        bocs.WR = WR
        bocs.eps = eps
        bocs.mu_pairs = mu_pairs
        bocs.kernel_basis = kernel_basis
        bocs.kernel_generators = kernel_generators
        bocs.d = d
        return bocs

    # -- degree-1 words ---------------------------------------------------

    def _build_u1(self):
        B = self.B
        self.u1_basis = []
        for gi, (name, cls, ident) in enumerate(self.duals.q1):
            i, j = cls.i, cls.j
            lefts = [p for p in range(B.dim) if B.bsource[p] == j]
            rights = [p for p in range(B.dim) if B.btarget[p] == i]
            for p2 in lefts:
                for p1 in rights:
                    self.u1_basis.append((p2, gi, p1))
        self.u1_index = {t: k for k, t in enumerate(self.u1_basis)}
        self.u1_dim = len(self.u1_basis)
        # left and right multiplication by B basis elements
        self.L1 = []
        self.R1 = []
        for k in range(B.dim):
            lcols = []
            rcols = []
            for (p2, gi, p1) in self.u1_basis:
                prod = B.multiply(B.basis_vec(k), B.basis_vec(p2))
                col = [ZERO] * self.u1_dim
                for m, c in enumerate(prod):
                    if c != 0:
                        col[self.u1_index[(m, gi, p1)]] = c
                lcols.append(col)
                prod = B.multiply(B.basis_vec(p1), B.basis_vec(k))
                col = [ZERO] * self.u1_dim
                for m, c in enumerate(prod):
                    if c != 0:
                        col[self.u1_index[(p2, gi, m)]] = c
                rcols.append(col)
            self.L1.append(Matrix.from_columns(lcols) if self.u1_dim
                           else Matrix.zero(0, 0))
            self.R1.append(Matrix.from_columns(rcols) if self.u1_dim
                           else Matrix.zero(0, 0))

    def _b_elt(self, chunk, start_vertex):
        """Product in B of the dual arrows of a display-ordered chunk."""
        B = self.B
        vec = B.idempotent(start_vertex)
        for cls in reversed(chunk):
            name = self.duals.arrow_of_class[cls]
            vec = B.multiply(B.basis_vec(self.arrow_idx[name]), vec)
        return vec

    def _build_dprime(self):
        """d' of each arrow of B as a degree-1 word vector."""
        table = self.table
        self.dprime_arrow = {}
        gi_of_cls = {cls: gi for gi, (name, cls, ident)
                     in enumerate(self.duals.q1)}
        for name, cls in self.duals.q0:
            vec = [ZERO] * self.u1_dim
            for r in range(2, self.r_max + 1):
                for key in _tuples_with_h0(table, r, 1, cls.i, cls.j):
                    coeff = table.bprime(key).get(cls)
                    if not coeff:
                        continue
                    pos = next(p for p, c in enumerate(key) if c.k == 0)
                    h0 = key[pos]
                    lp = self._b_elt(key[:pos], h0.j)
                    rp = self._b_elt(key[pos + 1:], key[-1].i if pos + 1
                                     < len(key) else h0.i)
                    gi = gi_of_cls[h0]
                    for p2, c2 in enumerate(lp):
                        if c2 == 0:
                            continue
                        for p1, c1 in enumerate(rp):
                            if c1 != 0:
                                k = self.u1_index[(p2, gi, p1)]
                                vec[k] += coeff * c2 * c1
            self.dprime_arrow[name] = tuple(vec)
        self._gi_of_cls = gi_of_cls

    def _dprime_path(self, k: int):
        """d' of a basis path of B, as a degree-1 word vector."""
        got = self._dpath_cache.get(k)
        if got is not None:
            return got
        B = self.B
        source, names = B.paths[k]
        vec = [ZERO] * self.u1_dim
        suffix = B.idempotent(source)
        for t, name in enumerate(names):
            pre = B.idempotent(B.quiver.arrow_target(name))
            for nm in names[t + 1:]:
                pre = B.multiply(B.basis_vec(self.arrow_idx[nm]), pre)
            mid = self._u1_sandwich(pre, self.dprime_arrow[name], suffix)
            vec = [a + b for a, b in zip(vec, mid)]
            suffix = B.multiply(B.basis_vec(self.arrow_idx[name]), suffix)
        out = tuple(vec)
        self._dpath_cache[k] = out
        return out

    def _u1_sandwich(self, bvec, uvec, cvec):
        """bvec * uvec * cvec with the outer factors in B."""
        out = [ZERO] * self.u1_dim
        cur = list(uvec)
        acc = [ZERO] * self.u1_dim
        for k, c in enumerate(bvec):
            if c != 0:
                img = self.L1[k].apply(cur)
                acc = [a + c * b for a, b in zip(acc, img)]
        for k, c in enumerate(cvec):
            if c != 0:
                img = self.R1[k].apply(acc)
                out = [a + c * b for a, b in zip(out, img)]
        return tuple(out)

    def _build_w(self):
        B = self.B
        span = []
        for name, cls in self.duals.q0:
            dv = self.dprime_arrow[name]
            for b2 in range(B.dim):
                step = self.L1[b2].apply(dv)
                if vec_is_zero(step):
                    continue
                for b1 in range(B.dim):
                    v = self.R1[b1].apply(step)
                    if not vec_is_zero(v):
                        span.append(tuple(v))
        self.sub_span = Span(self.u1_dim, span)
        comp, self.w_proj, self.w_sect = self.sub_span.complement()
        self.w_dim = len(comp)
        # Peirce block of each W basis element
        self.w_block = []
        for c in comp:
            p2, gi, p1 = self.u1_basis[c]
            self.w_block.append((B.btarget[p2], B.bsource[p1]))
        # bimodule action on W
        self.WL = [self.w_proj @ self.L1[k] @ self.w_sect
                   for k in range(B.dim)]
        self.WR = [self.w_proj @ self.R1[k] @ self.w_sect
                   for k in range(B.dim)]

    # -- counit -----------------------------------------------------------

    def _build_eps(self):
        B = self.B
        cols = []
        for (p2, gi, p1) in self.u1_basis:
            name, cls, ident = self.duals.q1[gi]
            if ident:
                cols.append(list(B.multiply(B.basis_vec(p2),
                                            B.basis_vec(p1))))
            else:
                cols.append([ZERO] * B.dim)
        self.eps_u1 = (Matrix.from_columns(cols) if cols
                       else Matrix.zero(B.dim, 0))
        for row in self.sub_span.rows:
            if not vec_is_zero(self.eps_u1.apply(row)):
                raise ValueError(
                    "coalgebra axiom violated: well-definedness of eps")
        self.eps = self.eps_u1 @ self.w_sect

    # -- comultiplication -------------------------------------------------

    def _dprime_u1_pairs(self, uvec):
        """(pi tensor pi) d' of a degree-1 word vector, on W x W pairs."""
        B = self.B
        acc = [ZERO] * (self.w_dim * self.w_dim)

        def add_pair(left_u1, right_u1, c):
            pair = outer(self.w_proj.apply(left_u1),
                         self.w_proj.apply(right_u1))
            for p, x in enumerate(pair):
                if x != 0:
                    acc[p] += c * x

        for idx, coeff in enumerate(uvec):
            if coeff == 0:
                continue
            p2, gi, p1 = self.u1_basis[idx]
            name, cls, ident = self.duals.q1[gi]
            i, j = cls.i, cls.j
            # d'(p2) . g . p1
            dp2 = self._dprime_path(p2)
            if not vec_is_zero(dp2):
                gp1 = [ZERO] * self.u1_dim
                gp1[self.u1_index[(B.unit_index[j - 1], gi, p1)]] = ONE
                add_pair(dp2, gp1, coeff)
            # p2 . d'(g) . p1  (two degree-0 letters in each word)
            for r in range(2, self.r_max + 1):
                for key in _tuples_with_h0(self.table, r, 2, i, j):
                    c2 = self.table.bprime(key).get(cls)
                    if not c2:
                        continue
                    pos = [p for p, k2 in enumerate(key) if k2.k == 0]
                    sL, sR = pos[0], pos[1]
                    hL, hR = key[sL], key[sR]
                    lp = self._b_elt(key[:sL], hL.j)
                    mp = self._b_elt(key[sL + 1:sR], hR.j)
                    rp = self._b_elt(key[sR + 1:],
                                     key[-1].i if sR + 1 < len(key)
                                     else hR.i)
                    left = self._u1_sandwich(
                        B.multiply(B.basis_vec(p2), lp),
                        self._q1_word(self._gi_of_cls[hL], hL), mp)
                    right = self._u1_sandwich(
                        B.idempotent(hR.j),
                        self._q1_word(self._gi_of_cls[hR], hR),
                        B.multiply(rp, B.basis_vec(p1)))
                    add_pair(left, right, coeff * c2)
            # - p2 . g . d'(p1)
            dp1 = self._dprime_path(p1)
            if not vec_is_zero(dp1):
                p2g = [ZERO] * self.u1_dim
                p2g[self.u1_index[(p2, gi, B.unit_index[i - 1])]] = ONE
                add_pair(p2g, dp1, -coeff)
        return tuple(acc)

    def _q1_word(self, gi, cls):
        vec = [ZERO] * self.u1_dim
        j = cls.j
        i = cls.i
        vec[self.u1_index[(self.B.unit_index[j - 1], gi,
                           self.B.unit_index[i - 1])]] = ONE
        return tuple(vec)

    def _build_mu(self):
        pdim = self.w_dim * self.w_dim
        cols = []
        for w in range(self.w_dim):
            uvec = self.w_sect.column(w)
            cols.append(list(self._dprime_u1_pairs(uvec)))
        self.mu_pairs = (Matrix.from_columns(cols) if cols
                         else Matrix.zero(pdim, 0))
        # the balanced tensor square W (x)_B W
        self.ww_span = Span(pdim, balanced_relations(self.WR, self.WL))
        _, self.ww_proj, _ = self.ww_span.complement()
        self.mu = self.ww_proj @ self.mu_pairs

    # -- kernel of the counit ---------------------------------------------

    def _build_kernel(self):
        B = self.B
        kvecs = self.eps.kernel_basis()
        self.kernel_basis = [tuple(v) for v in kvecs]
        rad = B.radical_indices()
        svecs = []
        for v in self.kernel_basis:
            for k in rad:
                for m in (self.WL[k], self.WR[k]):
                    w = m.apply(v)
                    if not vec_is_zero(w):
                        svecs.append(tuple(w))
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
        span = []
        for (a, b, g) in self.kernel_generators:
            for x in range(B.dim):
                step = self.WL[x].apply(g)
                if vec_is_zero(step):
                    continue
                for y in range(B.dim):
                    v = self.WR[y].apply(step)
                    if not vec_is_zero(v):
                        span.append(tuple(v))
        return len(Span(self.w_dim, span)) == len(self.kernel_basis)


def _relations_from_pairings(table, duals, r_top):
    """One candidate relation per Ext^2 dual, paired against b' values."""
    rels = []
    for zname, zcls in duals.qm1:
        terms = []
        for r in range(2, r_top + 1):
            for key in _tuples_with_h0(table, r, 0, zcls.i, zcls.j):
                coeff = table.bprime(key).get(zcls)
                if coeff:
                    names = tuple(duals.arrow_of_class[c]
                                  for c in reversed(key))
                    terms.append((coeff, zcls.i, names))
        if terms:
            rels.append((zname, terms))
    return rels


def _evaluates_to_zero(B: Algebra, terms) -> bool:
    arrow_idx = {name: k for name, s, t, k in B.arrows}
    acc = (ZERO,) * B.dim
    for coeff, source, names in terms:
        vec = B.idempotent(source)
        for name in names:
            vec = B.multiply(B.basis_vec(arrow_idx[name]), vec)
        acc = tuple(a + coeff * c for a, c in zip(acc, vec))
    return vec_is_zero(acc)


def construct_bocs(alg: Algebra, order=None, mode: str = "pdelta",
                   r_max: int = 6) -> Bocs:
    """Steps 1 to 5: the bocs of a filtered algebra.

    The table is built one degree beyond r_max so that the relation ideal
    of B can be compared at cutoffs r_max and r_max + 1; a difference
    raises the stabilization error.  Relations of B have degree at least
    2, so r_max below 2 is rejected.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    classification = classify_algebra(alg, order)
    if not classification.filtered(mode):
        raise ValueError("mode not admitted")
    order = classification.order
    system = standard_modules(alg, order, mode)
    rsys = ResolvedSystem(system)
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


def validate_coalgebra(bocs: Bocs, raise_on_fail: bool = True):
    """Check the coalgebra axioms on the K-basis of W.

    Returns a dict of verdicts; with raise_on_fail, the first failure
    raises ValueError naming the axiom and the basis element.
    """
    B = bocs.B
    report = {}
    failures = []

    def record(axiom, ok, where=""):
        report.setdefault(axiom, True)
        if not ok:
            report[axiom] = False
            failures.append((axiom, where))

    wdim = bocs.w_dim
    mu = bocs.mu_pairs
    eye = Matrix.identity(wdim)

    # counit identities: l_W (eps (x) 1) mu = 1 = r_W (1 (x) eps) mu,
    # with l_W on B (x) W and r_W on W (x) B in the layout of outer
    l_w = Matrix.from_columns([m.column(x) for m in bocs.WL
                               for x in range(wdim)])
    r_w = Matrix.from_columns([m.column(x) for x in range(wdim)
                               for m in bocs.WR])
    for w in range(wdim):
        col = mu.column(w)
        unit = eye.column(w)
        record("counit-left",
               l_w.apply(kron_apply(bocs.eps, eye, col)) == unit, f"w{w}")
        record("counit-right",
               r_w.apply(kron_apply(eye, bocs.eps, col)) == unit, f"w{w}")

    # coassociativity in W (x)_B W (x)_B W, whose relations are those of
    # W (x)_B W tensored with W on either side
    units = eye.columns()
    span3 = Span(wdim ** 3,
                 [outer(r, e) for r in bocs.ww_span.rows for e in units]
                 + [outer(e, r) for e in units for r in bocs.ww_span.rows])
    for w in range(wdim):
        col = mu.column(w)
        diff = [a - b for a, b in zip(kron_apply(eye, mu, col),
                                      kron_apply(mu, eye, col))]
        record("coassociativity", diff in span3, f"w{w}")

    # bilinearity of eps and mu
    for k in range(B.dim):
        for w in range(wdim):
            ev = bocs.eps.column(w)
            lhs = bocs.eps.apply(bocs.WL[k].column(w))
            ok = tuple(lhs) == tuple(B.multiply(B.basis_vec(k), ev))
            record("bilinearity", ok, f"eps-left-{B.labels[k]}-w{w}")
            lhs = bocs.eps.apply(bocs.WR[k].column(w))
            ok = tuple(lhs) == tuple(B.multiply(ev, B.basis_vec(k)))
            record("bilinearity", ok, f"eps-right-{B.labels[k]}-w{w}")

        # mu(b.w) against (b (x) 1) mu(w), and mu(w.b) against
        # (1 (x) b) mu(w), in W (x)_B W
        for w in range(wdim):
            col = mu.column(w)
            diff = [a - b for a, b in zip(mu.apply(bocs.WL[k].column(w)),
                                          kron_apply(bocs.WL[k], eye, col))]
            record("bilinearity", vec_is_zero(bocs.ww_proj.apply(diff)),
                   f"mu-left-{B.labels[k]}-w{w}")
            diff = [a - b for a, b in zip(mu.apply(bocs.WR[k].column(w)),
                                          kron_apply(eye, bocs.WR[k], col))]
            record("bilinearity", vec_is_zero(bocs.ww_proj.apply(diff)),
                   f"mu-right-{B.labels[k]}-w{w}")

    # surjectivity of eps
    record("surjectivity", bocs.eps.rank() == B.dim, "eps")

    # well-definedness on the quotient presentation
    for idx, row in enumerate(bocs.sub_span.rows):
        ok = vec_is_zero(bocs.eps_u1.apply(row))
        record("well-definedness", ok, f"eps-sub{idx}")
        pairs = bocs._dprime_u1_pairs(row)
        ok = vec_is_zero(bocs.ww_proj.apply(pairs))
        record("well-definedness", ok, f"mu-sub{idx}")

    # grouplikes
    for i in range(1, B.n + 1):
        gi = bocs.duals.omega_index(i)
        wvec = bocs.w_proj.apply(bocs._q1_word(gi, bocs.duals.q1[gi][1]))
        diff = [a - b for a, b in zip(mu.apply(wvec), outer(wvec, wvec))]
        ok = vec_is_zero(bocs.ww_proj.apply(diff))
        record("grouplike", ok, f"omega{i}")

    if failures and raise_on_fail:
        axiom, where = failures[0]
        raise ValueError(f"coalgebra axiom violated: {axiom} at {where}")
    return report


# -- classification ---------------------------------------------------------


class BocsClass:
    def __init__(self, label, satisfies, d):
        self.label = label
        self.satisfies = list(satisfies)
        self.d = dict(d)

    def __eq__(self, other):
        if isinstance(other, str):
            return self.label == other
        return NotImplemented

    def __repr__(self):
        return self.label


def classify_bocs(bocs: Bocs) -> BocsClass:
    """Shape classification of the bocs against the vertex order."""
    if not bocs.kernel_is_free():
        return BocsClass("invalid", [], bocs.d)
    B = bocs.B
    rank = {v: k for k, v in enumerate(bocs.order)}

    def rad_zero(i, j):
        for k in bocs.B.block_indices(i, j):
            if B.bdegree[k] >= 1:
                return False
        return True

    rad_le = all(rad_zero(i, j) for i in range(1, B.n + 1)
                 for j in range(1, B.n + 1) if rank[i] <= rank[j])
    rad_lt = all(rad_zero(i, j) for i in range(1, B.n + 1)
                 for j in range(1, B.n + 1) if rank[i] < rank[j])
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


class TensorModule:
    """W (x)_B X presented as a quotient of the pair space."""

    def __init__(self, bocs: Bocs, X: FDModule):
        self.bocs = bocs
        self.X = X
        B = bocs.B
        wdim = bocs.w_dim
        # pair coordinates ordered by the target block of the W factor
        pairs = [(w, x) for w in range(wdim) for x in range(X.total)]
        pairs.sort(key=lambda p: (bocs.w_block[p[0]][0], p[0], p[1]))
        self.pairs = pairs
        index = {p: k for k, p in enumerate(pairs)}
        dims = [0] * B.n
        for (w, x) in pairs:
            dims[bocs.w_block[w][0] - 1] += 1
        act = []
        for k in range(B.dim):
            cols = []
            for (w, x) in pairs:
                img = bocs.WL[k].column(w)
                col = [ZERO] * len(pairs)
                for y, c in enumerate(img):
                    if c != 0:
                        col[index[(y, x)]] = c
                cols.append(col)
            act.append(Matrix.from_columns(cols) if pairs
                       else Matrix.zero(0, 0))
        self.big = FDModule(B, dims, act, name=f"W(x){X.name}")
        # the relations in the layout of outer, read at the sorted pairs
        layout = [w * X.total + x for (w, x) in pairs]
        relvecs = [[v[p] for p in layout]
                   for v in balanced_relations(bocs.WR, X.act)]
        self.module, self.proj, self.sect = quotient(
            self.big, relvecs, name=f"W(x)B{X.name}")
        self.index = index

    def pair_vec(self, w_vec, x_vec):
        v = [ZERO] * len(self.pairs)
        for w, cw in enumerate(w_vec):
            if cw == 0:
                continue
            for x, cx in enumerate(x_vec):
                if cx != 0:
                    v[self.index[(w, x)]] += cw * cx
        return v


def tensor_module(bocs: Bocs, X: FDModule) -> TensorModule:
    got = bocs._tensor_cache.get(id(X))
    if got is None or got.X is not X:
        got = TensorModule(bocs, X)
        bocs._tensor_cache[id(X)] = got
        bocs._tensor_cache[id(got.module)] = got
    return got


def _tensor_of_hom_source(bocs: Bocs, module: FDModule) -> TensorModule:
    got = bocs._tensor_cache.get(id(module))
    if got is None or got.module is not module:
        raise ValueError("hom source was not built by this bocs")
    return got


def bocs_hom_basis(bocs: Bocs, X: FDModule, Y: FDModule):
    """Basis of the hom space from X to Y in the bocs module category.

    Morphisms are B-module maps out of W (x)_B X."""
    tx = tensor_module(bocs, X)
    return hom_basis(tx.module, Y)


def bocs_identity(bocs: Bocs, X: FDModule) -> ModuleMap:
    """The identity morphism on X, through the counit."""
    tx = tensor_module(bocs, X)
    cols = []
    for (w, x) in tx.pairs:
        ev = bocs.eps.column(w)
        xv = [ONE if k == x else ZERO for k in range(X.total)]
        cols.append(list(X.act_elt(ev).apply(xv)))
    big = Matrix.from_columns(cols) if tx.pairs else Matrix.zero(X.total, 0)
    return ModuleMap(tx.module, X, big @ tx.sect)


def bocs_compose(bocs: Bocs, g: ModuleMap, f: ModuleMap) -> ModuleMap:
    """g after f in the bocs module category, through mu."""
    tx = _tensor_of_hom_source(bocs, f.source)
    ty = _tensor_of_hom_source(bocs, g.source)
    X = tx.X
    Z = g.target
    f_big = f.mat @ tx.proj.mat
    g_big = g.mat @ ty.proj.mat
    wdim = bocs.w_dim
    cols = []
    for (w, x) in tx.pairs:
        mu_col = bocs.mu_pairs.column(w)
        out = [ZERO] * Z.total
        for p, c in enumerate(mu_col):
            if c == 0:
                continue
            w1, w2 = divmod(p, wdim)
            xv = [ONE if k == x else ZERO for k in range(X.total)]
            yv = f_big.apply(tx.pair_vec(
                [ONE if k == w2 else ZERO for k in range(wdim)], xv))
            zv = g_big.apply(ty.pair_vec(
                [ONE if k == w1 else ZERO for k in range(wdim)], yv))
            out = [a + c * b for a, b in zip(out, zv)]
        cols.append(out)
    big = Matrix.from_columns(cols) if tx.pairs else Matrix.zero(Z.total, 0)
    return ModuleMap(tx.module, Z, big @ tx.sect)
