"""The right algebra of a bocs and its Borel-type verifications.

R is the endomorphism algebra of B in the bocs module category with the
opposite product, realized by structure constants on a chosen hom basis.
R is right-free over B on a lift of its top (RightBasis), and induction
to R-modules is R (x)_B X read off that top, as W (x)_B X is read off
W's (TensorModule): r.(t (x) x) = rho(r.t (x) x), and a B-module map u
goes to 1 (x) u.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain

from .bocs import (Bocs, RightBasis, TensorModule, _on_coords, bocs_compose,
                   bocs_hom_basis, bocs_lift, pair_image, radical_below,
                   tensor_module)
from .linalg import (MapSpace, Matrix, ONE, Span, ZERO, _apply_cols,
                     _sum_terms, nonzeros, qdiv)
from .modules import (FDModule, ModuleMap, hom_basis, is_isomorphic,
                      projective_cover, simple, sum_of_projectives, syzygies)
from .quiver import Algebra, from_structure_constants
from .strata import StandardSystem, theta_filtration


# -- generic linear helpers -------------------------------------------------


def _syzygy_ext(steps, N: FDModule):
    """Ext^k(M, N) at the last syzygy Omega of k steps of covers of M:
    the cocycles Hom(Omega, N), the Span of the coboundaries, maps out
    of the last cover restricted to Omega, and the dimension of Ext^k.
    The covers may be any projectives, not only minimal ones."""
    cover, omega, incl = steps[-1]
    cocycles = hom_basis(omega, N)
    bound = Span(N.total * omega.total,
                 [(h.mat @ incl.mat).flat()
                  for h in hom_basis(cover.source, N)])
    return cocycles, bound, len(cocycles) - len(bound)


def ext_dimension(M: FDModule, N: FDModule, k: int) -> int:
    """dim Ext^k via syzygies from minimal covers (k >= 1)."""
    return _syzygy_ext(syzygies(M, k), N)[2]


# -- the right algebra ------------------------------------------------------


class RightAlgebra:
    """End of B in the bocs category, opposed, with the B-embedding.

    basis holds the chosen hom-space basis (maps W (x) B -> B); R is the
    structure-constant algebra on it; emb_cols[k] is the image in R of
    the k-th basis element of B, as a sparse column {R coordinate: c};
    coord_of_basis identifies the regular module's
    coordinates with the basis of B; right_act[k] is the right action of
    the k-th basis element of B on R, and right is R's RightBasis, with
    R acting from the left through its table; its tensors keep the
    induced modules (induce).
    """

    def __init__(self, bocs: Bocs):
        self.bocs = bocs
        B = bocs.B
        self.XB = sum_of_projectives(B, list(range(1, B.n + 1)))
        self.basis = bocs_hom_basis(bocs, self.XB, self.XB)
        space = MapSpace([h.mat for h in self.basis], self.XB.total,
                         tensor_module(bocs, self.XB).total)
        # regular-module coordinate of each algebra basis element
        self.coord_of_basis = {}
        for (gcoord, vtx, word_idxs) in self.XB.proj_gens:
            for coord, widx in word_idxs:
                self.coord_of_basis[widx] = coord
        if len(self.coord_of_basis) != B.dim:
            raise AssertionError("regular module coordinates degenerate")

        # R is End(B) opposed: basis[i] * basis[j] is basis[j] after
        # basis[i], through pair images formed once per basis map.  g
        # after f is zero unless f lands in g's source summand, so only
        # those pairs are composed.
        summand = {c: s for s, (_, _, words) in enumerate(self.XB.proj_gens)
                   for c, _ in words}
        blocks = [_summands(h, summand) for h in self.basis]
        images = [pair_image(bocs, h) for h in self.basis]
        table = [[nonzeros(space.coords(bocs_compose(bocs, g, f).mat))
                  if bf[1] == bg[0] else {}
                  for g, bg in zip(images, blocks)]
                 for f, bf in zip(images, blocks)]
        # the images of B's basis elements in raw coordinates; e_i is the
        # basis element at unit_index, so its image is read off them
        raw = [space.coords(self._phi_raw(B.basis_vec(k)).mat)
               for k in range(B.dim)]
        R = self.R = from_structure_constants(
            B.n, table, [raw[k] for k in B.unit_index])
        to_new = R.old_to_new.nonzero_columns()
        self.emb_cols = [_apply_cols(to_new, nonzeros(v).items())
                         for v in raw]
        self._check_embedding()
        # b_k acts on R from the right as right multiplication by its image
        by_left = [[prod.items() for prod in row] for row in R.table]
        self.right_act = [
            _on_coords(range(R.dim),
                       [_apply_cols(row, col.items()) for row in by_left])
            for col in self.emb_cols]
        self.right = RightBasis(
            "R", R, B, list(zip(R.btarget, R.bsource)), self.right_act,
            [[list(rt.items()) for rt in row] for row in R.table])

    def _phi_raw(self, bvec) -> ModuleMap:
        """The image of a B element b: the lift of x -> x * b on B, so
        w (x) x maps to eps(w) * x * b."""
        B = self.bocs.B
        n = self.XB.total
        right = [[ZERO] * n for _ in range(n)]
        for k, c in self.coord_of_basis.items():
            for j, a in nonzeros(B.multiply(B.basis_vec(k), bvec)).items():
                right[self.coord_of_basis[j]][c] = a
        return bocs_lift(self.bocs,
                         ModuleMap(self.XB, self.XB, Matrix(n, n, right)))

    def _check_embedding(self):
        """AssertionError unless emb_cols, the images of B's basis in R,
        are independent, sum to R's unit at B's idempotents, and multiply
        as B's basis does; both products are read off the sparse tables."""
        B = self.bocs.B
        R = self.R
        cols = self.emb_cols
        if _on_coords(range(R.dim), cols).rank() != B.dim:
            raise AssertionError("embedding is not injective")
        unit = _sum_terms(chain.from_iterable(cols[k].items()
                                              for k in B.unit_index))
        if unit != nonzeros(R.unit()):
            raise AssertionError("embedding is not unital")
        images = [col.items() for col in cols]
        # by_right[m][a] are the terms of r_a r_m
        by_right = list(zip(*([prod.items() for prod in row]
                              for row in R.table)))
        for u in range(B.dim):
            # left[m] are the terms of (image of b_u) r_m
            left = [_apply_cols(by_right[m], images[u]).items()
                    for m in range(R.dim)]
            for v in range(B.dim):
                lhs = _apply_cols(images, B.table[u][v].items())
                if lhs != _apply_cols(left, images[v]):
                    raise AssertionError("embedding is not multiplicative")


def _summands(h: ModuleMap, summand):
    """(source, target) summands of XB = sum of the P_B(v) between which
    the map h: W (x)_B XB -> XB is nonzero, summand[c] the summand of the
    coordinate c of XB.  W (x)_B XB is the sum of the W (x)_B P_B(v), its
    coordinate (t, x) in the one of x, and B acts on each summand, so the
    hom space is the sum of its blocks and its reduced echelon basis lies
    in them; a map on two blocks is an AssertionError."""
    chosen = h.source.chosen
    cols = h.mat.nonzero_columns()
    source = {summand[chosen[p][1]] for p, col in enumerate(cols) if col}
    target = {summand[y] for col in cols for y, _ in col}
    if len(source) != 1 or len(target) != 1:
        raise AssertionError("a basis map of R spans two blocks")
    return source.pop(), target.pop()


def right_algebra(bocs: Bocs) -> RightAlgebra:
    return RightAlgebra(bocs)


# -- induction --------------------------------------------------------------


def induce(ralg: RightAlgebra, X: FDModule) -> TensorModule:
    """R (x)_B X, built once per module content and kept on R's right
    basis; ValueError unless R is right-free on its top."""
    return ralg.right.tensor(X)


def induce_map(u: ModuleMap, FM: TensorModule,
               FN: TensorModule) -> ModuleMap:
    """1 (x) u, from FM = R (x)_B X to FN = R (x)_B Y for u: X -> Y: the
    coordinate (t, x) goes to the (t, y) of u(x) in e_v(t)Y."""
    cols = u.mat.nonzero_columns()
    return ModuleMap(FM, FN, _on_coords(FN.chosen, [
        {(t, y): a for y, a in cols[x]} for t, x in FM.chosen]))


# -- standard and Borel checks ----------------------------------------------


def standard_check(ralg: RightAlgebra):
    """Dimension formulas and filtration of R against the induced
    standard system, the induced simples of B."""
    bocs = ralg.bocs
    B = bocs.B
    R = ralg.R
    order = bocs.order
    rank = {v: t for t, v in enumerate(order)}
    n = B.n
    odelta = {j: induce(ralg, simple(B, j)) for j in range(1, n + 1)}
    report = {"hom_table": {}, "hom_formula": True,
              "composition": True, "ext1_vanishing": True}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            # dim Hom(P_R(i), M) = dim e_i M
            got = odelta[j].dims[i - 1]
            if rank[i] > rank[j]:
                want = 0
            else:
                want = (1 if i == j else 0)
                for l in range(1, n + 1):
                    if rank[l] < rank[j]:
                        want += bocs.d.get((j, l), 0) * \
                            len(B.block_indices(l, i))
            report["hom_table"][(i, j)] = (got, want)
            if got != want:
                report["hom_formula"] = False
    for j in range(1, n + 1):
        dims = odelta[j].dims
        for i in range(1, n + 1):
            mult = dims[i - 1]
            if rank[i] > rank[j] and mult != 0:
                report["composition"] = False
            if i == j and mult != 1:
                report["composition"] = False
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rank[i] > rank[j]:
                if ext_dimension(odelta[i], odelta[j], 1) != 0:
                    report["ext1_vanishing"] = False
    regular = sum_of_projectives(R, list(range(1, n + 1)))
    system = StandardSystem(R, order, "induced",
                            [odelta[v] for v in range(1, n + 1)])
    cert = theta_filtration(regular, system)
    report["filtration"] = cert is not None and cert.verify(system)
    if cert is not None:
        total = sum(odelta[v].total for v in cert.vertices())
        report["multiplicity_sum"] = (total == R.dim)
        report["filtration_vertices"] = cert.vertices()
    else:
        report["multiplicity_sum"] = False
    report["ok"] = all(report[k] for k in
                       ("hom_formula", "composition", "ext1_vanishing",
                        "filtration", "multiplicity_sum"))
    return report


def borel_checks(ralg: RightAlgebra):
    """Projectivity of R over B, the Peirce pattern, and dim checks.

    right_projective is RightBasis's certificate that R is right-free on
    its top, so projective (B is basic); induction is read off that top,
    so induce_regular_iso is left out without it.
    dim_two_ways compares dim R with its value read off the bocs.  R^op is
    End_bocs(B) = Hom_B(W (x)_B B, B) = Hom_B(W, B), and W = B + ker eps.
    The premise, checked here, is kernel_is_free: ker eps is the sum of
    d(a, b) copies of B e_a (x)_K e_b B, which as a left module is
    (B e_a)^{dim e_b B}, and Hom_B(B e_a, B) is e_a B.  So

        dim R = dim B + sum over (a, b) of d(a, b) dim e_a B dim e_b B,

    where dim e_x B counts the basis elements with target x.
    """
    bocs = ralg.bocs
    B = bocs.B
    R = ralg.R
    report = {"right_projective": ralg.right.coords is not None}
    rank = {v: t for t, v in enumerate(bocs.order)}
    report["peirce_pattern"] = radical_below(B, rank, strict=True)
    if report["right_projective"]:
        FB = induce(ralg, ralg.XB)
        regular = sum_of_projectives(R, list(range(1, R.n + 1)))
        report["induce_regular_iso"] = is_isomorphic(FB, regular)
    right_ideal = Counter(B.btarget)
    present = B.dim + sum(mult * right_ideal[a] * right_ideal[b]
                          for (a, b), mult in bocs.d.items())
    report["dim_two_ways"] = bocs.kernel_is_free() and present == R.dim
    report["ok"] = all(report.values())
    return report


# -- the homological comparison ---------------------------------------------


def homological_check(ralg: RightAlgebra, sources, targets):
    """Rank of the induced comparison map Ext^k_B -> Ext^k_R, k = 1, 2.

    sources and targets are B-modules, induced through induce: F is
    R (x)_B -, read off R's right basis, and F(u) = 1 (x) u.  For each
    source X, F carries two steps (c_t: P_t -> Omega_t, Omega_{t+1}, i_t)
    of minimal covers of X to R-modules, once.  Two premises are checked
    on every step: F keeps the step exact (F(c_t) onto, F(i_t) injective,
    dimensions adding up; F(c_t) F(i_t) = 0 by functoriality), as it must
    since R is right-free on its top, so flat, and F(P_t) is projective.
    Then the F(P_t) begin a projective resolution of FX, and a dimension
    shift, which works on any projective resolution, reads
    Ext^k_R(FX, FY) at F(Omega_k) as Ext^k_B(X, Y) is read at Omega_k; a
    cocycle c maps to the class of F(c).  Requires surjectivity for k = 1
    and bijectivity for k = 2.  Returns one verdict per (source, target,
    k), in that order.
    """
    verdicts = []
    for X in sources:
        steps = syzygies(X, 2)
        fsteps, fomega = [], [induce(ralg, X)]  # fomega[t] is F(Omega_t)
        for (cover, ker, kinc) in steps:
            prev = fomega[-1]
            FP = induce(ralg, cover.source)
            FK = induce(ralg, ker)
            c = induce_map(cover, FP, prev)
            i_ = induce_map(kinc, FK, FP)
            if c.mat.rank() != prev.total:
                raise AssertionError("induction lost surjectivity")
            if i_.mat.rank() != FK.total:
                raise AssertionError("induction lost injectivity")
            if FP.total != prev.total + FK.total:
                raise AssertionError("induction lost exactness")
            if projective_cover(FP).source.total != FP.total:
                raise AssertionError("induced cover is not projective")
            fsteps.append((c, FK, i_))
            fomega.append(FK)
        for Y in targets:
            FY = induce(ralg, Y)
            for k in (1, 2):
                cocycles, _, ext_b = _syzygy_ext(steps[:k], Y)
                _, image, ext_r = _syzygy_ext(fsteps[:k], FY)
                image_rank = sum(
                    image.add(induce_map(c, fomega[k], FY).mat.flat())
                    for c in cocycles)
                surjective = (image_rank == ext_r)
                injective = (image_rank == ext_b)
                verdicts.append({
                    "k": k, "ext_b": ext_b, "ext_r": ext_r,
                    "image_rank": image_rank, "surjective": surjective,
                    "injective": injective,
                    "ok": surjective if k == 1 else surjective and injective})
    return verdicts


# -- isomorphism search and Morita comparison -------------------------------

_COEFFS = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]
# nodes iso_search visits before it answers "inconclusive"
SEARCH_BUDGET = 4000


def _degree_signature(A: Algebra):
    sig = {}
    for kk in range(A.dim):
        key = (A.btarget[kk], A.bsource[kk], A.bdegree[kk])
        sig[key] = sig.get(key, 0) + 1
    return sig


def _extend_map(A1: Algebra, A2: Algebra, images):
    """Linear extension of generator images, or None.

    images maps A1 arrow basis positions to A2 vectors.  Higher basis
    elements are factored as products of lower-degree ones; the final
    multiplicativity check over all pairs makes the choice immaterial.
    """
    T = [None] * A1.dim
    for i in range(1, A1.n + 1):
        T[A1.unit_index[i - 1]] = A2.basis_vec(A2.unit_index[i - 1])
    for kk, vec in images.items():
        T[kk] = tuple(vec)
    bydeg = sorted(range(A1.dim), key=lambda kk: A1.bdegree[kk])
    for kk in bydeg:
        if T[kk] is not None:
            continue
        deg = A1.bdegree[kk]
        found = False
        for uu in range(A1.dim):
            if found or T[uu] is None or A1.bdegree[uu] < 1 or \
                    A1.bdegree[uu] >= deg:
                continue
            for vv in range(A1.dim):
                if T[vv] is None or A1.bdegree[vv] < 1 or \
                        A1.bdegree[vv] >= deg:
                    continue
                nz = A1.table[uu][vv]
                if set(nz) == {kk}:
                    img = A2.multiply(T[uu], T[vv])
                    T[kk] = tuple(qdiv(c, nz[kk]) for c in img)
                    found = True
                    break
        if not found:
            return None
    return T


def _is_algebra_map(A1: Algebra, A2: Algebra, T):
    cols = [list(v) for v in T]
    mat = Matrix.from_columns(cols)
    if mat.rank() != A1.dim:
        return False
    for uu in range(A1.dim):
        for vv in range(A1.dim):
            lhs = mat.apply([A1.table[uu][vv].get(k, ZERO)
                             for k in range(A1.dim)])
            rhs = A2.multiply(T[uu], T[vv])
            if tuple(lhs) != tuple(rhs):
                return False
    return True


def _grid_search(A1, A2, arrows1, candidates, pos, images, nodes):
    """Depth-first over the candidate images of arrows1[pos:]: a base
    change T, "budget" once nodes[0], the candidates tried so far, passes
    SEARCH_BUDGET, or None."""
    if nodes[0] > SEARCH_BUDGET:
        return "budget"
    if pos == len(arrows1):
        T = _extend_map(A1, A2, images)
        if T is not None and _is_algebra_map(A1, A2, T):
            return T
        return None
    for vec in candidates[pos]:
        nodes[0] += 1
        if nodes[0] > SEARCH_BUDGET:
            return "budget"
        images[arrows1[pos]] = vec
        got = _grid_search(A1, A2, arrows1, candidates, pos + 1, images,
                           nodes)
        if got is not None:
            return got
        del images[arrows1[pos]]
    return None


def iso_search(A1: Algebra, A2: Algebra):
    """Deterministic isomorphism search between basic algebras.

    Returns (verdict, note) with verdict in "isomorphic" (a base change
    is found), "distinct" (an invariant differs) or "inconclusive" (the
    grid search of at most SEARCH_BUDGET nodes finds no base change).
    """
    if A1.n != A2.n or A1.dim != A2.dim:
        return "distinct", "dimension mismatch"
    if A1.cartan_matrix() != A2.cartan_matrix():
        return "distinct", "Cartan mismatch"
    if _degree_signature(A1) != _degree_signature(A2):
        return "distinct", "radical layer mismatch"
    arrows1 = [k for name, s, t, k in A1.arrows]
    if not arrows1:
        return "isomorphic", "semisimple"
    candidates = []
    for kk in arrows1:
        block = [m for m in range(A2.dim)
                 if A2.bdegree[m] == 1
                 and A2.btarget[m] == A1.btarget[kk]
                 and A2.bsource[m] == A1.bsource[kk]]
        cand = [tuple(c if t == m else ZERO for t in range(A2.dim))
                for m in block for c in _COEFFS]
        if not cand:
            return "distinct", "no arrow candidates"
        candidates.append(cand)
    got = _grid_search(A1, A2, arrows1, candidates, 0, {}, [0])
    if got == "budget":
        return "inconclusive", "search budget exceeded"
    if got is not None:
        return "isomorphic", "explicit base change found"
    return "inconclusive", "no image in searched grid"


def _local_subalgebra(B: Algebra, i: int) -> Algebra:
    """e_i B e_i, its table sliced out of the table of B."""
    idxs = B.block_indices(i, i)
    pos = {kk: t for t, kk in enumerate(idxs)}
    table = [[{pos[k]: c for k, c in B.table[a][b].items()} for b in idxs]
             for a in idxs]
    idem = tuple(ONE if kk == B.unit_index[i - 1] else ZERO
                 for kk in idxs)
    return from_structure_constants(1, table, [idem])


def _endo_algebra(M: FDModule) -> Algebra:
    mats = [h.mat for h in hom_basis(M, M)]
    space = MapSpace(mats, M.total, M.total)
    table = [[nonzeros(space.coords(a @ b)) for b in mats] for a in mats]
    idem = space.coords(Matrix.identity(M.total))
    return from_structure_constants(1, table, [idem])


def loop_subalgebra_check(system: StandardSystem, bocs: Bocs):
    """End of the standard module Delta(i) of system, the delta system
    of the bocs's algebra, against e_i B e_i; one verdict per vertex, in
    vertex order."""
    out = []
    for i in range(1, system.alg.n + 1):
        E = _endo_algebra(system.module(i))
        S = _local_subalgebra(bocs.B, i)
        verdict, note = iso_search(E, S)
        out.append({"vertex": i, "dim_end": E.dim, "dim_sub": S.dim,
                    "verdict": verdict, "note": note,
                    "ok": verdict == "isomorphic"})
    return out


def morita_compare(alg: Algebra, ralg: RightAlgebra):
    """Basic-to-basic Morita comparison of A and R."""
    R = ralg.R
    if alg.n != R.n:
        return {"verdict": "distinct", "note": "vertex count",
                "ok": False}
    if alg.cartan_matrix() != R.cartan_matrix():
        return {"verdict": "distinct", "note": "Cartan mismatch",
                "ok": False}
    # one cover walk per simple of A and of R; Ext^k at its k-th step
    simples = [[simple(A, i) for i in range(1, A.n + 1)] for A in (alg, R)]
    walks = [[syzygies(S, 2) for S in row] for row in simples]
    for k in (1, 2):
        for i in range(alg.n):
            for j in range(alg.n):
                da, dr = (_syzygy_ext(walk[i][:k], row[j])[2]
                          for walk, row in zip(walks, simples))
                if da != dr:
                    return {"verdict": "distinct",
                            "note": f"Ext^{k} table mismatch at "
                                    f"({i + 1},{j + 1})", "ok": False}
    verdict, note = iso_search(alg, R)
    return {"verdict": verdict, "note": note,
            "ok": verdict == "isomorphic"}
