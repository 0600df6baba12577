"""The right algebra of a bocs and its Borel-type verifications.

R is the endomorphism algebra of B in the bocs module category with the
opposite product, realized by structure constants on a chosen hom basis.
Induction to R-modules is computed through the corepresentable functor
Hom(B, -), which is functorial by construction; its dimensions are
cross-checked against the tensor presentation of R as a right B-module.
"""

from __future__ import annotations

from fractions import Fraction

from .bocs import Bocs, bocs_compose, bocs_hom_basis, tensor_module
from .linalg import (MapSpace, Matrix, ONE, Span, ZERO, balanced_relations,
                     nonzeros)
from .modules import (FDModule, ModuleMap, hom_basis, map_spaces,
                      projective, projective_cover, simple,
                      sum_of_projectives, is_isomorphic)
from .quiver import Algebra, from_structure_constants
from .strata import StandardSystem, standard_modules, theta_filtration


# -- generic linear helpers -------------------------------------------------


def _module_from_action(alg: Algebra, dim: int, raw_act):
    """FDModule from action matrices on an ungrouped coordinate space.

    raw_act[k] is the action of algebra basis element k.  Returns the
    module together with the coordinate changes to_new (raw to module)
    and to_old (module to raw).
    """
    if dim == 0:
        from .modules import zero_module
        return zero_module(alg), Matrix.zero(0, 0), Matrix.zero(0, 0)
    new_cols = []
    dims = []
    for i in range(1, alg.n + 1):
        E = raw_act[alg.unit_index[i - 1]]
        cols = [E.column(j) for j in range(dim)]
        image = Span(dim, cols)
        dims.append(len(image))
        new_cols.extend([tuple(r) for r in image.rows])
    if sum(dims) != dim:
        raise ValueError("idempotent images do not decompose the space")
    to_old = Matrix.from_columns(new_cols)
    to_new = to_old.inverse()
    acts = [to_new @ raw_act[k] @ to_old for k in range(alg.dim)]
    return FDModule(alg, dims, acts), to_new, to_old


def _steps(M: FDModule, depth: int):
    """Iterated projective covers: per step (cover, kernel, inclusion)."""
    out = []
    cur = M
    for _ in range(depth):
        cover = projective_cover(cur)
        spaces = map_spaces(cover)
        out.append((cover, spaces["kernel"], spaces["kernel_inclusion"]))
        cur = spaces["kernel"]
    return out


def ext_dimension(M: FDModule, N: FDModule, k: int) -> int:
    """dim Ext^k via syzygies from minimal covers (k >= 1)."""
    steps = _steps(M, k)
    omega = steps[-1][1]
    incl = steps[-1][2]
    cover_source = steps[-1][0].source
    cocycles = hom_basis(omega, N)
    bound = Span(N.total * omega.total,
                 [(h.mat @ incl.mat).flat()
                  for h in hom_basis(cover_source, N)])
    return len(cocycles) - len(bound)


# -- the right algebra ------------------------------------------------------


class RightAlgebra:
    """End of B in the bocs category, opposed, with the B-embedding.

    basis holds the chosen hom-space basis (maps W (x) B -> B); R is the
    structure-constant algebra on it; emb maps B coordinates into R
    coordinates; coord_of_basis identifies the regular module's
    coordinates with the basis of B; right_act[k] is the right action of
    the k-th basis element of B on R.
    """

    def __init__(self, bocs: Bocs):
        self.bocs = bocs
        B = bocs.B
        self.XB = sum_of_projectives(B, list(range(1, B.n + 1)), name="B")
        self.tX = tensor_module(bocs, self.XB)
        self.basis = bocs_hom_basis(bocs, self.XB, self.XB)
        self.space = MapSpace([h.mat for h in self.basis], self.XB.total,
                              self.tX.module.total)
        # regular-module coordinate of each algebra basis element
        self.coord_of_basis = {}
        for (gcoord, vtx, word_idxs) in self.XB.proj_gens:
            for coord, widx in word_idxs:
                self.coord_of_basis[widx] = coord
        if len(self.coord_of_basis) != B.dim:
            raise AssertionError("regular module coordinates degenerate")

        # R is End(B) opposed: basis[i] * basis[j] is basis[j] after
        # basis[i], one composition per ordered pair
        table = [[nonzeros(self.space.coords(
                     bocs_compose(bocs, g, f).mat)) for g in self.basis]
                 for f in self.basis]
        idems = [self.space.coords(self._phi_raw(B.idempotent(i)).mat)
                 for i in range(1, B.n + 1)]
        self.R = from_structure_constants(B.n, table, idems)
        emb_cols = []
        for k in range(B.dim):
            raw = self.space.coords(self._phi_raw(B.basis_vec(k)).mat)
            emb_cols.append(list(self.R.old_to_new.apply(raw)))
        self.emb = Matrix.from_columns(emb_cols)
        self._check_embedding()
        self.right_act = []
        for k in range(B.dim):
            ev = self.embed(B.basis_vec(k))
            self.right_act.append(Matrix.from_columns(
                [self.R.multiply(self.R.basis_vec(j), ev)
                 for j in range(self.R.dim)]))
        self._induced = {}

    def element_map(self, new_vec) -> ModuleMap:
        """The endomorphism represented by an R coefficient vector."""
        raw = self.R.new_to_old.apply(new_vec)
        return ModuleMap(self.tX.module, self.XB, self.space.combine(raw))

    def _phi_raw(self, bvec) -> ModuleMap:
        """The image of a B element: w (x) x maps to eps(w) * x * b."""
        bocs = self.bocs
        B = bocs.B
        cols = []
        basis_of_coord = {c: k for k, c in self.coord_of_basis.items()}
        for (w, x) in self.tX.pairs:
            u = B.basis_vec(basis_of_coord[x])
            elt = B.multiply(bocs.eps.column(w), B.multiply(u, bvec))
            out = [ZERO] * self.XB.total
            for k, c in enumerate(elt):
                if c != 0:
                    out[self.coord_of_basis[k]] += c
            cols.append(out)
        big = Matrix.from_columns(cols) if cols else \
            Matrix.zero(self.XB.total, 0)
        return ModuleMap(self.tX.module, self.XB, big @ self.tX.sect)

    def embed(self, bvec):
        """B element to R coefficient vector."""
        return self.emb.apply(bvec)

    def _check_embedding(self):
        B = self.bocs.B
        R = self.R
        if self.emb.rank() != B.dim:
            raise AssertionError("embedding is not injective")
        unit = [ZERO] * R.dim
        for i in range(1, B.n + 1):
            iv = self.embed(B.idempotent(i))
            unit = [a + b for a, b in zip(unit, iv)]
        if tuple(unit) != tuple(R.unit()):
            raise AssertionError("embedding is not unital")
        for u in range(B.dim):
            for v in range(B.dim):
                lhs = self.embed(B.multiply(B.basis_vec(u),
                                            B.basis_vec(v)))
                rhs = R.multiply(self.embed(B.basis_vec(u)),
                                 self.embed(B.basis_vec(v)))
                if tuple(lhs) != tuple(rhs):
                    raise AssertionError("embedding is not multiplicative")

    def tensor_dim(self, X: FDModule) -> int:
        """dim R (x)_B X from the right-module presentation of R."""
        npairs = self.R.dim * X.total
        rel = balanced_relations(self.right_act, X.act)
        return npairs - len(Span(npairs, rel))


def right_algebra(bocs: Bocs) -> RightAlgebra:
    return RightAlgebra(bocs)


# -- induction --------------------------------------------------------------


class InducedModule:
    def __init__(self, module, basis, space, to_new, to_old, source):
        self.module = module
        self.basis = basis
        self.space = space
        self.to_new = to_new
        self.to_old = to_old
        self.source = source


def induce(ralg: RightAlgebra, X: FDModule) -> InducedModule:
    """R (x)_B X realized as the morphism space Hom(B, X) over R."""
    got = ralg._induced.get(id(X))
    if got is not None and got.source is X:
        return got
    bocs = ralg.bocs
    basis = bocs_hom_basis(bocs, ralg.XB, X)
    space = MapSpace([h.mat for h in basis], X.total, ralg.tX.module.total)
    m = len(basis)
    raw_act = []
    for k in range(ralg.R.dim):
        rmap = ralg.element_map(ralg.R.basis_vec(k))
        cols = [space.coords(bocs_compose(bocs, h, rmap).mat)
                for h in basis]
        raw_act.append(Matrix.from_columns(cols) if m
                       else Matrix.zero(0, 0))
    module, to_new, to_old = _module_from_action(ralg.R, m, raw_act)
    out = InducedModule(module, basis, space, to_new, to_old, X)
    ralg._induced[id(X)] = out
    tdim = ralg.tensor_dim(X)
    if tdim != module.total:
        raise AssertionError(
            "induced module dimension disagrees with the tensor "
            f"presentation ({module.total} vs {tdim})")
    return out


def _bocs_lift(bocs: Bocs, u: ModuleMap) -> ModuleMap:
    """A plain B-map as a bocs morphism, through the counit."""
    M = u.source
    tm = tensor_module(bocs, M)
    cols = []
    for (w, x) in tm.pairs:
        ev = bocs.eps.column(w)
        mv = M.act_elt(ev).column(x)
        cols.append(list(u.mat.apply(mv)))
    big = Matrix.from_columns(cols) if tm.pairs else \
        Matrix.zero(u.target.total, 0)
    return ModuleMap(tm.module, u.target, big @ tm.sect)


def induce_bocs_map(ralg: RightAlgebra, f: ModuleMap,
                    FM: InducedModule, FN: InducedModule) -> ModuleMap:
    """Image of a bocs morphism under induction (post-composition)."""
    bocs = ralg.bocs
    cols = [FN.space.coords(bocs_compose(bocs, f, h).mat) for h in FM.basis]
    raw = Matrix.from_columns(cols) if cols else \
        Matrix.zero(len(FN.basis), 0)
    return ModuleMap(FM.module, FN.module, FN.to_new @ raw @ FM.to_old)


def induce_map(ralg: RightAlgebra, u: ModuleMap,
               FM: InducedModule, FN: InducedModule) -> ModuleMap:
    """Image of a plain B-module map under induction."""
    return induce_bocs_map(ralg, _bocs_lift(ralg.bocs, u), FM, FN)


# -- standard and Borel checks ----------------------------------------------


def standard_check(ralg: RightAlgebra):
    """Dimension formulas and filtration of R against the induced
    standard system."""
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
        P = projective(R, i)
        for j in range(1, n + 1):
            got = len(hom_basis(P, odelta[j].module))
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
        dims = odelta[j].module.dims
        for i in range(1, n + 1):
            mult = dims[i - 1]
            if rank[i] > rank[j] and mult != 0:
                report["composition"] = False
            if i == j and mult != 1:
                report["composition"] = False
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rank[i] > rank[j]:
                if ext_dimension(odelta[i].module, odelta[j].module,
                                 1) != 0:
                    report["ext1_vanishing"] = False
    regular = sum_of_projectives(R, list(range(1, n + 1)), name="R")
    system = StandardSystem(R, order, "induced",
                            [odelta[v].module for v in range(1, n + 1)],
                            [None] * n)
    cert = theta_filtration(regular, system)
    report["filtration"] = cert is not None and cert.verify(system)
    if cert is not None:
        total = sum(odelta[v].module.total for v in cert.vertices())
        report["multiplicity_sum"] = (total == R.dim)
        report["filtration_vertices"] = cert.vertices()
    else:
        report["multiplicity_sum"] = False
    report["ok"] = all(report[k] for k in
                       ("hom_formula", "composition", "ext1_vanishing",
                        "filtration", "multiplicity_sum"))
    return report


def borel_checks(ralg: RightAlgebra):
    """Projectivity of R over B, the Peirce pattern, and dim checks."""
    bocs = ralg.bocs
    B = bocs.B
    R = ralg.R
    rank = {v: t for t, v in enumerate(bocs.order)}
    report = {}
    # R as a right B-module, i.e. a left module over B opposite
    rb_mod, _, _ = _module_from_action(B.opposite(), R.dim, ralg.right_act)
    cover = projective_cover(rb_mod)
    report["right_projective"] = (cover.source.total == rb_mod.total)
    # Peirce pattern of B
    peirce = True
    for i in range(1, B.n + 1):
        for j in range(1, B.n + 1):
            if rank[i] < rank[j]:
                if any(B.bdegree[k] >= 1
                       for k in B.block_indices(i, j)):
                    peirce = False
    report["peirce_pattern"] = peirce
    # induced regular module and dimension recomputations
    FB = induce(ralg, ralg.XB)
    regular = sum_of_projectives(R, list(range(1, R.n + 1)), name="R")
    report["induce_regular_iso"] = is_isomorphic(FB.module, regular)
    present = B.dim
    for (a, b), mult in bocs.d.items():
        ea = sum(1 for k in range(B.dim) if B.btarget[k] == a)
        be = sum(1 for k in range(B.dim) if B.bsource[k] == b)
        present += mult * ea * be
    report["dim_two_ways"] = (present == R.dim)
    report["ok"] = all(report[k] for k in
                       ("right_projective", "peirce_pattern",
                        "induce_regular_iso", "dim_two_ways"))
    return report


# -- the homological comparison ---------------------------------------------


def _solve_injective(pre: Matrix, rhs: Matrix):
    """psi with pre @ psi == rhs for injective pre."""
    cols = []
    for j in range(rhs.cols):
        sol = pre.solve(rhs.column(j))
        if sol is None:
            return None
        cols.append(list(sol))
    return Matrix.from_columns(cols) if cols else \
        Matrix.zero(pre.cols, 0)


def homological_check(ralg: RightAlgebra, X: FDModule, Y: FDModule,
                      k: int):
    """Rank of the induced comparison map Ext^k_B -> Ext^k_R.

    Transports each cocycle through induction and a chain comparison
    between the induced resolution and a minimal one over R; requires
    surjectivity for k = 1 and bijectivity for k = 2.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    bocs = ralg.bocs
    steps_b = _steps(X, k)
    omega = steps_b[-1][1]
    incl = steps_b[-1][2]
    cover_src = steps_b[-1][0].source
    cocycles = hom_basis(omega, Y)
    bound_b = Span(Y.total * omega.total,
                   [(h.mat @ incl.mat).flat()
                    for h in hom_basis(cover_src, Y)])
    ext_b = len(cocycles) - len(bound_b)

    FX = induce(ralg, X)
    FY = induce(ralg, Y)
    # induced resolution data, with exactness checks
    fp = []
    fo = []
    fcov = []
    fincl = []
    prev = FX
    for (cover, ker, kinc) in steps_b:
        FP = induce(ralg, cover.source)
        FK = induce(ralg, ker)
        c = induce_map(ralg, cover, FP, prev)
        i_ = induce_map(ralg, kinc, FK, FP)
        if c.mat.rank() != prev.module.total:
            raise AssertionError("induction lost surjectivity")
        if i_.mat.rank() != FK.module.total:
            raise AssertionError("induction lost injectivity")
        if FP.module.total != prev.module.total + FK.module.total:
            raise AssertionError("induction lost exactness")
        fp.append(FP)
        fo.append(FK)
        fcov.append(c)
        fincl.append(i_)
        prev = FK

    steps_r = _steps(FX.module, k)
    # chain comparison psi_t: K_t -> F(Omega_t)
    u = None
    target = FX.module
    psi = None
    for t, (cover, ker, kinc) in enumerate(steps_r):
        rhs = cover.mat if t == 0 else psi @ cover.mat
        space = MapSpace([h.mat for h in hom_basis(cover.source,
                                                   fp[t].module)],
                         fp[t].module.total, cover.source.total)
        try:
            u = space.combine(space.through(fcov[t].mat).coords(rhs))
        except ValueError:
            raise AssertionError("chain comparison solve failed") from None
        psi = _solve_injective(fincl[t].mat, u @ kinc.mat)
        if psi is None:
            raise AssertionError("chain comparison does not restrict")
    K = steps_r[-1][1]
    kincl = steps_r[-1][2]
    q_src = steps_r[-1][0].source
    image = Span(FY.module.total * K.total,
                 [(h.mat @ kincl.mat).flat()
                  for h in hom_basis(q_src, FY.module)])
    ext_r = len(hom_basis(K, FY.module)) - len(image)

    image_rank = 0
    for c in cocycles:
        t_c = induce_map(ralg, c, fo[-1], FY)
        if image.add((t_c.mat @ psi).flat()):
            image_rank += 1
    surjective = (image_rank == ext_r)
    injective = (image_rank == ext_b)
    verdict = {"k": k, "ext_b": ext_b, "ext_r": ext_r,
               "image_rank": image_rank, "surjective": surjective,
               "injective": injective}
    verdict["ok"] = surjective if k == 1 else (surjective and injective)
    return verdict


# -- isomorphism search and Morita comparison -------------------------------

_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
           Fraction(1, 2), Fraction(-1, 2)]


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
                    T[kk] = tuple(c / nz[kk] for c in img)
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
            prod = A1.multiply(A1.basis_vec(uu), A1.basis_vec(vv))
            lhs = mat.apply(prod)
            rhs = A2.multiply(T[uu], T[vv])
            if tuple(lhs) != tuple(rhs):
                return False
    return True


def iso_search(A1: Algebra, A2: Algebra, budget: int = 4000):
    """Deterministic isomorphism search between basic algebras.

    Returns (verdict, note) with verdict in "isomorphic",
    "not distinguished", "distinct".
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
    nodes = 0
    heuristic_only = False

    def search(pos, images):
        nonlocal nodes, heuristic_only
        if nodes > budget:
            return "budget"
        if pos == len(arrows1):
            T = _extend_map(A1, A2, images)
            if T is None:
                heuristic_only = True
                return None
            if _is_algebra_map(A1, A2, T):
                return T
            return None
        for vec in candidates[pos]:
            nodes += 1
            if nodes > budget:
                return "budget"
            images[arrows1[pos]] = vec
            got = search(pos + 1, images)
            if got is not None:
                return got
            del images[arrows1[pos]]
        return None

    got = search(0, {})
    if got == "budget":
        return "not distinguished", "search budget exceeded"
    if got is not None:
        return "isomorphic", "explicit base change found"
    if heuristic_only:
        return "not distinguished", "heuristic"
    return "not distinguished", "no image in searched grid"


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


def loop_subalgebra_check(alg: Algebra, order, bocs: Bocs, i: int):
    """End of the standard module at i against e_i B e_i."""
    system = standard_modules(alg, order, "delta")
    E = _endo_algebra(system.module(i))
    S = _local_subalgebra(bocs.B, i)
    verdict, note = iso_search(E, S)
    return {"vertex": i, "dim_end": E.dim, "dim_sub": S.dim,
            "verdict": verdict, "note": note,
            "ok": verdict == "isomorphic"}


def morita_compare(alg: Algebra, ralg: RightAlgebra):
    """Basic-to-basic Morita comparison of A and R."""
    R = ralg.R
    if alg.n != R.n:
        return {"verdict": "distinct", "note": "vertex count",
                "ok": False}
    if alg.cartan_matrix() != R.cartan_matrix():
        return {"verdict": "distinct", "note": "Cartan mismatch",
                "ok": False}
    for k in (1, 2):
        for i in range(1, alg.n + 1):
            for j in range(1, alg.n + 1):
                da = ext_dimension(simple(alg, i), simple(alg, j), k)
                dr = ext_dimension(simple(R, i), simple(R, j), k)
                if da != dr:
                    return {"verdict": "distinct",
                            "note": f"Ext^{k} table mismatch at "
                                    f"({i},{j})", "ok": False}
    verdict, note = iso_search(alg, R)
    return {"verdict": verdict, "note": note,
            "ok": verdict == "isomorphic"}
