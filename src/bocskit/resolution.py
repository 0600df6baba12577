"""Truncated minimal projective resolutions, graded maps and Ext data.

A Resolution keeps projectives P_0..P_depth with depth = N_max + 1; the
extra degree keeps lifting and homotopy systems near degree N_max honest.
A GradedMap of degree k collects components f^(l): P_l -> P'_{l-k} for
l = max(k, 0)..hi.  The attribute hi tracks how far the components are
trustworthy: compositions with negative-degree maps lose the top level.

Sign conventions, fixed throughout: a chain map of degree k satisfies
f^(l) d_{l+1} = (-1)^k d'_{l-k+1} f^(l+1), and the differential is
d(f)^(l) = d'_{l-k} f^(l) - (-1)^k f^(l-1) d_l.
"""

from __future__ import annotations

from .linalg import MapSpace, Matrix, Span, ZERO, nonzeros
from .modules import (FDModule, ModuleMap, hom_from_projective, map_spaces,
                      projective_cover, quotient, radical_vectors)
from .quiver import Algebra, from_structure_constants
from .strata import StandardSystem, standard_modules


def _hom_space(P: FDModule, X: FDModule):
    """Cached (basis, MapSpace of the basis) of Hom(P, X), P projective."""
    cache = getattr(P, "_homsp", None)
    if cache is None:
        cache = P._homsp = {}
    got = cache.get(id(X))
    if got is not None and got[0] is X:
        return got[1], got[2]
    if P.total == 0 or X.total == 0:
        basis = []
    else:
        basis = hom_from_projective(P, X)
    space = MapSpace([f.mat for f in basis], X.total, P.total)
    cache[id(X)] = (X, basis, space)
    return basis, space


class Resolution:
    """Minimal projective resolution of a module, truncated at N_max.

    Fields:
        module   the resolved module
        N_max    working truncation (components 0..N_max are the public
                 range; one extra degree is stored internally)
        mods     realized sums of projectives P_0..P_{N_max+1}
        diffs    diffs[l] = d_l: P_l -> P_{l-1} for l = 1..N_max+1
        aug      augmentation P_0 -> module
    """

    def __init__(self, module, N_max, mods, diffs, aug):
        self.module = module
        self.alg = module.alg
        self.N_max = N_max
        self.depth = len(mods) - 1
        self.mods = mods
        self.diffs = diffs
        self.aug = aug
        self.pdelta = False

    def P(self, l: int) -> FDModule:
        return self.mods[l]

    def diff(self, l: int) -> ModuleMap:
        return self.diffs[l]

    def mult_list(self, l: int):
        return list(self.mods[l].summands)

    def copies(self, l: int, vertex: int) -> int:
        """Number of P(vertex) summands in P_l (the c_l counts)."""
        return self.mods[l].summands.count(vertex)

    def length(self) -> int:
        """Largest l <= N_max with P_l nonzero."""
        for l in range(self.N_max, -1, -1):
            if self.mods[l].total:
                return l
        return 0


def minimal_resolution(M: FDModule, N_max: int = 4) -> Resolution:
    """Iterated projective covers of syzygies, one degree past N_max."""
    if N_max < 3:
        raise ValueError("N_max must be at least 3")
    aug = projective_cover(M)
    mods = [aug.source]
    diffs = []
    current = aug
    for l in range(1, N_max + 2):
        spaces = map_spaces(current)
        kernel = spaces["kernel"]
        kinc = spaces["kernel_inclusion"]
        cover = projective_cover(kernel)
        mods.append(cover.source)
        diffs.append(kinc.compose(cover))
        current = cover
    diffs = [None] + diffs
    res = Resolution(M, N_max, mods, diffs, aug)
    for l in range(2, res.depth + 1):
        comp = diffs[l - 1].compose(diffs[l])
        if not comp.is_zero():
            raise ValueError("differentials do not square to zero")
    for l in range(1, res.depth + 1):
        target = mods[l - 1]
        if target.total == 0:
            continue
        rad = Span(target.total, radical_vectors(target))
        if any(col not in rad for col in diffs[l].mat.columns()):
            raise ValueError("resolution is not minimal")
    return res


class GradedMap:
    """Degree-k collection of maps between two resolutions.

    comps maps level l to a ModuleMap P_l -> P'_{l-k}; missing levels are
    zero.  hi is the last trustworthy level (see module docstring).
    """

    def __init__(self, src: Resolution, tgt: Resolution, k: int, comps,
                 hi: int = None):
        self.src = src
        self.tgt = tgt
        self.k = k
        self.lo = max(k, 0)
        self.hi = src.N_max if hi is None else hi
        self.comps = {l: f for l, f in comps.items() if not f.mat.is_zero()}
        for l, f in self.comps.items():
            if not (self.lo <= l <= self.hi):
                raise ValueError("component level out of range")
            if f.mat.rows != tgt.P(l - k).total or \
                    f.mat.cols != src.P(l).total:
                raise ValueError(f"component {l} has the wrong shape")

    def component(self, l: int) -> ModuleMap:
        f = self.comps.get(l)
        if f is not None:
            return f
        return ModuleMap(self.src.P(l), self.tgt.P(l - self.k),
                         Matrix.zero(self.tgt.P(l - self.k).total,
                                     self.src.P(l).total))

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if self.k != other.k or self.src is not other.src or \
                self.tgt is not other.tgt:
            raise ValueError("graded maps not addable")
        hi = min(self.hi, other.hi)
        comps = {}
        for l in range(self.lo, hi + 1):
            comps[l] = self.component(l) + other.component(l)
        return GradedMap(self.src, self.tgt, self.k, comps, hi=hi)

    def scale(self, c) -> "GradedMap":
        return GradedMap(self.src, self.tgt, self.k,
                         {l: f.scale(c) for l, f in self.comps.items()},
                         hi=self.hi)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return self + other.scale(-1)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other; degrees add, the valid range shrinks."""
        if other.tgt is not self.src:
            raise ValueError("graded maps not composable")
        k = self.k + other.k
        hi = min(other.hi, self.hi + other.k)
        comps = {}
        for l in range(max(k, 0), hi + 1):
            if l < other.lo or l - other.k < self.lo:
                continue
            inner = other.component(l)
            outer = self.component(l - other.k)
            comps[l] = outer.compose(inner)
        return GradedMap(other.src, self.tgt, k, comps, hi=hi)

    def is_zero(self) -> bool:
        return not self.comps

    def equals(self, other: "GradedMap") -> bool:
        if self.k != other.k:
            return False
        for l in range(self.lo, min(self.hi, other.hi) + 1):
            if self.component(l).mat != other.component(l).mat:
                return False
        return True

    def is_chain(self) -> bool:
        return differential(self).is_zero()


def zero_graded_map(src: Resolution, tgt: Resolution, k: int) -> GradedMap:
    return GradedMap(src, tgt, k, {})


def identity_graded_map(res: Resolution) -> GradedMap:
    comps = {l: ModuleMap(res.P(l), res.P(l),
                          Matrix.identity(res.P(l).total))
             for l in range(0, res.N_max + 1)}
    return GradedMap(res, res, 0, comps)


def differential(f: GradedMap) -> GradedMap:
    """d(f)^(l) = d'_{l-k} f^(l) - (-1)^k f^(l-1) d_l, degree k + 1."""
    k = f.k
    sgn = 1 if k % 2 == 0 else -1
    comps = {}
    for l in range(max(k + 1, 0), f.hi + 1):
        term = None
        if l <= f.hi and l - k >= 1:
            term = f.tgt.diff(l - k).compose(f.component(l))
        if l - 1 >= f.lo:
            second = f.component(l - 1).compose(f.src.diff(l)).scale(-sgn)
            term = second if term is None else term + second
        if term is not None:
            comps[l] = term
    return GradedMap(f.src, f.tgt, k + 1, comps, hi=f.hi)


def lift_chain_map(src: Resolution, tgt: Resolution, k: int,
                   seed: ModuleMap) -> GradedMap:
    """Chain map of degree k whose bottom component is the given seed.

    The seed maps P_k (or P_0 for k = 0) to the target's P_0.  Each higher
    component is found by a linear solve; an unsolvable level means the
    seed is not a cocycle and raises.
    """
    lo = max(k, 0)
    if seed.mat.rows != tgt.P(0).total or seed.mat.cols != src.P(lo).total:
        raise ValueError("seed has the wrong shape")
    sgn = 1 if k % 2 == 0 else -1
    comps = {lo: seed}
    for l in range(lo, src.N_max):
        rhs = comps[l].compose(src.diff(l + 1)).scale(sgn).mat
        post = tgt.diff(l + 1 - k)
        _, space = _hom_space(src.P(l + 1), post.source)
        coeffs = ()
        if not rhs.is_zero():
            try:
                coeffs = space.through(post.mat).coords(rhs)
            except ValueError:
                raise ValueError("seed does not extend") from None
        comps[l + 1] = ModuleMap(src.P(l + 1), post.source,
                                 space.combine(coeffs))
    return GradedMap(src, tgt, k, comps)


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
    ulo = max(k - 1, 0)
    sgn = 1 if (k - 1) % 2 == 0 else -1  # (-1)^(k-1)
    levels = list(range(ulo, src.N_max + 1))
    spaces = [_hom_space(src.P(l), tgt.P(l - k + 1)) for l in levels]
    offsets = []
    total_unknowns = 0
    for basis, _ in spaces:
        offsets.append(total_unknowns)
        total_unknowns += len(basis)

    eq_levels = list(range(max(k, 0), f.hi + 1))
    eq_offsets = []
    total_rows = 0
    for l in eq_levels:
        eq_offsets.append(total_rows)
        total_rows += tgt.P(l - k).total * src.P(l).total

    cols = []
    for li, l in enumerate(levels):
        for h in spaces[li][0]:
            col = [ZERO] * total_rows
            # d(u)^(l) picks up d'_{l-k+1} u^(l)
            if l in eq_levels and l - k + 1 >= 1:
                flat = tgt.diff(l - k + 1).compose(h).mat.flat()
                base = eq_offsets[eq_levels.index(l)]
                for p, v in enumerate(flat):
                    col[base + p] = v
            # d(u)^(l+1) picks up -(-1)^(k-1) u^(l) d_{l+1}
            if l + 1 in eq_levels:
                flat = h.compose(src.diff(l + 1)).mat.flat()
                base = eq_offsets[eq_levels.index(l + 1)]
                for p, v in enumerate(flat):
                    col[base + p] = -sgn * v
            cols.append(col)
    rhs = []
    for l in eq_levels:
        rhs.extend(f.component(l).mat.flat())
    mat = (Matrix.from_columns(cols) if cols
           else Matrix.zero(total_rows, 0))
    sol = mat.solve(rhs)
    answer = sol is not None

    if src is tgt and src.pdelta and k >= 1 and f.hi == src.N_max \
            and f.is_chain():
        if radical_criterion(f) != answer:
            raise AssertionError(
                "homotopy system disagrees with the radical criterion")
    if not answer:
        return False, None
    comps = {}
    for li, l in enumerate(levels):
        basis, space = spaces[li]
        coeffs = sol[offsets[li]:offsets[li] + len(basis)]
        comps[l] = ModuleMap(src.P(l), tgt.P(l - k + 1),
                             space.combine(coeffs))
    return True, GradedMap(src, tgt, k - 1, comps)


# -- Ext via the cocycle complex ------------------------------------------

def _cocycle_representatives(R: Resolution, N: FDModule, k: int):
    """Coefficient vectors of Ext^k(R.module, N) representatives.

    Works in the hom basis of Hom(P_k, N): cocycles are the kernel of
    composition with d_{k+1}, coboundaries the image of composition with
    d_k; representatives complete the coboundaries inside the cocycles.
    Returns them with the MapSpace of that basis.
    """
    basis, space = _hom_space(R.P(k), N)
    if not basis:
        return [], space
    cols = [h.compose(R.diff(k + 1)).mat.flat() for h in basis]
    nrows = N.total * R.P(k + 1).total
    mat = Matrix.from_columns(cols) if nrows else Matrix.zero(0, len(basis))
    cocycles = mat.kernel_basis()

    span = Span(len(basis))
    if k >= 1:
        lower, _ = _hom_space(R.P(k - 1), N)
        for g in lower:
            try:
                span.add(space.coords(g.compose(R.diff(k)).mat))
            except ValueError:
                raise AssertionError(
                    "coboundary outside the hom space") from None
    reps = [v for v in cocycles if span.add(v)]
    return reps, space


class ResolvedSystem:
    """Resolutions of every standard module of a StandardSystem."""

    def __init__(self, system: StandardSystem, N_max: int = 4):
        self.system = system
        self.alg = system.alg
        self.N_max = N_max
        self.resolutions = {}
        for i in range(1, self.alg.n + 1):
            res = minimal_resolution(system.module(i), N_max)
            res.pdelta = (system.mode == "pdelta")
            self.resolutions[i] = res
        self._ext_cache = {}
        self._hodge_cache = {}
        self._boundary_cache = {}

    def resolution(self, i: int) -> Resolution:
        return self.resolutions[i]


def ext_basis(rsys: ResolvedSystem, i: int, j: int, k: int):
    """Chain-map representatives of Ext^k(Theta(i), Theta(j)).

    Same-vertex properly standard case: the canonical projections onto the
    P(i)-copies of P_k, cross-checked against the cocycle-complex count.
    Otherwise cocycle representatives are lifted through the augmentation.
    """
    key = (i, j, k)
    got = rsys._ext_cache.get(key)
    if got is not None:
        return got
    if k < 0 or k > rsys.N_max:
        raise ValueError("degree out of the stored range")
    R = rsys.resolution(i)
    Rp = rsys.resolution(j)
    theta_j = rsys.system.module(j)
    reps, space = _cocycle_representatives(R, theta_j, k)

    out = []
    if i == j and rsys.system.mode == "pdelta":
        if k == 0:
            if len(reps) != 1:
                raise AssertionError(
                    "endomorphism ring of a properly standard module "
                    "is not one dimensional")
            out = [identity_graded_map(R)]
        else:
            positions = [p for p, v in enumerate(R.mult_list(k)) if v == i]
            if len(positions) != len(reps):
                raise AssertionError(
                    "copy count does not match the cocycle computation")
            for p in positions:
                proj = R.P(k).summand_projections[p]
                seed = ModuleMap(R.P(k), Rp.P(0), proj.mat)
                out.append(lift_chain_map(R, Rp, k, seed))
    else:
        if k == 0 and i == j:
            # normalize so the identity endomorphism comes first
            try:
                span = Span(len(space.mats), [space.coords(R.aug.mat)])
            except ValueError:
                raise AssertionError(
                    "augmentation outside the hom space") from None
            rest = [v for v in reps if span.add(v)]
            if len(rest) != len(reps) - 1:
                raise AssertionError("identity is not an Ext^0 cocycle")
            out.append(identity_graded_map(R))
            reps = rest
        _, seeds = _hom_space(R.P(k), Rp.aug.source)
        through_aug = seeds.through(Rp.aug.mat) if reps else None
        for coeffs in reps:
            try:
                x = through_aug.coords(space.combine(coeffs))
            except ValueError:
                raise AssertionError("cocycle does not lift through the "
                                     "augmentation") from None
            seed = ModuleMap(R.P(k), Rp.aug.source, seeds.combine(x))
            out.append(lift_chain_map(R, Rp, k, seed))
    rsys._ext_cache[key] = out
    return out


def ext_dim(rsys: ResolvedSystem, i: int, j: int, k: int) -> int:
    return len(ext_basis(rsys, i, j, k))


def _graded_layout(R: Resolution, Rp: Resolution, k: int, hi: int):
    levels = list(range(max(k, 0), hi + 1))
    offsets = []
    total = 0
    for l in levels:
        offsets.append(total)
        total += Rp.P(l - k).total * R.P(l).total
    return levels, offsets, total


def _flatten_graded(f: GradedMap, hi: int):
    levels, offsets, total = _graded_layout(f.src, f.tgt, f.k, hi)
    out = [ZERO] * total
    for li, l in enumerate(levels):
        for p, v in enumerate(f.component(l).mat.flat()):
            out[offsets[li] + p] = v
    return out


def _boundary_basis(rsys: ResolvedSystem, i: int, j: int, k: int):
    """(boundary, witness) pairs spanning B^k inside degree-k maps.

    Witnesses are single-component maps of degree k - 1, preferring
    levels >= k so that the bottom witness component vanishes.
    """
    key = (i, j, k)
    got = rsys._boundary_cache.get(key)
    if got is not None:
        return got
    R = rsys.resolution(i)
    Rp = rsys.resolution(j)
    _, _, total = _graded_layout(R, Rp, k, rsys.N_max)
    pairs = []
    span = Span(total)
    ulo = max(k - 1, 0)
    order = [l for l in range(max(k, ulo), rsys.N_max + 1)]
    if k - 1 >= 0 and (k - 1) < max(k, ulo):
        order.append(k - 1)
    for l in order:
        basis, _ = _hom_space(R.P(l), Rp.P(l - k + 1))
        for h in basis:
            u = GradedMap(R, Rp, k - 1, {l: h})
            b = differential(u)
            if span.add(_flatten_graded(b, rsys.N_max)):
                pairs.append((b, u))
    rsys._boundary_cache[key] = pairs
    return pairs


class HodgeData:
    """Splitting of the degree-k graded-map space into H + B + L.

    H holds the Ext representatives, B the boundaries (with stored
    homotopy witnesses), L the witnesses chosen for the degree k + 1
    boundaries.  G inverts d from B onto the degree k - 1 witnesses and
    kills H and L.
    """

    def __init__(self, rsys: ResolvedSystem, i: int, j: int, k: int):
        if not (0 <= k <= rsys.N_max - 1):
            raise ValueError("degree out of the stored range")
        self.rsys = rsys
        self.i = i
        self.j = j
        self.k = k
        self.R = rsys.resolution(i)
        self.Rp = rsys.resolution(j)
        self.H = ext_basis(rsys, i, j, k)
        self.B_pairs = _boundary_basis(rsys, i, j, k)
        self.B = [b for b, u in self.B_pairs]
        self.witnesses = [u for b, u in self.B_pairs]
        self.L = [u for b, u in _boundary_basis(rsys, i, j, k + 1)]
        _, _, self.total = _graded_layout(self.R, self.Rp, k, rsys.N_max)
        self.ambient_dim = sum(
            len(_hom_space(self.R.P(l), self.Rp.P(l - k))[0])
            for l in range(max(k, 0), rsys.N_max + 1))
        cols = ([_flatten_graded(h, rsys.N_max) for h in self.H]
                + [_flatten_graded(b, rsys.N_max) for b in self.B]
                + [_flatten_graded(u, rsys.N_max) for u in self.L])
        self.full_mat = (Matrix.from_columns(cols) if cols
                         else Matrix.zero(self.total, 0))
        if self.full_mat.rank() != len(cols):
            raise AssertionError("H, B and L parts are not independent")
        if len(cols) != self.ambient_dim:
            raise AssertionError("H, B and L parts do not span")
        self._restricted = {}

    def _solver(self, hi: int):
        got = self._restricted.get(hi)
        if got is None:
            cols = ([_flatten_graded(h, hi) for h in self.H]
                    + [_flatten_graded(b, hi) for b in self.B])
            got = (Matrix.from_columns(cols) if cols
                   else Matrix.zero(0, 0))
            if got.rank() != len(cols):
                raise AssertionError(
                    f"cocycle parts degenerate at truncation {hi}")
            self._restricted[hi] = got
        return got

    def decompose(self, f: GradedMap):
        """(H-coefficients, B-coefficients) of a cocycle-valued map."""
        nh, nb = len(self.H), len(self.B)
        if f.is_zero():
            return [ZERO] * nh, [ZERO] * nb
        if f.hi == self.rsys.N_max:
            sol = self.full_mat.solve(_flatten_graded(f, f.hi))
            if sol is None:
                raise ValueError("map is outside the splitting")
            return list(sol[:nh]), list(sol[nh:nh + nb])
        sol = self._solver(f.hi).solve(_flatten_graded(f, f.hi))
        if sol is None:
            raise ValueError("truncated map is not a cocycle value")
        return list(sol[:nh]), list(sol[nh:])

    def G(self, f: GradedMap) -> GradedMap:
        """Homotopy: witness of the boundary part, zero on H and L."""
        _, bcoeffs = self.decompose(f)
        out = zero_graded_map(self.R, self.Rp, self.k - 1)
        for c, u in zip(bcoeffs, self.witnesses):
            if c != 0:
                out = out + u.scale(c)
        return out


def hodge_data(rsys: ResolvedSystem, i: int, j: int, k: int) -> HodgeData:
    key = (i, j, k)
    got = rsys._hodge_cache.get(key)
    if got is None:
        got = HodgeData(rsys, i, j, k)
        rsys._hodge_cache[key] = got
    return got


# -- factor algebra comparison --------------------------------------------

def quotient_by_idempotents(alg: Algebra, vertices):
    """(A / AeA, old-to-new vertex map) for e the sum over the vertices."""
    removed = set(vertices)
    kept = [j for j in range(1, alg.n + 1) if j not in removed]
    if not kept:
        raise ValueError("cannot remove every vertex")
    # AeA is spanned by the products b * c of basis elements with c in eA
    ideal = [alg.multiply(alg.basis_vec(b), alg.basis_vec(c))
             for c in range(alg.dim) if alg.btarget[c] in removed
             for b in range(alg.dim)]
    _, proj, sect = Span(alg.dim, ideal).complement()
    cols = sect.columns()
    table = [[nonzeros(proj.apply(alg.multiply(u, v))) for v in cols]
             for u in cols]
    idempotents = [proj.apply(alg.idempotent(j)) for j in kept]
    quo = from_structure_constants(len(kept), table, idempotents)
    return quo, {j: p + 1 for p, j in enumerate(kept)}


def reduction_check(alg: Algebra, order, i: int, N_max: int = 4):
    """Compare dim Ext^k(pD(i), pD(i)), k <= 2, over A and A/AeA.

    e is the idempotent sum over the vertices above i in the order; the
    dimensions are expected to agree.
    """
    from .strata import _normalize_order
    order = _normalize_order(alg, order)
    rank = {v: p for p, v in enumerate(order)}
    removed = [j for j in range(1, alg.n + 1) if rank[j] > rank[i]]

    sysA = standard_modules(alg, order, mode="pdelta")
    rsA = ResolvedSystem(sysA, N_max)
    dims_A = [ext_dim(rsA, i, i, k) for k in range(3)]

    if removed:
        quo, vmap = quotient_by_idempotents(alg, removed)
        new_order = [vmap[j] for j in order if j in vmap]
        new_i = vmap[i]
    else:
        quo, new_order, new_i = alg, order, i
    sysQ = standard_modules(quo, new_order, mode="pdelta")
    rsQ = ResolvedSystem(sysQ, N_max)
    dims_Q = [ext_dim(rsQ, new_i, new_i, k) for k in range(3)]

    return {"vertex": i,
            "removed": removed,
            "dims_A": dims_A,
            "dims_Aprime": dims_Q,
            "equal": dims_A == dims_Q}
