"""Truncated minimal projective resolutions, graded maps and Ext data.

A Resolution keeps projectives P_0..P_depth with depth = N_MAX + 1; the
extra degree keeps lifting and homotopy systems near degree N_MAX honest.
A GradedMap of degree k collects components f^(l): P_l -> P'_{l-k} for
l = max(k, 0)..hi.  The attribute hi tracks how far the components are
trustworthy: compositions with negative-degree maps lose the top level.

Sign conventions, fixed throughout: a chain map of degree k satisfies
f^(l) d_{l+1} = (-1)^k d'_{l-k+1} f^(l+1), and the differential is
d(f)^(l) = d'_{l-k} f^(l) - (-1)^k f^(l-1) d_l.
"""

from __future__ import annotations

from .linalg import ONE, ZERO, MapSpace, Matrix, Span
from .modules import (FDModule, ModuleMap, _stored, hom_from_projective,
                      radical_vectors, syzygies)
from .strata import StandardSystem

# The working truncation of every resolution.  The A-infinity transfer
# needs Hodge data up to degree 3 (ainf._tabulated), and hodge_data at
# degree k needs k <= N_MAX - 1.
N_MAX = 4


def _hom_space(R: Resolution, l: int, X: FDModule):
    """(basis, MapSpace of the basis) of Hom(P_l, X), stored on R."""
    return _stored(R.homs, (l, X), _hom_and_space, R.P(l), X)


def _hom_and_space(P: FDModule, X: FDModule):
    basis = hom_from_projective(P, X) if P.total and X.total else []
    return basis, MapSpace([f.mat for f in basis], X.total, P.total)


class Resolution:
    """Minimal projective resolution of a module, truncated at N_max.

    Fields:
        module   the resolved module
        N_max    working truncation (components 0..N_max are the public
                 range; one extra degree is stored internally)
        mods     realized sums of projectives P_0..P_{N_max+1}
        diffs    diffs[l] = d_l: P_l -> P_{l-1} for l = 1..N_max+1
        aug      augmentation P_0 -> module
        homs     Hom(P_l, X) as stored by _hom_space, keyed (l, X)
        vertex   i when it resolves Theta(i) on a ResolvedSystem
    """

    def __init__(self, module, N_max, mods, diffs, aug):
        self.module = module
        self.alg = module.alg
        self.N_max = N_max
        self.depth = len(mods) - 1
        self.mods = mods
        self.diffs = diffs
        self.aug = aug
        self.homs = {}
        self.vertex = None
        self.pdelta = False

    def P(self, l: int) -> FDModule:
        return self.mods[l]

    def diff(self, l: int) -> ModuleMap:
        return self.diffs[l]


def minimal_resolution(M: FDModule) -> Resolution:
    """Iterated projective covers of syzygies, one degree past N_MAX."""
    steps = syzygies(M, N_MAX + 2)
    mods = [cover.source for cover, _, _ in steps]
    diffs = [None] + [inc.compose(cover) for (_, _, inc), (cover, _, _)
                      in zip(steps, steps[1:])]
    res = Resolution(M, N_MAX, mods, diffs, steps[0][0])
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

    comps maps level l to a nonzero ModuleMap P_l -> P'_{l-k}; missing
    levels are zero, and +, compose, equals and differential visit only
    the present ones.  hi is the last trustworthy level (see module
    docstring).
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
        for l in self.comps.keys() | other.comps.keys():
            f, g = self.comps.get(l), other.comps.get(l)
            if l <= hi:
                comps[l] = f if g is None else g if f is None else f + g
        return GradedMap(self.src, self.tgt, self.k, comps, hi=hi)

    def scale(self, c) -> "GradedMap":
        return GradedMap(self.src, self.tgt, self.k,
                         {l: f.scale(c) for l, f in self.comps.items()},
                         hi=self.hi)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other; degrees add, the valid range shrinks."""
        if other.tgt is not self.src:
            raise ValueError("graded maps not composable")
        k = self.k + other.k
        hi = min(other.hi, self.hi + other.k)
        comps = {}
        for l, inner in other.comps.items():
            outer = self.comps.get(l - other.k)
            if outer is not None and max(k, 0) <= l <= hi:
                comps[l] = outer.compose(inner)
        return GradedMap(other.src, self.tgt, k, comps, hi=hi)

    def is_zero(self) -> bool:
        return not self.comps

    def equals(self, other: "GradedMap") -> bool:
        if self.k != other.k:
            return False
        hi = min(self.hi, other.hi)
        for l in self.comps.keys() | other.comps.keys():
            f, g = self.comps.get(l), other.comps.get(l)
            if l <= hi and (f is None or g is None or f.mat != g.mat):
                return False
        return True


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
        if l in f.comps and l - k >= 1:
            term = f.tgt.diff(l - k).compose(f.comps[l])
        if l - 1 in f.comps:
            second = f.comps[l - 1].compose(f.src.diff(l)).scale(-sgn)
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
        _, space = _hom_space(src, l + 1, post.source)
        coeffs = ()
        if not rhs.is_zero():
            try:
                coeffs = space.through(post.mat).coords(rhs)
            except ValueError:
                raise ValueError("seed does not extend") from None
        comps[l + 1] = ModuleMap(src.P(l + 1), post.source,
                                 space.combine(coeffs))
    return GradedMap(src, tgt, k, comps)


# -- Ext via the cocycle complex ------------------------------------------

def _cocycle_representatives(R: Resolution, N: FDModule, k: int):
    """Coefficient vectors of Ext^k(R.module, N) representatives.

    Works in the hom basis of Hom(P_k, N): cocycles are the kernel of
    composition with d_{k+1}, coboundaries the image of composition with
    d_k; representatives complete the coboundaries inside the cocycles.
    Returns them with the MapSpace of that basis.
    """
    basis, space = _hom_space(R, k, N)
    if not basis:
        return [], space
    cols = [h.compose(R.diff(k + 1)).mat.flat() for h in basis]
    cocycles = Matrix.from_columns(cols).kernel_basis()

    span = Span(len(basis))
    if k >= 1:
        lower, _ = _hom_space(R, k - 1, N)
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

    def __init__(self, system: StandardSystem):
        self.system = system
        self.alg = system.alg
        self.N_max = N_MAX
        self.resolutions = {}
        for i in range(1, self.alg.n + 1):
            res = minimal_resolution(system.module(i))
            res.vertex = i
            res.pdelta = (system.mode == "pdelta")
            self.resolutions[i] = res
        self._ext_cache = {}
        self._hodge_cache = {}
        self._boundary_cache = {}

    def resolution(self, i: int) -> Resolution:
        return self.resolutions[i]


def ext_basis(rsys: ResolvedSystem, i: int, j: int, k: int):
    """Chain-map representatives of Ext^k(Theta(i), Theta(j)).

    Cocycle representatives are lifted through the augmentation, the
    identity first when i == j and k == 0.  In pdelta mode with i == j
    this gives the projections of P_k onto its P(i) summands, checked by
    their count.  The projectives resolving Theta(i) are sums of P(l) with
    l >= i in the order, e_l Theta(i) = 0 for l > i and e_i Theta(i) = K.
    So Hom(P_k, Theta(i)) has one map per P(i) summand, onto the top of
    Theta(i); each is a cocycle and none a coboundary, since d lands in
    the radical, where e_i vanishes.  Through the augmentation P(i) ->
    Theta(i) every map out of P_k into P(i) vanishes but those sending a
    P(i) summand's generator to the generator, so each representative
    lifts to its summand projection.
    """
    if k < 0 or k > rsys.N_max:
        raise ValueError("degree out of the stored range")
    return _stored(rsys._ext_cache, (i, j, k), _ext_basis, rsys, i, j, k)


def _ext_basis(rsys: ResolvedSystem, i: int, j: int, k: int):
    R = rsys.resolution(i)
    Rp = rsys.resolution(j)
    theta_j = rsys.system.module(j)
    reps, space = _cocycle_representatives(R, theta_j, k)
    if i == j and rsys.system.mode == "pdelta" and \
            len(reps) != R.P(k).summands.count(i):
        raise AssertionError(
            "copy count does not match the cocycle computation")

    out = []
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
    _, seeds = _hom_space(R, k, Rp.aug.source)
    through_aug = seeds.through(Rp.aug.mat) if reps else None
    for coeffs in reps:
        try:
            x = through_aug.coords(space.combine(coeffs))
        except ValueError:
            raise AssertionError("cocycle does not lift through the "
                                 "augmentation") from None
        seed = ModuleMap(R.P(k), Rp.aug.source, seeds.combine(x))
        out.append(lift_chain_map(R, Rp, k, seed))
    return out


def _flatten_graded(f: GradedMap, hi: int) -> list:
    """f as one coordinate vector: levels max(k, 0)..hi in order, each
    component row-major, a level absent from comps read as zeros."""
    out = []
    for l in range(f.lo, hi + 1):
        g = f.comps.get(l)
        if g is None:
            out += [ZERO] * (f.tgt.P(l - f.k).total * f.src.P(l).total)
        else:
            out += g.mat.flat()
    return out


def _graded_size(src: Resolution, tgt: Resolution, k: int, hi: int) -> int:
    """The length of _flatten_graded of a degree-k map through level hi."""
    return sum(tgt.P(l - k).total * src.P(l).total
               for l in range(max(k, 0), hi + 1))


def _boundary_basis(rsys: ResolvedSystem, i: int, j: int, k: int):
    """(boundary, witness) pairs spanning B^k inside degree-k maps, for
    k >= 0; HodgeData keeps them in rsys._boundary_cache.

    Witnesses are single-component maps of degree k - 1, at the levels
    k..N_max first, so that the bottom witness component vanishes, and
    at level k - 1 last.
    """
    R = rsys.resolution(i)
    Rp = rsys.resolution(j)
    pairs = []
    span = Span(_graded_size(R, Rp, k, rsys.N_max))
    order = list(range(k, rsys.N_max + 1)) + ([k - 1] if k >= 1 else [])
    for l in order:
        basis, _ = _hom_space(R, l, Rp.P(l - k + 1))
        for h in basis:
            u = GradedMap(R, Rp, k - 1, {l: h})
            b = differential(u)
            if span.add(_flatten_graded(b, rsys.N_max)):
                pairs.append((b, u))
    return pairs


class HodgeData:
    """Splitting of the degree-k graded-map space into H + B + L.

    H holds the Ext representatives, B the boundaries (with stored
    homotopy witnesses), L the witnesses chosen for the degree k + 1
    boundaries.  G inverts d from B onto the degree k - 1 witnesses and
    kills H and L.  The splitting is one MapSpace of maps through level
    N_max, so only maps trustworthy up to N_max are split.
    """

    def __init__(self, rsys: ResolvedSystem, i: int, j: int, k: int):
        if not (0 <= k <= rsys.N_max - 1):
            raise ValueError("degree out of the stored range")
        self.N_max = rsys.N_max
        self.i = i
        self.j = j
        self.k = k
        self.R = rsys.resolution(i)
        self.Rp = rsys.resolution(j)
        self.H = ext_basis(rsys, i, j, k)
        self.B_pairs, lower = (
            _stored(rsys._boundary_cache, (i, j, d), _boundary_basis,
                    rsys, i, j, d) for d in (k, k + 1))
        self.B = [b for b, u in self.B_pairs]
        self.witnesses = [u for b, u in self.B_pairs]
        self.L = [u for b, u in lower]
        self.ambient_dim = sum(
            len(_hom_space(self.R, l, self.Rp.P(l - k))[0])
            for l in range(max(k, 0), rsys.N_max + 1))
        size = _graded_size(self.R, self.Rp, k, rsys.N_max)
        self.space = MapSpace(
            [Matrix(1, size, [_flatten_graded(f, rsys.N_max)])
             for f in self.H + self.B + self.L], 1, size)
        if len(self.space) != len(self.space.mats):
            raise AssertionError("H, B and L parts are not independent")
        if len(self.space.mats) != self.ambient_dim:
            raise AssertionError("H, B and L parts do not span")
        # the side conditions p i = id, G i = 0, G G = 0 and p G = 0 that
        # ainf's strict-unitality lemma rests on (G lands in the L part
        # one degree down)
        nh = len(self.H)
        for n, h in enumerate(self.H):
            unit = [ZERO] * n + [ONE] + [ZERO] * (nh - n - 1)
            if self.decompose(h)[0] != unit or not self.G(h).is_zero():
                raise AssertionError("p i = id or G i = 0 fails")
        for u in self.L:
            if any(self.decompose(u)[0]) or not self.G(u).is_zero():
                raise AssertionError("p G = 0 or G G = 0 fails")

    def decompose(self, f: GradedMap):
        """(H-coefficients, B-coefficients) of a degree-k map.

        A zero map reads as zeros at any truncation.  A nonzero map
        trustworthy only below N_max is refused with ValueError: its
        missing top levels could hold any mix of H, B and L.
        """
        nh, nb = len(self.H), len(self.B)
        if f.is_zero():
            return [ZERO] * nh, [ZERO] * nb
        if f.hi < self.N_max:
            raise ValueError(f"truncated map (levels up to {f.hi}) "
                             "has no splitting")
        flat = _flatten_graded(f, f.hi)
        try:
            sol = self.space.coords(Matrix(1, len(flat), [flat]))
        except ValueError:
            raise ValueError("map is outside the splitting") from None
        return list(sol[:nh]), list(sol[nh:nh + nb])

    def G(self, f: GradedMap) -> GradedMap:
        """Homotopy: witness of the boundary part, zero on H and L."""
        _, bcoeffs = self.decompose(f)
        out = zero_graded_map(self.R, self.Rp, self.k - 1)
        for c, u in zip(bcoeffs, self.witnesses):
            if c != 0:
                out = out + u.scale(c)
        return out


def hodge_data(rsys: ResolvedSystem, i: int, j: int, k: int) -> HodgeData:
    """The HodgeData of (i, j, k), built once per ResolvedSystem."""
    return _stored(rsys._hodge_cache, (i, j, k), HodgeData, rsys, i, j, k)

