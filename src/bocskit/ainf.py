"""Homotopy transfer of the product structure onto Ext degrees 0..2.

The transferred products m_r are given by the usual perturbation
recursion: lambda_2 is composition, G inverts the differential on the
boundary part, and

    lambda_r = sum_t (-1)^((r-t) * (|a_1| + ... + |a_t|) + 1)
               lambda_2(G lambda_{r-t}(a_r..a_{t+1}), G lambda_t(a_t..a_1))

with G lambda_1 = -id.  Degrees in the exponent are plain (unsuspended)
degrees; on degree-1 inputs the exponent reduces to t(r-t)+1, which is
the sign that makes lambda_r of cocycles a cocycle.  The suspended
products b_r carry the extra sign (-1)^(sum_{j>=2} (j-1)|a_j|) with a_1
the rightmost argument.  Both sign readings are pinned operationally by
stasheff_check and the cocycle property tests.

merkulov_lambda evaluates the recursion bottom-up, shortest contiguous
subtuples first, so each value it reads is already in its memo.

The table runs the recursion on unit-free tuples only.  A tuple with an
identity class 1_i among its arguments is decided by strict unitality:
m_2(1, a) = a = m_2(a, 1), and m_r = 0 for r >= 3 (Markl, "Transferring
A-infinity structures", arXiv math/0401007; Lefevre-Hasegawa's thesis,
ch. 3).  The lemma rests on two checked facts.  AInfTable checks once per
vertex that the class 1_i is identity_graded_map of its resolution,
trustworthy through N_max; and HodgeData checks the side conditions
p i = id, G i = 0, G G = 0 and p G = 0 on every splitting it builds (the
witnesses G lands in are the L part one degree down).  Proof, by
induction on the length of a contiguous subtuple S holding a unit:
G lambda(S) = 0, and p lambda(S) = 0 once S has length >= 3.

  - Length 2: lambda(1, a) and lambda(a, 1) are the composite 1 a = a,
    an H vector, so m_2 reads a off by p i = id, and G kills it.
  - Length >= 3: every term of the recursion whose factor holding the
    unit has length >= 2 vanishes by induction.  The remaining terms
    split off a unit at an end of S as G lambda_1(1) = -1.  A unit
    inside S leaves no such term, and units at both ends leave each
    term's other factor holding a unit; so lambda(S) is 0, or
    +-G lambda(S') for S' the unit-free rest.  G and p kill that by
    G G = 0 and p G = 0.

Composing with the identity is exact here, top level included.  A
tabulated tuple with a unit has at most one more degree-0 argument and
at most one of degree 2, so lambda(S') has degree 1..3 and G lambda(S')
degree >= 0, where 1 (G lambda(S')) keeps every level through N_max.
The recursion stays the reference: the tests compare every tabulated
value with merkulov_lambda run per tuple.

Corollary for the Stasheff identity.  Write the chain (a_k, ..., a_1) in
display order and S(l) for the sum of |c| - 1 over its first l entries;
the term of the slice of length t at position l is
(-1)^S(l) b'(key[:l] + b'(slice) + key[l+t:]).  By the lemma, b' on a
tuple holding a unit 1 is b'(1, a) = a and b'(a, 1) = (-1)^|a| a (the
suspension sign of the left argument) on length 2, and zero otherwise.
So every chain holding a unit sums to zero, whatever b' is on unit-free
tuples:

  - A slice holding 1 contributes only at length 2, a collapse: the
    outer tuple is the chain with one 1 removed.  A unit-free slice
    leaves 1 in its outer tuple, which must have length 2: the chain is
    (1, mid) or (mid, 1) and the slice is mid.
  - One unit, inside: its collapses with the neighbours a (left) and c
    reach the same outer tuple K, with signs (-1)^(S(l) + |a|) and
    (-1)^S(l+1) = (-1)^(S(l) + |a| - 1); they cancel.
  - (1, mid): the collapse gives +b'(mid), and the slice mid at l = 1
    gives (-1)^(0 - 1) b'(1, b'(mid)) = -b'(mid).
  - (mid, 1): every class x of b'(mid) has |x| = S(mid) + 2, so the
    slice mid gives (-1)^S(mid) b'(mid); the collapse (a, 1) at the end
    gives (-1)^(S(mid) - |a| + 1 + |a|) b'(mid).  They cancel.
  - Two or more units: every outer tuple still holds one, so only a
    length-3 chain survives, (1, 1, a), (a, 1, 1), (1, a, 1) or
    (1, 1, 1); its two collapses land on one length-2 tuple with
    opposite signs, by the same sums.

Tuples are stored in display order (a_r, ..., a_1): the rightmost entry
acts first, matching the composition convention everywhere else.  Which
tuples are tabulated depends only on r and the counts c0 and c2 of
degree-0 and degree-2 arguments (_tabulated), and the counts only grow
as a tuple does; so _grow extends only the partial tuples with c0 <= 2
and c2 <= 1, and the table harvests each level from them, never
enumerating the composable tuples outside that range.  One walk, _chains,
enumerates the composable tuples for stasheff_check.  AInfTable.m_table
then holds every product once, and AInfTable.bp_table the signed b' of
each nonzero one: bprime (so stasheff_check and the twisted modules) and
products_into (so the bocs) read their coefficients off it instead of
enumerating tuples or signing products again.  A class is a named tuple
(k, i, j, idx), so every table lookup hashes and compares in C.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .linalg import _sum_terms
from .resolution import (GradedMap, ResolvedSystem, ext_basis, hodge_data,
                         identity_graded_map)


class ExtClass(NamedTuple):
    """A basis class of Ext^k(Theta(i), Theta(j)) by position."""

    k: int
    i: int
    j: int
    idx: int

    def __repr__(self):
        return f"H{self.k}({self.i}->{self.j})#{self.idx}"


def _vertex_pair(rsys: ResolvedSystem, f: GradedMap):
    src, tgt = f.src.vertex, f.tgt.vertex
    if rsys.resolutions.get(src) is not f.src or \
            rsys.resolutions.get(tgt) is not f.tgt:
        raise ValueError("graded map does not live on the resolved system")
    return src, tgt


def merkulov_lambda(rsys: ResolvedSystem, maps, memo=None):
    """lambda_r evaluated on stored chain maps, rightmost acting first.

    memo, if given, is a dict shared by calls on the same rsys.  It holds
    [lambda, G lambda] per contiguous subtuple of argument maps in
    application order, so each subtuple is transferred once however many
    tuples contain it.
    """
    if len(maps) < 2:
        raise ValueError("lambda needs at least two arguments")
    low = list(reversed(maps))  # low[0] = a_1
    degs = [f.k for f in low]
    vertices = []
    for f in low:
        vertices.append(_vertex_pair(rsys, f))
    for t in range(len(low) - 1):
        if vertices[t][1] != vertices[t + 1][0]:
            raise ValueError("arguments are not composable")
    if memo is None:
        memo = {}
    # by length, shortest first: the [lambda, G lambda] slot of a_{s+1}..a_e
    r = len(low)
    slots = {}
    for length in range(1, r + 1):
        for s in range(r - length + 1):
            e = s + length
            slot = slots[s, e] = memo.setdefault(tuple(low[s:e]), [None, None])
            if length == 1:
                if slot[1] is None:
                    slot[1] = low[s].scale(-1)
                continue
            if slot[0] is None:
                if length == 2:
                    val = low[s + 1].compose(low[s])
                else:
                    val = None
                    for t in range(1, length):
                        upper = slots[s + t, e][1]
                        lower = slots[s, s + t][1]
                        exp = (length - t) * sum(degs[s:s + t]) + 1
                        term = upper.compose(lower)
                        if exp % 2 == 1:
                            term = term.scale(-1)
                        val = term if val is None else val + term
                slot[0] = val
            if length < r and slot[1] is None:
                i0 = vertices[s][0]
                i1 = vertices[e - 1][1]
                slot[1] = hodge_data(rsys, i0, i1, slot[0].k).G(slot[0])
    return slots[0, r][0]


def _tabulated(key):
    """Tuples whose transfer values stay in the stored Hodge range.

    With c0 and c2 the numbers of degree-0 and degree-2 arguments, the
    degree sum minus r is c2 - c0, so the output degree is c2 - c0 + 2
    and the tuple is in range (output degree 0..2, suspended degree
    <= 0) when c2 <= c0 <= c2 + 2.  It is tabulated when it is in range,
    r >= 2, c0 <= 2 and c2 <= 1: then every contiguous subtuple has a
    lambda value of degree between 0 and 3, so G is always available.
    Excluded in-range tuples carry three or more degree-0 arguments or
    two of degree 2; AInfTable.m takes them as zero by the checked lemma
    (module docstring) when one argument is an identity class, and
    refuses them otherwise.
    """
    c0 = c2 = 0
    for c in key:
        if c.k == 0:
            c0 += 1
        elif c.k == 2:
            c2 += 1
    return len(key) >= 2 and c0 <= 2 and c2 <= 1 and c2 <= c0 <= c2 + 2


def _chains(table, r, degrees, skip=frozenset()):
    """Composable display tuples of r classes with degrees in degrees,
    none of them in skip.

    Grown level by level from a_1, each tuple extended by the classes
    that start where it ends, in (degree, target, index) order; so the
    tuples come out ordered by a_1 first, then a_2, and so on, and those
    avoiding skip in the order of all of them.
    """
    n = table.rsys.alg.n
    level = [(i, ()) for i in range(1, n + 1)]
    for _ in range(r):
        level = [(j, (cls,) + key) for v, key in level
                 for k in degrees for j in range(1, n + 1)
                 for cls in table.classes[(k, v, j)] if cls not in skip]
    return [key for _, key in level]


def _grow(table):
    """The levels r = 1..r_max of composable display tuples (end vertex,
    key, c0, c2) with c0 <= 2 and c2 <= 1, as (r, level).

    Grown as _chains grows them, in the same order, but a partial tuple
    with c0 > 2 or c2 > 1 is dropped as soon as it appears: the counts
    only grow, so no extension of it is tabulated.
    """
    n = table.rsys.alg.n
    starts = {v: [(k, [cls for j in range(1, n + 1)
                       for cls in table.classes[(k, v, j)]])
                  for k in range(3)]
              for v in range(1, n + 1)}
    level = [(i, (), 0, 0) for i in range(1, n + 1)]
    for r in range(1, table.r_max + 1):
        grown = []
        for v, key, c0, c2 in level:
            for k, classes in starts[v]:
                d0, d2 = c0 + (k == 0), c2 + (k == 2)
                if d0 <= 2 and d2 <= 1:
                    grown += [(cls.j, (cls,) + key, d0, d2)
                              for cls in classes]
        level = grown
        yield r, level


class AInfTable:
    """Tabulated products on Ext classes of degree <= 2.

    m_table maps display-order class tuples to coefficient dicts over the
    output Ext basis; b coefficients add the suspension sign; bprime
    additionally truncates tuples of positive total suspended degree.
    Every tabulated tuple has suspended degree <= 0, so bp_table, the b'
    coefficients of each tuple with a nonzero m in m_table order, is b'
    on all of m_table; bprime hands its maps out read-only.  units holds
    the identity classes, each checked to be the identity chain map; the
    products of tuples holding one are read off the checked lemma of the
    module docstring instead of the recursion.
    """

    def __init__(self, rsys: ResolvedSystem, r_max: int = 6):
        self.rsys = rsys
        self.r_max = r_max
        self.classes = {}
        self.gmaps = {}
        n = rsys.alg.n
        for k in range(3):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    lst = []
                    for idx, f in enumerate(ext_basis(rsys, i, j, k)):
                        cls = ExtClass(k, i, j, idx)
                        lst.append(cls)
                        self.gmaps[cls] = f
                    self.classes[(k, i, j)] = lst
        self.units = frozenset(self._checked_unit(i) for i in range(1, n + 1))
        self.m_table = {}
        memo = {}
        for r, level in _grow(self):
            for _, key, c0, c2 in level:
                if r < 2 or not c2 <= c0 <= c2 + 2:  # _tabulated
                    continue
                if self.units.isdisjoint(key):
                    self.m_table[key] = self._compute_m(key, memo)
                elif r == 2:  # the checked lemma of the module docstring
                    a, b = key
                    self.m_table[key] = {b if a in self.units else a: 1}
                else:
                    self.m_table[key] = {}
        self.bp_table = {key: self.b(key)
                         for key, coeffs in self.m_table.items() if coeffs}

    # -- bookkeeping ------------------------------------------------------

    def basis(self, k, i, j):
        return list(self.classes[(k, i, j)])

    def identity_class(self, i):
        return self.classes[(0, i, i)][0]

    def graded_map(self, cls: ExtClass) -> GradedMap:
        return self.gmaps[cls]

    def _checked_unit(self, i):
        """The identity class of vertex i, checked to be the identity
        chain map of its resolution through N_max."""
        cls = self.identity_class(i)
        f, R = self.gmaps[cls], self.rsys.resolution(i)
        if not (f.src is f.tgt is R and f.hi == R.N_max
                and f.equals(identity_graded_map(R))):
            raise AssertionError(f"{cls} is not the identity of vertex {i}")
        return cls

    def _compute_m(self, key, memo):
        low = list(reversed(key))
        r = len(key)
        degsum = sum(c.k for c in key)
        q = degsum + 2 - r
        maps = [self.gmaps[c] for c in key]
        value = merkulov_lambda(self.rsys, maps, memo)
        if value.k != q:
            raise AssertionError("transfer value has the wrong degree")
        i0 = low[0].i
        i1 = key[0].j
        if value.is_zero():
            return {}
        hd = hodge_data(self.rsys, i0, i1, q)
        hcoeffs, _ = hd.decompose(value)
        out = {}
        for c, cls in zip(hcoeffs, self.classes[(q, i0, i1)]):
            if c != 0:
                out[cls] = c
        return out

    # -- products ---------------------------------------------------------

    def m(self, key):
        """Coefficient dict of m_r on a display-order class tuple."""
        if len(key) == 1:
            return {}
        if key in self.m_table:
            return dict(self.m_table[key])
        r = len(key)
        degsum = sum(c.k for c in key)
        if degsum - r > 0 or not (0 <= degsum + 2 - r <= 2):
            return {}
        for t in range(r - 1):
            if key[r - 1 - t].j != key[r - 2 - t].i:
                return {}
        if r > self.r_max:
            raise ValueError("r_max too small")
        if not _tabulated(key) and not self.units.isdisjoint(key):
            return {}  # zero by the checked lemma (module docstring)
        raise ValueError(f"tuple not tabulated: {key}")

    def suspension_exponent(self, key):
        """Sign exponent of b_r relative to m_r, a_1 rightmost."""
        r = len(key)
        exp = 0
        for pos, cls in enumerate(key):
            j = r - pos  # argument index, a_1 rightmost
            exp += (j - 1) * cls.k
        return exp

    def b(self, key):
        coeffs = self.m(key)
        if not coeffs:
            return {}
        sign = -1 if self.suspension_exponent(key) % 2 == 1 else 1
        return {cls: sign * c for cls, c in coeffs.items()}

    def bprime(self, key):
        """b' coefficients, read-only: b on tuples of suspended degree
        <= 0, zero above.  A tuple that m_table decides is read off
        bp_table; one of negative output degree is zero, as m finds
        before any other check; any other takes the checks of m."""
        got = self.bp_table.get(key)
        if got is not None:
            return MappingProxyType(got)
        r = len(key)
        if r == 1 or key in self.m_table \
                or not r - 2 <= sum(c.k for c in key) <= r:
            return {}
        return self.b(key)

    def products_into(self, cls, zeros, r_top):
        """(key, coefficient of cls in b'(key)) for every tuple of at most
        r_top Ext^0 and Ext^1 classes, zeros of them of degree 0, with a
        nonzero coefficient; in m_table order.

        Such tuples are all tabulated (zeros <= 2), so they are read off
        bp_table.
        """
        if r_top > self.r_max:
            raise ValueError("r_max too small")
        out = []
        for key, coeffs in self.bp_table.items():
            c = coeffs.get(cls)
            if (c and len(key) <= r_top and all(a.k <= 1 for a in key)
                    and sum(a.k == 0 for a in key) == zeros):
                out.append((key, c))
        return out


def build_tables(rsys: ResolvedSystem, r_max: int = 6) -> AInfTable:
    """Tabulate the transferred products up to r_max inputs."""
    return AInfTable(rsys, r_max)


def stasheff_check(table: AInfTable, k: int) -> bool:
    """Truncated Stasheff identity on all suspended-degree <= 0 tuples.

    Evaluates sum of b'_{r+1+u}(id^r (x) b'_t (x) id^u) over r+t+u = k on
    every composable length-k tuple of Ext^{<=1} classes, with the Koszul
    sign from moving b'_t past the left factors.

    A chain holding an identity class sums to zero by the corollary in
    the module docstring, whose premise is that bp_table's entries on
    tuples holding one are the lemma's: b'(1, a) = a and
    b'(a, 1) = (-1)^|a| a for every class a, and nothing longer.  That is
    checked on each call, and then only the unit-free chains are
    evaluated, in the order of all of them; otherwise every chain is.
    Either way the verdict is that of evaluating every chain.

    The inner values are read off bp_table.  An inner slice mid has t
    classes of degree <= 1, with t <= k <= r_max, so its c2 is 0 and its
    degree sum minus t is -c0.  A 1-tuple has b' = 0.  For t >= 2, mid is
    in range when 0 <= 2 - c0, that is c0 <= 2; then it is tabulated
    (c2 = 0 <= c0 <= 2 = c2 + 2), so a key of m_table, and b'(mid) is
    bp_table's entry or {} when m(mid) = 0.  Out of range, b'(mid) = 0.
    So b'(mid) is bp_table.get(mid, {}) and never raises; the entries of
    degree <= 1 are indexed by their first class, in increasing t, which
    is the (left, t) order of the sum.  The outer values go through
    bprime unless they are in bp_table, so an untabulated outer key
    raises as bprime does.
    """
    if k > table.r_max:
        raise ValueError("k exceeds r_max")
    bp, units = table.bp_table, table.units
    starts, held = {}, {}
    for mid, inner in sorted(bp.items(), key=lambda item: len(item[0])):
        if not units.isdisjoint(mid):
            held[mid] = inner
        if len(mid) <= k and all(c.k <= 1 for c in mid):
            starts.setdefault(mid[0], []).append((len(mid), mid, inner))
    lemma = {}
    for a in table.gmaps:
        lemma[table.identity_class(a.j), a] = {a: 1}
        lemma[a, table.identity_class(a.i)] = {a: -1 if a.k % 2 else 1}
    skip = units if held == lemma else frozenset()
    for key in _chains(table, k, (0, 1), skip):
        terms = []
        koszul = 0  # sum of |a| - 1 over key[:left]
        for left, first in enumerate(key):
            sign = -1 if koszul % 2 == 1 else 1
            for t, mid, inner in starts.get(first, ()):
                if t > k - left:
                    break
                if key[left:left + t] != mid:
                    continue
                head, right = key[:left], key[left + t:]
                for cls, c in inner.items():
                    new_key = head + (cls,) + right
                    outer = bp.get(new_key)
                    if outer is None:
                        outer = table.bprime(new_key)
                    if outer:
                        terms.append((sign * c, outer))
            koszul += first.k - 1
        if terms and _sum_terms((cls, s * d) for s, outer in terms
                                for cls, d in outer.items()):
            return False
    return True
