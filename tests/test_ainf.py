import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bocskit import ainf
from bocskit.ainf import (ExtClass, _chains, build_tables, merkulov_lambda,
                          stasheff_check)
from bocskit.quiver import (Quiver, Relation, RelationSet, build_algebra,
                            example_a2, example_dual_numbers,
                            example_jordan3, example_semisimple_pair)
from bocskit.resolution import (HodgeData, ResolvedSystem, differential,
                                ext_basis, hodge_data)
from bocskit.strata import classify_algebra, standard_modules

from helpers import (all_classes, auslander, is_null_homotopic,
                     monomial_algebras, reference_stasheff_check,
                     reference_stasheff_sum, reference_tabulated_keys)


def pdelta_tables(alg, r_max=5):
    rsys = ResolvedSystem(standard_modules(alg, mode="pdelta"))
    return build_tables(rsys, r_max=r_max), rsys


@pytest.fixture(scope="module")
def e1():
    return pdelta_tables(example_dual_numbers())


@pytest.fixture(scope="module")
def e3():
    return pdelta_tables(example_jordan3())


@pytest.fixture(scope="module")
def e0():
    return pdelta_tables(example_semisimple_pair(), r_max=4)


@pytest.fixture(scope="module")
def e2():
    rsys = ResolvedSystem(standard_modules(example_a2(), mode="delta"))
    return build_tables(rsys, r_max=5), rsys


@pytest.fixture(scope="module")
def qh2():
    """K(1 <-> 2)/(b a), quasi-hereditary in the order (2, 1), whose
    vertices each start classes of two degrees toward different ends."""
    q = Quiver(2, [("a", 1, 2), ("b", 2, 1)])
    alg = build_algebra(q, RelationSet(q, [Relation(q, [(1, 1, ("a", "b"))])]))
    rsys = ResolvedSystem(standard_modules(alg, [2, 1], mode="delta"))
    return build_tables(rsys, r_max=5), rsys


@pytest.fixture(scope="module")
def counted_r6():
    """e1 and e3 tabulated to r = 6, each with its number of G calls."""
    real = HodgeData.G
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for alg in (example_dual_numbers(), example_jordan3()):
            calls = [0]

            def counting(self, f, calls=calls):
                calls[0] += 1
                return real(self, f)

            mp.setattr(HodgeData, "G", counting)
            tab, rsys = pdelta_tables(alg, r_max=6)
            out.append((tab, rsys, calls[0]))
    return out


def test_untabulated_tuple_is_a_value_error(e1, monkeypatch):
    tab, _ = e1
    key = next(iter(tab.m_table))
    monkeypatch.setattr(tab, "m_table",
                        {k: v for k, v in tab.m_table.items() if k != key})
    with pytest.raises(ValueError, match="tuple not tabulated") as exc:
        tab.m(key)
    assert str(key) in str(exc.value)


def _assert_table_is_the_per_tuple_transfer(tab, rsys):
    """Every m_table value, those of tuples with a unit included, is what
    merkulov_lambda gives on its own tuple, projected onto H."""
    for key, coeffs in tab.m_table.items():
        value = merkulov_lambda(rsys, [tab.graded_map(c) for c in key])
        q = sum(c.k for c in key) + 2 - len(key)
        i0, i1 = key[-1].i, key[0].j
        hcoeffs, _ = hodge_data(rsys, i0, i1, q).decompose(value)
        assert coeffs == {cls: c for cls, c
                          in zip(tab.basis(q, i0, i1), hcoeffs) if c}


def test_memoized_table_is_the_per_tuple_transfer(counted_r6, e0, e2, qh2):
    tables = [(tab, rsys) for tab, rsys, _ in counted_r6] + [e0, e2, qh2]
    for tab, rsys in tables:
        _assert_table_is_the_per_tuple_transfer(tab, rsys)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(monomial_algebras())
def test_table_is_the_per_tuple_transfer_on_monomial_algebras(alg):
    cls = classify_algebra(alg)
    for mode in ("delta", "pdelta"):
        if cls.filtered(mode):
            rsys = ResolvedSystem(cls.systems[mode])
            _assert_table_is_the_per_tuple_transfer(
                build_tables(rsys, r_max=4), rsys)


def _truncated_polynomial(N):
    q = Quiver(1, [("x", 1, 1)])
    return build_algebra(q, RelationSet(q, [Relation(q, [(1, 1, ("x",) * N)])]))


@pytest.mark.parametrize("N", range(2, 7))
def test_massey_products_of_a_truncated_polynomial_ring(N):
    """K[x]/(x^N) in pdelta mode, where the standard module is simple:
    every minimal model has m_k(y, ..., y) = 0 for 2 <= k < N and m_N(y,
    ..., y) a nonzero multiple of the Ext^2 generator (Lu-Palmieri-Wu-
    Zhang, arXiv math/0606144).  The higher m_k(y, ..., y), k <= 6, are
    zero in this model too."""
    tab, _ = pdelta_tables(_truncated_polynomial(N), r_max=6)
    (y,) = tab.basis(1, 1, 1)
    (z,) = tab.basis(2, 1, 1)
    for k in range(2, 7):
        coeffs = tab.m((y,) * k)
        if k == N:
            assert coeffs.keys() == {z} and coeffs[z] != 0
        else:
            assert coeffs == {}


@pytest.mark.parametrize("mode", ["delta", "pdelta"])
@pytest.mark.parametrize("N", range(2, 6))
def test_massey_product_of_a_linear_quiver_modulo_its_full_path(N, mode):
    """1 -> 2 -> ... -> N+1 modulo the path through all N arrows, in the
    order [1, ..., N+1]: the standard modules are the simples, Ext^1 is
    one class per arrow, and Ext^2 is one-dimensional at (1, N+1) and zero
    elsewhere.  So in every minimal model m_N on the arrow classes, in
    composable order, is a nonzero multiple of that class."""
    q = Quiver(N + 1, [(f"a{i}", i, i + 1) for i in range(1, N + 1)])
    full = tuple(name for name, _, _ in q.arrows)
    alg = build_algebra(q, RelationSet(q, [Relation(q, [(1, 1, full)])]))
    vertices = range(1, N + 2)
    rsys = ResolvedSystem(standard_modules(alg, list(vertices), mode=mode))
    tab = build_tables(rsys, r_max=N)
    dims = {(k, i, j): len(tab.basis(k, i, j)) for k in (1, 2)
            for i in vertices for j in vertices if tab.basis(k, i, j)}
    assert dims == {(1, i, i + 1): 1 for i in range(1, N + 1)} | \
        {(2, 1, N + 1): 1}
    arrows = tuple(tab.basis(1, i, i + 1)[0] for i in range(N, 0, -1))
    (z,) = tab.basis(2, 1, N + 1)
    coeffs = tab.m(arrows)
    assert coeffs.keys() == {z} and coeffs[z] != 0


@pytest.mark.parametrize("part", ["H", "L"])
def test_a_homotopy_that_breaks_a_side_condition_is_an_internal_error(
        part, monkeypatch):
    real = HodgeData.G

    def leaky(self, f):
        out = real(self, f)
        if any(f is g for g in getattr(self, part)):
            out = out + self.witnesses[0]
        return out

    monkeypatch.setattr(HodgeData, "G", leaky)
    with pytest.raises(AssertionError, match="G . = 0 fails"):
        pdelta_tables(example_dual_numbers())


def test_an_identity_class_that_is_not_the_identity_is_an_internal_error(
        monkeypatch):
    real = ainf.ext_basis

    def doubled_unit(rsys, i, j, k):
        out = real(rsys, i, j, k)
        return [out[0].scale(2)] + out[1:] if (i, j, k) == (1, 1, 0) else out

    monkeypatch.setattr(ainf, "ext_basis", doubled_unit)
    with pytest.raises(AssertionError, match="is not the identity"):
        pdelta_tables(example_dual_numbers())


def test_G_runs_once_per_distinct_subtuple(counted_r6):
    for tab, _, calls in counted_r6:
        # G is applied to lambda of every proper subtuple of length >= 2
        subtuples = {key[s:e] for key in tab.m_table
                     for s in range(len(key))
                     for e in range(s + 2, len(key) + 1)
                     if e - s < len(key)}
        assert 0 < calls <= len(subtuples)


def test_lambda2_is_composition(e1):
    tab, rsys = e1
    (y,) = tab.basis(1, 1, 1)
    gy = tab.graded_map(y)
    val = merkulov_lambda(rsys, [gy, gy])
    assert val.equals(gy.compose(gy))


def test_lambda_reads_the_vertex_each_resolution_carries(e1, e2):
    tab, rsys = e1
    assert [(i, res.vertex) for i, res in rsys.resolutions.items()] == \
        [(1, 1)]
    (y,) = tab.basis(1, 1, 1)
    gy = tab.graded_map(y)
    # a map of another resolved system, even at the same vertex, is
    # refused rather than read at its vertex
    _, other = e2
    (z,) = ext_basis(other, 1, 1, 0)
    for maps in ([gy, z], [z, gy]):
        with pytest.raises(ValueError, match="does not live on the resolved"):
            merkulov_lambda(rsys, maps)


def test_m2_yoneda_square_dual_numbers(e1):
    tab, _ = e1
    (y,) = tab.basis(1, 1, 1)
    coeffs = tab.m((y, y))
    assert len(coeffs) == 1
    ((cls, c),) = coeffs.items()
    assert cls.k == 2 and c != 0


def test_m2_vanishes_m3_generates_jordan3(e3):
    tab, _ = e3
    (y,) = tab.basis(1, 1, 1)
    assert tab.m((y, y)) == {}
    coeffs = tab.m((y, y, y))
    assert len(coeffs) == 1
    ((cls, c),) = coeffs.items()
    assert cls.k == 2 and c != 0
    assert tab.m((y, y, y, y)) == {}
    assert tab.m((y,) * 5) == {}


def test_m2_agrees_with_yoneda_composition(e1, e3):
    for tab, rsys in (e1, e3):
        all_cls = all_classes(tab, {0, 1, 2})
        for a in all_cls:
            for b in all_cls:
                if b.j != a.i:
                    continue
                q = a.k + b.k
                if q > 2:
                    continue
                comp = tab.graded_map(a).compose(tab.graded_map(b))
                hd = hodge_data(rsys, b.i, a.j, q)
                hcoeffs, _ = hd.decompose(comp)
                expected = {cls: c for cls, c
                            in zip(tab.basis(q, b.i, a.j), hcoeffs) if c != 0}
                assert tab.m((a, b)) == expected


def test_lambda_values_are_cocycles(e1, e3):
    for tab, rsys in (e1, e3):
        (y,) = tab.basis(1, 1, 1)
        gy = tab.graded_map(y)
        for r in (2, 3, 4):
            val = merkulov_lambda(rsys, [gy] * r)
            assert differential(val).is_zero()


def test_surjectivity_criterion_matches_homotopy(e1, e3):
    for tab, rsys in (e1, e3):
        (y,) = tab.basis(1, 1, 1)
        gy = tab.graded_map(y)
        R = rsys.resolution(1)
        for r in (2, 3, 4):
            val = merkulov_lambda(rsys, [gy] * r)
            if r == 2:
                glower = gy.scale(-1)
            else:
                lower = merkulov_lambda(rsys, [gy] * (r - 1))
                glower = hodge_data(rsys, 1, 1, lower.k).G(lower)
            h = gy.component(1).mat @ glower.component(2).mat
            surjective = h.rank() == R.P(0).total
            assert surjective == (not is_null_homotopic(val)[0])


def test_strict_unit_m2(e1, e3):
    for tab, _ in (e1, e3):
        for x in all_classes(tab, {0, 1, 2}):
            e_left = tab.identity_class(x.j)
            e_right = tab.identity_class(x.i)
            assert tab.m((e_left, x)) == {x: 1}
            assert tab.m((x, e_right)) == {x: 1}


def test_strict_unit_higher_products(e1, e3):
    for tab, _ in (e1, e3):
        for key, coeffs in tab.m_table.items():
            if len(key) < 3:
                continue
            if any(c == tab.identity_class(c.i) for c in key if c.k == 0):
                assert coeffs == {}


def test_semisimple_tables_empty_beyond_identities(e0):
    tab, _ = e0
    for key, coeffs in tab.m_table.items():
        if any(c.k > 0 for c in key):
            assert coeffs == {}
        ident = all(c == tab.identity_class(c.i) for c in key)
        if len(key) == 2 and ident and key[0].i == key[1].i:
            assert coeffs == {key[0]: 1}


def test_stasheff_identities(e1, e3, e0):
    for tab, _ in (e1, e3):
        for k in (1, 2, 3, 4):
            assert stasheff_check(tab, k)
    tab0, _ = e0
    assert stasheff_check(tab0, 2)


def test_bprime_truncation(e1):
    tab, _ = e1
    (y,) = tab.basis(1, 1, 1)
    (z,) = tab.basis(2, 1, 1)
    assert tab.suspension_exponent((z, y)) >= 0
    assert sum(c.k - 1 for c in (z, y)) == 1
    assert tab.bprime((z, y)) == {}
    assert tab.bprime((y, z)) == {}
    assert tab.bprime((y, y)) != {}
    assert tab.bprime((y, y)) == tab.b((y, y))


def test_suspension_sign(e3):
    tab, _ = e3
    (y,) = tab.basis(1, 1, 1)
    exp = tab.suspension_exponent((y, y, y))
    assert exp == 2 * 1 + 1 * 1
    mval = tab.m((y, y, y))
    bval = tab.b((y, y, y))
    assert bval == {cls: -c for cls, c in mval.items()}
    assert tab.b((y, y)) == tab.m((y, y))


def test_r_max_exceeded_raises(e1):
    tab, _ = e1
    (y,) = tab.basis(1, 1, 1)
    with pytest.raises(ValueError, match="r_max too small"):
        tab.m((y,) * (tab.r_max + 1))


def test_a2_delta_mode_products():
    rsys = ResolvedSystem(standard_modules(example_a2(), mode="delta"))
    tab = build_tables(rsys, r_max=3)
    (x,) = tab.basis(1, 1, 2)
    e1c = tab.identity_class(1)
    e2c = tab.identity_class(2)
    assert tab.m((e2c, x)) == {x: 1}
    assert tab.m((x, e1c)) == {x: 1}
    assert tab.m((x, x)) == {}
    assert stasheff_check(tab, 2)
    assert stasheff_check(tab, 3)


def _brute_chains(tab, r, degrees):
    """Composable display tuples of r classes by brute force, ordered by
    a_1, then a_2, ..., each class by (source, degree, target, index)."""
    classes = sorted((c for c in tab.gmaps if c.k in degrees),
                     key=lambda c: (c.i, c.k, c.j, c.idx))
    return [tuple(reversed(low))
            for low in itertools.product(classes, repeat=r)
            if all(low[t].j == low[t + 1].i for t in range(r - 1))]


def test_chain_walk_is_the_brute_force_enumeration(e1, e2, e3, qh2):
    for tab, _ in (e1, e2, e3, qh2):
        for degrees in ((0, 1), (0, 1, 2)):
            for r in range(1, tab.r_max + 1):
                assert _chains(tab, r, degrees) == \
                    _brute_chains(tab, r, degrees)


def test_products_into_reads_the_brute_force_bprime_values(e1, e2, e3,
                                                           qh2):
    for tab, _ in (e1, e2, e3, qh2):
        for zeros in (0, 1, 2):
            keys = [key for r in range(2, tab.r_max + 1)
                    for key in _brute_chains(tab, r, (0, 1))
                    if sum(c.k == 0 for c in key) == zeros]
            for cls in tab.gmaps:
                for r_top in range(2, tab.r_max + 1):
                    expect = [(key, tab.bprime(key)[cls]) for key in keys
                              if len(key) <= r_top
                              and tab.bprime(key).get(cls)]
                    assert tab.products_into(cls, zeros, r_top) == expect
        with pytest.raises(ValueError, match="r_max too small"):
            tab.products_into(tab.identity_class(1), 0, tab.r_max + 1)


def test_stasheff_check_catches_a_doubled_product(e1):
    tab, _ = e1
    for k in range(1, tab.r_max + 1):
        assert stasheff_check(tab, k)
    y, e = ExtClass(1, 1, 1, 0), ExtClass(0, 1, 1, 0)
    bad, _ = pdelta_tables(example_dual_numbers())
    bad.m_table[y, e] = {c: 2 * v for c, v in bad.m_table[y, e].items()}
    bad.bp_table[y, e] = bad.b((y, e))
    assert bad.m((y, e)) == {y: 2}
    assert not stasheff_check(bad, 3)


def _signed_m(tab, key):
    """b' by its definition: zero above suspended degree 0, else m with
    the sign (-1)^(sum_j (j - 1)|a_j|), a_1 rightmost."""
    if sum(c.k - 1 for c in key) >= 1:
        return {}
    r = len(key)
    exp = sum((r - 1 - pos) * c.k for pos, c in enumerate(key))
    return {cls: (-1) ** exp * c for cls, c in tab.m(key).items()}


def test_bprime_table_is_the_signed_m(mixed_algebras):
    for n, alg in enumerate(mixed_algebras):
        for mode in ("delta", "pdelta"):
            rsys = ResolvedSystem(standard_modules(alg, mode=mode))
            tab = build_tables(rsys, r_max=4 + n % 3)
            for r in range(1, tab.r_max + 2):
                for key in _chains(tab, r, (0, 1, 2)):
                    try:
                        want = _signed_m(tab, key)
                    except ValueError as e:
                        with pytest.raises(ValueError) as got:
                            tab.bprime(key)
                        assert str(got.value) == str(e)
                        continue
                    assert tab.bprime(key) == want
            # a tuple of negative output degree is zero before any check
            # of m, composable or not and of any length: bprime answers
            # without calling b
            classes = [c for c in tab.gmaps if c.k <= 1]
            negative = [key for r in (3, 4)
                        for key in itertools.product(classes, repeat=r)
                        if sum(c.k for c in key) + 2 < r]
            negative += _chains(tab, tab.r_max + 2, (0,))
            tab.b = None
            for key in negative:
                assert tab.bprime(key) == {} == _signed_m(tab, key)
            del tab.b
            for key in tab.bp_table:  # shared maps are handed out read-only
                with pytest.raises(TypeError):
                    tab.bprime(key)[key[0]] = 0
            for cls in tab.gmaps:
                for zeros in (0, 1, 2):
                    for r_top in range(2, tab.r_max + 1):
                        scan = [(key, _signed_m(tab, key)[cls])
                                for key, coeffs in tab.m_table.items()
                                if coeffs.get(cls) and len(key) <= r_top
                                and all(a.k <= 1 for a in key)
                                and sum(a.k == 0 for a in key) == zeros]
                        assert tab.products_into(cls, zeros, r_top) == scan
    # a tuple that the table does not decide takes the checks of m
    tab, _ = pdelta_tables(example_dual_numbers(), r_max=3)
    key = next(iter(tab.bp_table))
    del tab.m_table[key], tab.bp_table[key]
    for lookup in (tab.bprime, lambda key: _signed_m(tab, key)):
        with pytest.raises(ValueError, match="tuple not tabulated"):
            lookup(key)


def test_ext_classes_are_tuples_of_their_fields(e2):
    tab, _ = e2
    for cls in tab.gmaps:
        twin = ExtClass(cls.k, cls.i, cls.j, cls.idx)
        assert twin == cls and hash(twin) == hash(cls)
        assert twin is not cls and tab.graded_map(twin) is tab.gmaps[cls]
        assert repr(cls) == f"H{cls.k}({cls.i}->{cls.j})#{cls.idx}"
    assert repr(ExtClass(1, 2, 3, 0)) == "H1(2->3)#0"
    assert ExtClass(1, 2, 3, 0) != ExtClass(1, 2, 3, 1)


@pytest.fixture(scope="module")
def differential_tables(mixed_algebras, qh2):
    """Tables at r_max 4 to 6: e0-e3 in their filtered modes, qh2, the
    mixed algebras in both modes, and the Auslander algebras of K[x]/(x^2)
    and K[x]/(x^3) in both modes."""
    systems = [standard_modules(alg, mode=mode)
               for alg in mixed_algebras for mode in ("delta", "pdelta")]
    systems += [standard_modules(auslander(n), list(range(n, 0, -1)),
                                 mode=mode)
                for n in (2, 3) for mode in ("delta", "pdelta")]
    tables = [build_tables(ResolvedSystem(system), r_max=4 + n % 3)
              for n, system in enumerate(systems)]
    for alg, mode in ((example_semisimple_pair(), "pdelta"),
                      (example_dual_numbers(), "pdelta"),
                      (example_a2(), "delta"), (example_jordan3(), "pdelta")):
        rsys = ResolvedSystem(standard_modules(alg, mode=mode))
        tables.append(build_tables(rsys, r_max=6))
    return tables + [qh2[0]]


def test_grown_keys_are_the_reference_enumeration(differential_tables):
    for tab in differential_tables:
        assert list(tab.m_table) == reference_tabulated_keys(tab)


def _same_verdicts(tab):
    """stasheff_check and the reference agree for every k <= r_max, on
    the verdict or the ValueError message; the verdicts, None on a raise."""
    out = []
    for k in range(1, tab.r_max + 2):
        try:
            want = reference_stasheff_check(tab, k)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                stasheff_check(tab, k)
            assert str(got.value) == str(e)
            out.append(None)
            continue
        assert stasheff_check(tab, k) == want
        out.append(want)
    return out


def test_stasheff_check_is_the_reference(differential_tables):
    # on every table, and on the table with one bp_table entry doubled
    # or negated at a time; some such mutation fails the identity
    failed = 0
    for tab in differential_tables:
        assert _same_verdicts(tab) == [True] * tab.r_max + [None]
        for key, coeffs in list(tab.bp_table.items()):
            for factor in (2, -1):
                tab.bp_table[key] = {c: factor * v for c, v in coeffs.items()}
                failed += False in _same_verdicts(tab)
            tab.bp_table[key] = coeffs
    assert failed


def test_stasheff_check_raises_as_the_reference_on_a_deleted_outer_key(
        differential_tables):
    # a key holding a degree-2 class is never an inner slice, so the
    # check can only read it as an outer value
    raised = 0
    for tab in differential_tables:
        for key in [key for key in tab.bp_table if any(c.k == 2 for c in key)]:
            m, bp = tab.m_table.pop(key), tab.bp_table.pop(key)
            raised += None in _same_verdicts(tab)[:-1]
            tab.m_table[key], tab.bp_table[key] = m, bp
    assert raised


def test_stasheff_check_evaluates_the_unit_free_chains_only(monkeypatch):
    # e1 at r_max 6 has 126 chains of Ext^{<=1} classes over k = 1..6, and
    # only y^k holds no identity class; once bp_table's entries holding
    # the identity are not the unitality lemma's, every chain is evaluated
    evaluated = [0]
    real_chains = ainf._chains

    def counted(*args):
        out = real_chains(*args)
        evaluated[0] += len(out)
        return out

    monkeypatch.setattr(ainf, "_chains", counted)
    tab, _ = pdelta_tables(example_dual_numbers(), r_max=6)
    assert all(stasheff_check(tab, k) for k in range(1, 7))
    assert evaluated[0] == 6
    y, e = ExtClass(1, 1, 1, 0), ExtClass(0, 1, 1, 0)
    lemma = tab.bp_table[y, e]
    for key, entry in [((y, e), {y: -2}), ((y, e), None),
                       ((y, e, y), {y: 1})]:
        saved = tab.bp_table.get(key)
        if entry is None:
            del tab.bp_table[key]
        else:
            tab.bp_table[key] = entry
        evaluated[0] = 0
        verdicts = [stasheff_check(tab, k) for k in range(1, 7)]
        assert evaluated[0] == 126
        assert verdicts == [reference_stasheff_check(tab, k)
                            for k in range(1, 7)]
        assert False in verdicts
        if saved is None:
            del tab.bp_table[key]
        else:
            tab.bp_table[key] = saved
    assert tab.bp_table[y, e] is lemma and len(tab.bp_table) == 6


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_chains_holding_a_unit_sum_to_zero_whatever_the_unit_free_products(
        differential_tables, rnd):
    # the corollary of the module docstring: with b' replaced on every
    # unit-free key of m_table by random coefficients on its output basis,
    # each chain holding an identity class still sums to zero, and
    # stasheff_check, which skips those chains, keeps the reference verdict
    held = 0
    for tab in differential_tables:
        saved = tab.bp_table
        tab.bp_table = {}
        for key in tab.m_table:
            if not tab.units.isdisjoint(key):
                if key in saved:
                    tab.bp_table[key] = saved[key]
                continue
            q = sum(c.k for c in key) + 2 - len(key)
            coeffs = {cls: rnd.randint(-2, 2)
                      for cls in tab.classes[(q, key[-1].i, key[0].j)]}
            if any(coeffs.values()):
                tab.bp_table[key] = {c: v for c, v in coeffs.items() if v}
        try:
            for k in range(1, tab.r_max + 1):
                for key in _chains(tab, k, (0, 1)):
                    if not tab.units.isdisjoint(key):
                        held += 1
                        assert reference_stasheff_sum(tab, key) == {}
                assert stasheff_check(tab, k) == \
                    reference_stasheff_check(tab, k)
        finally:
            tab.bp_table = saved
    assert held > 1000


def test_the_table_grows_only_the_tabulated_tuples(monkeypatch):
    # e1 at r_max 6 has 258 partial tuples with c0 <= 2 and c2 <= 1 over
    # levels 1-6, against 1,089 composable tuples of 2-6 classes; the
    # table neither enumerates whole chains nor tests tuples one by one
    calls, grown = Counter(), [0]
    real_grow = ainf._grow

    def counted_grow(table):
        for r, level in real_grow(table):
            grown[0] += len(level)
            yield r, level

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(ainf, "_grow", counted_grow)
    for name in ("_chains", "_tabulated"):
        monkeypatch.setattr(ainf, name, counted(name, getattr(ainf, name)))
    tab, _ = pdelta_tables(example_dual_numbers(), r_max=6)
    assert grown[0] <= 258
    assert calls == Counter()
    assert len(tab.m_table) == 235
