import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bocskit import io as bio
from bocskit.bocs import classify_bocs, construct_bocs
from bocskit.burt_butler import right_algebra, standard_check
from bocskit.linalg import frac
from bocskit.pipeline import PipelineError, roundtrip_bocs, run_pipeline
from bocskit.quiver import (Quiver, RelationSet, build_algebra, example_a2,
                            example_dual_numbers, example_jordan3,
                            example_semisimple_pair)

from helpers import auslander


@pytest.fixture(scope="module")
def fixture_algebras():
    return {
        "e0": (example_semisimple_pair(), [1, 2]),
        "e1": (example_dual_numbers(), [1]),
        "e2": (example_a2(), [1, 2]),
        "e3": (example_jordan3(), [1]),
    }


def test_algebra_roundtrip(fixture_algebras):
    for name, (alg, order) in fixture_algebras.items():
        doc = bio.algebra_to_doc(alg, order)
        text = bio.emit(doc)
        parsed = bio.parse(text)
        assert isinstance(parsed, bio.AlgebraDocument)
        alg2, order2 = parsed.build()
        assert order2 == order
        assert alg2.dim == alg.dim
        assert bio.emit(bio.algebra_to_doc(alg2, order2)) == text


def test_emit_is_deterministic(fixture_algebras):
    alg, order = fixture_algebras["e2"]
    a = bio.emit(bio.algebra_to_doc(alg, order))
    b = bio.emit(bio.algebra_to_doc(example_a2(), [1, 2]))
    assert a == b
    assert bio.algebra_digest(bio.algebra_to_doc(alg, order)) == \
        bio.algebra_digest(bio.algebra_to_doc(example_a2(), [1, 2]))


def test_bocs_roundtrip_supports_category_and_classification():
    b = construct_bocs(example_a2(), mode="delta", r_max=5)
    doc = bio.bocs_to_doc(b)
    text = bio.emit(doc)
    parsed = bio.parse(text)
    assert isinstance(parsed, bio.BocsDocument)
    b2 = parsed.build()
    assert bio.emit(bio.bocs_to_doc(b2)) == text
    assert classify_bocs(b2).label == "directed"
    r = right_algebra(b2)
    assert r.R.dim == 3
    assert standard_check(r)["ok"]


def test_bocs_roundtrip_one_cyclic():
    b = construct_bocs(example_jordan3(), mode="pdelta", r_max=5)
    doc = bio.bocs_to_doc(b)
    assert doc["bocs_class"] == "one-cyclic directed"
    b2 = bio.parse(bio.emit(doc)).build()
    assert classify_bocs(b2).label == "one-cyclic directed"
    assert right_algebra(b2).R.dim == 3


def test_parse_reads_files(tmp_path, fixture_algebras):
    alg, order = fixture_algebras["e1"]
    path = tmp_path / "e1.json"
    path.write_text(bio.emit(bio.algebra_to_doc(alg, order)))
    parsed = bio.parse(str(path))
    alg2, _ = parsed.build()
    assert alg2.dim == 2


def test_parse_error_reports_position():
    with pytest.raises(ValueError, match=r"parse error at line \d+ column \d+"):
        bio.parse('{"schema": "bocskit/algebra", ')


def test_unknown_version_rejected():
    with pytest.raises(ValueError, match="unknown version"):
        bio.parse('{"schema": "bocskit/algebra", "version": 99}')


def test_schema_violations_carry_pointers(fixture_algebras):
    alg, order = fixture_algebras["e2"]
    good = bio.algebra_to_doc(alg, order)

    bad = dict(good)
    bad["schema"] = "bocskit/unknown"
    with pytest.raises(ValueError, match="schema violation at /schema"):
        bio.parse(bio.emit(bad))

    bad = dict(good)
    bad["order"] = [1, 1]
    with pytest.raises(ValueError, match="schema violation at /order"):
        bio.doc_to_algebra(bad)

    bad = dict(good)
    bad["arrows"] = [{"name": "a", "source": 1, "target": 5}]
    with pytest.raises(ValueError,
                       match="schema violation at /arrows/0/target"):
        bio.doc_to_algebra(bad)

    bad = dict(good)
    bad["relations"] = [{"terms": [{"coefficient": "x", "path": ["a"]}]}]
    with pytest.raises(ValueError, match="schema violation at /relations"):
        bio.doc_to_algebra(bad)

    # a path entry that is not a string, not even a hashable one
    bad = dict(good)
    bad["relations"] = [{"terms": [{"coefficient": "1",
                                    "path": [["a"], "a"]}]}]
    with pytest.raises(ValueError, match="schema violation at "
                       "/relations/0/terms/0/path/0"):
        bio.doc_to_algebra(bad)


def test_bocs_document_validation():
    b = construct_bocs(example_dual_numbers(), mode="pdelta", r_max=5)
    good = bio.bocs_to_doc(b)
    bad = dict(good)
    bad["mode"] = "other"
    with pytest.raises(ValueError, match="schema violation at /mode"):
        bio.doc_to_bocs(bad)
    bad = dict(good)
    bad["w_block"] = [[1, 9] for _ in good["w_block"]]
    with pytest.raises(ValueError, match="schema violation at /w_block"):
        bio.doc_to_bocs(bad)
    # JSON booleans are not integers, and vertices lie in 1..n
    for field, value, pointer in [
            ("r_max", True, "/r_max"),
            ("r_max", 1, "/r_max"),
            ("r_max", -3, "/r_max"),
            ("order", [True], "/order"),
            ("order", [2], "/order"),
            ("w_block", [[True, 1] for _ in good["w_block"]], "/w_block/0"),
            ("d", [[9, 1, 1]], "/d/0"),
            ("d", [[1, 0, 1]], "/d/0"),
            ("d", [[1, 1, True]], "/d/0"),
            ("kernel_generators", [[9, 1, ["0"] * good["w_dim"]]],
             "/kernel_generators/0")]:
        bad = dict(good)
        bad[field] = value
        with pytest.raises(ValueError,
                           match=f"schema violation at {pointer}$"):
            bio.doc_to_bocs(bad)


@pytest.fixture(scope="module")
def a2_bocs_doc():
    return bio.bocs_to_doc(construct_bocs(example_a2(), mode="delta",
                                          r_max=3))


def test_bocs_document_blocks_match_the_idempotent_actions(a2_bocs_doc):
    # w_block [[1, 1], [2, 2], [2, 1]]: e_i acts on W on the left as the
    # projection onto the blocks of target i, on the right onto source i
    good = a2_bocs_doc
    assert good["w_block"] == [[1, 1], [2, 2], [2, 1]]
    assert bio.doc_to_bocs(good).w_block == [(1, 1), (2, 2), (2, 1)]
    # well formed, yet every block is (2, 2): once read as "directed"
    for value in ([[2, 2]] * 3, [[1, 1], [2, 1], [2, 2]],
                  [[1, 1], [2, 2], [1, 2]]):
        with pytest.raises(ValueError, match="schema violation at /w_block$"):
            bio.doc_to_bocs(dict(good, w_block=value))


def test_bocs_document_kernel_data_is_the_derived_one(a2_bocs_doc):
    good = a2_bocs_doc
    assert good["d"] == good["kernel_basis"] == \
        good["kernel_generators"] == []
    for field, value, pointer in [
            # once accepted, and it turned the class to "invalid"
            ("d", [[1, 2, 1]], "/d"),
            ("kernel_basis", [["0", "0", "1"]], "/kernel_basis"),
            ("kernel_generators", [[2, 1, ["0", "0", "1"]]],
             "/kernel_generators")]:
        with pytest.raises(ValueError,
                           match=f"schema violation at {pointer}$"):
            bio.doc_to_bocs(dict(good, **{field: value}))


def test_bocs_document_with_a_kernel_reads_back_its_kernel_data():
    q = Quiver(2, [("a", 2, 1)])
    b = construct_bocs(build_algebra(q, RelationSet(q, [])), mode="delta",
                       r_max=4)
    good = bio.bocs_to_doc(b)
    back = bio.doc_to_bocs(good)
    assert (back.kernel_basis, back.kernel_generators, back.d) == \
        (b.kernel_basis, b.kernel_generators, b.d) != ([], [], {})
    # the same span on another basis is not the derived basis
    doubled = [[str(2 * frac(x)) for x in v] for v in good["kernel_basis"]]
    with pytest.raises(ValueError, match="schema violation at /kernel_basis$"):
        bio.doc_to_bocs(dict(good, kernel_basis=doubled))
    with pytest.raises(ValueError, match="schema violation at /d$"):
        bio.doc_to_bocs(dict(good, d=good["d"] * 2))


def test_mu_pairs_must_satisfy_the_counit_identities(a2_bocs_doc):
    # refused at the boundary, not late, at right_algebra
    docs = [a2_bocs_doc] + [
        bio.bocs_to_doc(construct_bocs(alg, mode="pdelta", r_max=3))
        for alg in (example_dual_numbers(), example_jordan3())]
    for good in docs:
        assert bio.mu_to_matrix(bio.doc_to_bocs(good).mu) == \
            bio.lists_to_matrix(good["mu_pairs"], "/mu_pairs")
        for c in (2, 0):
            mu = good["mu_pairs"]
            data = [[str(c * frac(x)) for x in row] for row in mu["data"]]
            with pytest.raises(ValueError,
                               match="schema violation at /mu_pairs$"):
                bio.doc_to_bocs(dict(good, mu_pairs=dict(mu, data=data)))


def test_mu_reads_back_from_its_document(fixture_bocses, corpus_bocses):
    # the terms of mu and their order survive the dense document layout,
    # and the document is written again byte for byte
    bocses = list(fixture_bocses.values())
    bocses += [b for _, _, b in corpus_bocses.values()]
    for b in bocses:
        assert all(terms == sorted(terms) and all(c for _, _, c in terms)
                   for terms in b.mu)
        text = bio.emit(bio.bocs_to_doc(b))
        back = bio.doc_to_bocs(bio.bocs_to_doc(b))
        assert back.mu == b.mu
        assert bio.emit(bio.bocs_to_doc(back)) == text


def test_a_counit_not_onto_b_is_refused_at_eps(a2_bocs_doc):
    # W = 0 was accepted, and then refused at right_algebra as
    # "idempotents are not independent"
    empty = {"rows": 0, "cols": 0, "data": []}
    rows = len(a2_bocs_doc["eps"]["data"])
    no_w = dict(a2_bocs_doc, w_dim=0, w_block=[],
                wl=[empty] * len(a2_bocs_doc["wl"]),
                wr=[empty] * len(a2_bocs_doc["wr"]),
                eps={"rows": rows, "cols": 0, "data": [[]] * rows},
                mu_pairs=empty, kernel_basis=[], kernel_generators=[], d=[])
    eps = a2_bocs_doc["eps"]
    one_row_lost = dict(a2_bocs_doc, eps=dict(
        eps, data=eps["data"][:-1] + [["0"] * eps["cols"]]))
    for doc in (no_w, one_row_lost):
        with pytest.raises(ValueError, match="schema violation at /eps$"):
            bio.doc_to_bocs(doc)


def test_a_mis_shaped_bimodule_matrix_is_named(a2_bocs_doc):
    good = a2_bocs_doc
    one = {"rows": 1, "cols": 1, "data": [["0"]]}
    for side in ("wl", "wr"):
        for k in (0, len(good[side]) - 1):
            mats = list(good[side])
            mats[k] = one
            with pytest.raises(ValueError,
                               match=f"schema violation at /{side}/{k}$"):
                bio.doc_to_bocs(dict(good, **{side: mats}))


def test_bimodule_actions_are_checked_at_the_boundary(a2_bocs_doc):
    # In the A2 document the arrow b2, in e_2 B e_1, takes w0 to w2 on
    # the left and w1 to w2 on the right (w_block [[1, 1], [2, 2],
    # [2, 1]]); in the dual-numbers one, B = K[a]/(a^2) with a = b1, a
    # takes w0 to w1 on either side.  Dependent products t.b, refused at
    # /wr/1, are test_bocs's case.
    dual = bio.bocs_to_doc(construct_bocs(example_dual_numbers(),
                                          mode="pdelta", r_max=3))
    off_block = [["0", "0", "0"], ["0", "0", "0"], ["1", "1", "0"]]
    for doc, side, k, data in [
            # b2.w1 = w2, but w1 is not in e_1 W
            (a2_bocs_doc, "wl", 2, off_block),
            # w0.b2 = w2, but w0 is not in W e_2
            (a2_bocs_doc, "wr", 2, off_block),
            # a.(a.w1) = w1 while a^2 = 0
            (dual, "wl", 1, [["0", "0"], ["0", "1"]]),
            # w1.a = w0 squares to zero, but a.(w1.a) = w1 and
            # (a.w1).a = 0
            (dual, "wr", 1, [["0", "1"], ["0", "0"]])]:
        mats = list(doc[side])
        mats[k] = dict(mats[k], data=data)
        with pytest.raises(ValueError,
                           match=f"schema violation at /{side}/{k}$"):
            bio.doc_to_bocs(dict(doc, **{side: mats}))
    for doc in (a2_bocs_doc, dual):
        bio.doc_to_bocs(doc)


def test_number_tokens_are_bounded():
    assert bio.str_to_frac("-3/4", "/x") == Fraction(-3, 4)
    assert bio.str_to_frac("0.5", "/x") == Fraction(1, 2)
    assert bio.str_to_frac("7" * 1000, "/x") == int("7" * 1000)
    # exponent notation builds a huge integer from a short token:
    # Fraction("1e1000000") takes a 3.3-million-bit integer
    for token in ["1e1000000", "1E5", "2.5e3", "1/1e9",
                  "7" * 1001, "1/" + "7" * 999, " 1", "1_000", "\u0661",
                  "1/0", ""]:
        with pytest.raises(ValueError, match="schema violation at /x$"):
            bio.str_to_frac(token, "/x")


_CANONICAL_TOKENS = ["0", "-0", "+7", "007", "-12", "9" * 1000, "6/3",
                     "-2/3", "+4/6", "0/5", "0.5", "-2.0", "1.25", "+3.000"]


def test_number_tokens_parse_to_their_canonical_scalar():
    # integer tokens take the int path; p/q and decimals go through Fraction
    for token in _CANONICAL_TOKENS:
        want = frac(Fraction(token))
        got = bio.str_to_frac(token, "/x")
        assert got == want and type(got) is type(want), token


def test_the_token_table_agrees_with_the_regex_path():
    tokens = list(bio._TOKENS) + _CANONICAL_TOKENS
    assert "1" in bio._TOKENS and "-0" not in bio._TOKENS
    for token in tokens:
        want = bio.str_to_frac(token, "/x")
        got = bio._scalars([token], "/x")[0]
        assert got == want and type(got) is type(want), token
    # a row with one token off the table is read token by token
    row = ["1", "-2", "+1", "2/4", "007", "0.5"]
    got = bio._scalars(row, "/x")
    assert got == [bio.str_to_frac(x, "/x") for x in row] \
        == [1, -2, 1, Fraction(1, 2), 7, Fraction(1, 2)]
    assert list(map(type, got)) == [int, int, int, Fraction, int, Fraction]


def test_a_row_off_the_table_is_refused_at_its_entry():
    for row, c in [(["1", "0", "1e5"], 2), (["1", 1, "0"], 1),
                   (["1", True], 1), (["0", ["1"], "1"], 1),
                   (["2", None], 1), (["1/0", "1"], 0)]:
        with pytest.raises(ValueError, match=f"schema violation at /x/{c}$"):
            bio._scalars(row, "/x")
    m = {"rows": 2, "cols": 2, "data": [["1", "0"], ["0", "1.5e1"]]}
    with pytest.raises(ValueError,
                       match="schema violation at /m/data/1/1$"):
        bio.lists_to_matrix(m, "/m")


def _canonical_dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _writes_without_fallback(doc):
    out = []
    bio._write(out, doc, "\n")
    return "".join(out) + "\n"


def test_emit_is_json_dumps_on_every_emitted_document(
        fixture_algebras, fixture_bocses, corpus_bocses):
    # the algebra, bocs and report documents of e0-e3 in both modes, of
    # the corpus bocses and of the Auslander algebras of K[x]/(x^2) and
    # K[x]/(x^3) in both modes, each written without the fallback
    docs, bocses = [], list(fixture_bocses.values())
    for alg, order in fixture_algebras.values():
        docs.append(bio.algebra_to_doc(alg, order))
        for mode in ("pdelta", "delta"):
            try:
                docs.append(run_pipeline(alg, order, mode=mode).doc)
            except PipelineError as e:
                docs.append(e.error_object())
    for alg, order, b in corpus_bocses.values():
        docs.append(bio.algebra_to_doc(alg, order))
        bocses.append(b)
    bocses += [construct_bocs(auslander(n), list(range(n, 0, -1)),
                              mode=mode, r_max=3)
               for n in (2, 3) for mode in ("pdelta", "delta")]
    for b in bocses:
        docs.append(bio.bocs_to_doc(b))
        try:
            docs.append(roundtrip_bocs(b).doc)
        except PipelineError as e:
            docs.append(e.error_object())
    assert len(docs) == 4 * 3 + 19 + 31 * 2
    for doc in docs:
        want = _canonical_dumps(doc)
        assert bio.emit(doc) == want
        assert _writes_without_fallback(doc) == want


_JSON_STRINGS = st.one_of(st.text(), st.sampled_from(
    ["", "\"", "\\", "\n\t\x00\x1f\x7f", "\u00e9\u2603", "\U0001f600",
     "\ud800", "</script>"]))
_JSON_LEAVES = st.one_of(
    _JSON_STRINGS, st.integers(), st.integers(min_value=2 ** 64),
    st.integers(max_value=-(2 ** 64)), st.booleans(), st.none())


def _json_trees(leaves, keys):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(keys, kids, max_size=4)), max_leaves=24)


_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)


def _outcome(fn, doc):
    try:
        return fn(doc)
    except Exception as e:  # both sides must refuse alike
        return type(e), str(e)


@_PROPERTY
@given(_json_trees(_JSON_LEAVES, _JSON_STRINGS))
def test_emit_is_json_dumps_on_json_trees(doc):
    want = _canonical_dumps(doc)
    assert bio.emit(doc) == want
    assert _writes_without_fallback(doc) == want


@_PROPERTY
@given(_json_trees(st.one_of(_JSON_LEAVES, st.floats()),
                   st.one_of(_JSON_STRINGS, st.integers())),
       st.one_of(st.floats(), st.dictionaries(st.integers(), st.none(),
                                              min_size=1)))
def test_a_float_or_a_key_not_a_str_takes_the_fallback(doc, odd):
    # odd is placed in the tree, so every tree holds one
    tree = [doc, odd]
    assert _outcome(bio.emit, tree) == _outcome(_canonical_dumps, tree)
    with pytest.raises(bio._Unwritable):
        bio._write([], tree, "\n")


def test_subclasses_take_the_fallback():
    class Key(str):
        pass

    class Count(int):
        pass

    for doc in [{Key("a"): 1}, {"a": Count(3)}, [Key("b")],
                {"a": Fraction(1, 2)}, float("nan")]:
        with pytest.raises(bio._Unwritable):
            bio._write([], doc, "\n")
    # json.dumps refuses a Fraction, and emit refuses it alike
    for doc in [{Key("a"): 1}, {"a": Count(3)}, [Key("b")]]:
        assert bio.emit(doc) == _canonical_dumps(doc)
    with pytest.raises(TypeError):
        bio.emit({"a": Fraction(1, 2)})


def test_parse_builds_each_document_once(monkeypatch):
    b = construct_bocs(example_semisimple_pair(), mode="pdelta", r_max=4)
    text = bio.emit(bio.bocs_to_doc(b))
    calls = []
    real = bio.doc_to_bocs

    def counting(doc):
        calls.append(doc)
        return real(doc)

    monkeypatch.setattr(bio, "doc_to_bocs", counting)
    built = bio.parse(text).build()
    assert len(calls) == 1
    assert bio.emit(bio.bocs_to_doc(built)) == text
