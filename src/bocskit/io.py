"""JSON document formats for algebras, bocses and reports.

Exact rationals travel as "p/q" strings; keys are emitted sorted so equal
inputs produce byte-identical documents.  Bocs documents carry full
structure constants and are re-ingestable without the originating
algebra; only here is mu written in its dense layout (mu_to_matrix).

emit writes a document in one recursive pass over its dicts (str keys),
lists, tuples, strs, ints, bools and None, and its text is byte-identical
to json.dumps(doc, sort_keys=True, indent=2) + "\n"; a document holding
anything else (a float, a key that is not a str, a subclass) is handed
whole to json.dumps.  The number tokens of a matrix row, a kernel_basis
vector or a kernel_generators vector are read from a table of the
canonical integers str(k), |k| <= _TABLE_BOUND; a row with any other
token is read token by token through str_to_frac, with its pointers.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from itertools import product

from .bocs import Bocs, classify_bocs, counit_identities
from .linalg import ZERO, Matrix, Scalar, _apply_cols, _compose_cols, frac
from .quiver import (Algebra, Quiver, Relation, RelationSet, build_algebra)

ALGEBRA_SCHEMA = "bocskit/algebra"
BOCS_SCHEMA = "bocskit/bocs"
REPORT_SCHEMA = "bocskit/report"
VERSION = 1


def _fail(pointer: str):
    raise ValueError(f"schema violation at {pointer}")


def _expect(cond, pointer: str):
    if not cond:
        _fail(pointer)


def _is_int(x) -> bool:
    """A JSON integer; bool is an int subclass in Python but not in JSON."""
    return isinstance(x, int) and not isinstance(x, bool)


def frac_to_str(x) -> str:
    """An exact scalar as "n" when integral, else as "p/q"."""
    return str(frac(x))


# An integer, p/q or decimal; no exponent, so a short token cannot stand
# for a huge integer, and no token is longer than _MAX_NUMBER_CHARS.
_NUMBER = re.compile(r"[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?")
_MAX_NUMBER_CHARS = 1000


def str_to_frac(s, pointer: str) -> Scalar:
    match = (isinstance(s, str) and len(s) <= _MAX_NUMBER_CHARS
             and _NUMBER.fullmatch(s))
    _expect(match, pointer)
    if match[1] is None:  # no "/q" and no ".d": the token is an integer
        return int(s)
    try:
        return frac(s)
    except (ValueError, ZeroDivisionError):
        _fail(pointer)


def matrix_to_lists(m: Matrix):
    # a Matrix entry is canonical, an int or a non-integral Fraction, so
    # its token is its str
    data = [list(map(str, row)) for row in m.data]
    return {"rows": m.rows, "cols": m.cols, "data": data}


# The canonical integer tokens and their values.  Every number token of the
# e0-e3 and corpus bocs documents is -1, 0 or 1; the bound leaves room for
# small coefficients at an import cost of a few microseconds.
_TABLE_BOUND = 16
_TOKENS = {str(k): k for k in range(-_TABLE_BOUND, _TABLE_BOUND + 1)}


def _scalars(row: list, pointer: str) -> list:
    """The scalars of a list of number tokens, entry c refused at
    pointer/c.  A row of table tokens is read in one pass; any other
    row goes through str_to_frac entry by entry."""
    try:
        return list(map(_TOKENS.__getitem__, row))
    except (KeyError, TypeError):  # another token, or an unhashable entry
        return [str_to_frac(x, f"{pointer}/{c}") for c, x in enumerate(row)]


def lists_to_matrix(obj, pointer: str) -> Matrix:
    _expect(isinstance(obj, dict), pointer)
    _expect(_is_int(obj.get("rows")), pointer + "/rows")
    _expect(_is_int(obj.get("cols")), pointer + "/cols")
    data = obj.get("data")
    rows, cols = obj["rows"], obj["cols"]
    _expect(isinstance(data, list) and len(data) == rows, pointer + "/data")
    grid = []
    for r, row in enumerate(data):
        if not (isinstance(row, list) and len(row) == cols):
            _fail(f"{pointer}/data/{r}")
        grid.append(_scalars(row, f"{pointer}/data/{r}"))
    return Matrix(rows, cols, grid)


def mu_to_matrix(mu) -> Matrix:
    """The document layout of the terms of mu: mu(w) = sum c w1 (x) w2
    puts c in column w at row w1 * w_dim + w2."""
    w_dim = len(mu)
    data = [[ZERO] * w_dim for _ in range(w_dim * w_dim)]
    for w, terms in enumerate(mu):
        for w1, w2, c in terms:
            data[w1 * w_dim + w2][w] = c
    return Matrix(w_dim * w_dim, w_dim, data)


def matrix_to_mu(m: Matrix) -> list:
    """The terms of mu, sorted by (w1, w2), from its document layout."""
    return [[divmod(p, m.cols) + (c,) for p, c in col]
            for col in m.nonzero_columns()]


_esc = json.encoder.encode_basestring_ascii
_STR = frozenset((str,))


class _Unwritable(Exception):
    """A value _write leaves to json.dumps."""


def _write(out: list, obj, nl: str):
    """Append the pieces of obj as json.dumps(sort_keys=True, indent=2)
    writes it, nl being the newline and indent of obj's own line;
    _Unwritable on a value of another type."""
    t = type(obj)
    if t is str:
        out.append(_esc(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is dict or t is list or t is tuple:
        if not obj:
            out.append("{}" if t is dict else "[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if t is dict:
            if not _STR.issuperset(map(type, obj)):
                raise _Unwritable
            lead = "{" + inner
            for k in sorted(obj):
                out += lead, _esc(k), ": "
                _write(out, obj[k], inner)
                lead = sep
            out += nl, "}"
        elif _STR.issuperset(map(type, obj)):
            out += "[", inner, sep.join(map(_esc, obj)), nl, "]"
        else:
            lead = "[" + inner
            for x in obj:
                out.append(lead)
                _write(out, x, inner)
                lead = sep
            out += nl, "]"
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif obj is None:
        out.append("null")
    else:
        raise _Unwritable


def emit(doc: dict) -> str:
    """The canonical text of doc: json.dumps(doc, sort_keys=True,
    indent=2) + "\n", written by _write unless doc holds a value only
    json.dumps writes."""
    out = []
    try:
        _write(out, doc, "\n")
    except (_Unwritable, RecursionError):
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def algebra_digest(doc: dict) -> str:
    return hashlib.sha256(emit(doc).encode("utf-8")).hexdigest()


# -- algebra documents ------------------------------------------------------


def algebra_to_doc(alg: Algebra, order=None) -> dict:
    if alg.quiver is None:
        raise ValueError("algebra has no quiver presentation")
    if order is None:
        order = list(range(1, alg.n + 1))
    return {
        "schema": ALGEBRA_SCHEMA,
        "version": VERSION,
        "vertices": {"count": alg.n},
        "arrows": [{"name": name, "source": s, "target": t}
                   for name, s, t in alg.quiver.arrows],
        "relations": [
            {"terms": [{"coefficient": frac_to_str(c),
                        "path": list(names)}
                       for c, src, names in rel.terms]}
            for rel in alg.relations.relations],
        "order": list(order),
    }


def _validate_version(doc, pointer="/"):
    _expect(isinstance(doc, dict), pointer)
    if doc.get("version") != VERSION:
        raise ValueError("unknown version")


def doc_to_algebra(doc: dict):
    """(Algebra, order) from a validated algebra document."""
    return _doc_to_algebra(doc, "")


def _doc_to_algebra(doc, at: str):
    """doc_to_algebra of an algebra document found at the pointer at of
    the document read, so that every pointer it refuses is prefixed by
    at."""
    _validate_version(doc, at or "/")
    _expect(doc.get("schema") == ALGEBRA_SCHEMA, at + "/schema")
    verts = doc.get("vertices")
    _expect(isinstance(verts, dict) and
            _is_int(verts.get("count")) and verts["count"] >= 1,
            at + "/vertices/count")
    n = verts["count"]
    arrows_doc = doc.get("arrows")
    _expect(isinstance(arrows_doc, list), at + "/arrows")
    arrows = []
    names = set()
    for k, a in enumerate(arrows_doc):
        p = f"{at}/arrows/{k}"
        _expect(isinstance(a, dict), p)
        _expect(isinstance(a.get("name"), str) and a["name"], p + "/name")
        _expect(a["name"] not in names, p + "/name")
        names.add(a["name"])
        for field in ("source", "target"):
            _expect(_is_int(a.get(field)) and 1 <= a[field] <= n,
                    f"{p}/{field}")
        arrows.append((a["name"], a["source"], a["target"]))
    quiver = Quiver(n, arrows)
    by_name = {name: (s, t) for name, s, t in arrows}
    rels_doc = doc.get("relations")
    _expect(isinstance(rels_doc, list), at + "/relations")
    relations = []
    for rk, r in enumerate(rels_doc):
        p = f"{at}/relations/{rk}"
        _expect(isinstance(r, dict) and isinstance(r.get("terms"), list)
                and r["terms"], p + "/terms")
        terms = []
        for tk, term in enumerate(r["terms"]):
            tp = f"{p}/terms/{tk}"
            _expect(isinstance(term, dict), tp)
            coeff = str_to_frac(term.get("coefficient"),
                                tp + "/coefficient")
            path = term.get("path")
            _expect(isinstance(path, list) and len(path) >= 2,
                    tp + "/path")
            for ak, aname in enumerate(path):
                _expect(isinstance(aname, str) and aname in by_name,
                        f"{tp}/path/{ak}")
            src = by_name[path[0]][0]
            terms.append((coeff, src, tuple(path)))
        relations.append(Relation(quiver, terms))
    order = doc.get("order")
    _expect(isinstance(order, list) and all(_is_int(v) for v in order)
            and sorted(order) == list(range(1, n + 1)), at + "/order")
    alg = build_algebra(quiver, RelationSet(quiver, relations))
    return alg, list(order)


class _BuiltDocument:
    """A validated document and what parse built from it."""

    def __init__(self, doc: dict, built):
        self.doc = doc
        self.built = built

    def build(self):
        return self.built


class AlgebraDocument(_BuiltDocument):
    """An algebra document; build() gives its (Algebra, order)."""


# -- bocs documents ---------------------------------------------------------


def bocs_to_doc(bocs) -> dict:
    return {
        "schema": BOCS_SCHEMA,
        "version": VERSION,
        "order": list(bocs.order),
        "mode": bocs.mode,
        "r_max": bocs.r_max,
        "base": algebra_to_doc(bocs.B, bocs.order),
        "w_dim": bocs.w_dim,
        "w_block": [[a, b] for (a, b) in bocs.w_block],
        "wl": [matrix_to_lists(m) for m in bocs.WL],
        "wr": [matrix_to_lists(m) for m in bocs.WR],
        "eps": matrix_to_lists(bocs.eps),
        "mu_pairs": matrix_to_lists(mu_to_matrix(bocs.mu)),
        "kernel_basis": [[frac_to_str(x) for x in v]
                         for v in bocs.kernel_basis],
        "kernel_generators": [[a, b, [frac_to_str(x) for x in v]]
                              for (a, b, v) in bocs.kernel_generators],
        "d": sorted([[a, b, mult]
                     for (a, b), mult in bocs.d.items()]),
        "bocs_class": classify_bocs(bocs).label,
    }


def _check_actions(B: Algebra, w_block, WL, WR):
    """Refuse at /wl/k or /wr/k a wl or wr that is not an action of B, or
    two that do not commute, on their nonzero columns.  The idempotents
    act as the projections onto the blocks, so a radical k in e_i B e_j
    must take e_j W e_y into e_i W e_y from the left and e_x W e_i into
    e_x W e_j from the right; then only the radical pairs a, b with the
    source of a the target of b are left to multiply out.  A product of
    two actions is summed on their sparse columns (_compose_cols), and the
    action of a sum of basis elements on their entries ((y, w), a)."""
    lcols, rcols = ([m.nonzero_columns() for m in mats] for mats in (WL, WR))
    lflat, rflat = ([[((y, w), a) for w, col in enumerate(m) for y, a in col]
                     for m in cols] for cols in (lcols, rcols))
    rad = B.radical_indices()
    for k in rad:
        i, j = B.btarget[k], B.bsource[k]
        _expect(all(w_block[w][0] == j and w_block[y] == (i, w_block[w][1])
                    for w, col in enumerate(lcols[k]) for y, _ in col),
                f"/wl/{k}")
        _expect(all(w_block[w][1] == i and w_block[y] == (w_block[w][0], j)
                    for w, col in enumerate(rcols[k]) for y, _ in col),
                f"/wr/{k}")
    for a, b in product(rad, rad):
        if B.bsource[a] == B.btarget[b]:  # a.(b.w) = ab.w, (w.a).b = w.ab
            ab = B.table[a][b].items()
            _expect(_compose_cols(lcols[a], lcols[b])
                    == _apply_cols(lflat, ab), f"/wl/{a}")
            _expect(_compose_cols(rcols[b], rcols[a])
                    == _apply_cols(rflat, ab), f"/wr/{a}")
        _expect(_compose_cols(lcols[a], rcols[b])
                == _compose_cols(rcols[b], lcols[a]), f"/wr/{b}")


def doc_to_bocs(doc: dict):
    """Rehydrated bocs supporting the module category and classification.

    The Peirce blocks must match the idempotent actions on W, wl and wr
    must be commuting actions of B (_check_actions), eps must be onto B,
    mu_pairs must satisfy the counit identities, and the kernel data
    (kernel_basis, kernel_generators, d) must equal what the bocs derives
    from eps, W and B.  mu_pairs is the dense layout of mu, which the
    bocs holds as its terms (matrix_to_mu).  The A-infinity tables and
    the originating algebra are not part of the document, so the twisted
    correspondence, and the coalgebra axioms read off the presentation
    of W (validate_coalgebra), are unavailable on the result.
    """
    _validate_version(doc)
    _expect(doc.get("schema") == BOCS_SCHEMA, "/schema")
    _expect(doc.get("mode") in ("delta", "pdelta"), "/mode")
    _expect(_is_int(doc.get("r_max")) and doc["r_max"] >= 2, "/r_max")
    B, order = _doc_to_algebra(doc.get("base"), "/base")

    def is_vertex(x):
        return _is_int(x) and 1 <= x <= B.n

    _expect(isinstance(doc.get("order"), list)
            and all(is_vertex(v) for v in doc["order"])
            and doc["order"] == order, "/order")
    w_dim = doc.get("w_dim")
    _expect(_is_int(w_dim) and w_dim >= 0, "/w_dim")
    wb = doc.get("w_block")
    _expect(isinstance(wb, list) and len(wb) == w_dim, "/w_block")
    w_block = []
    for k, pair in enumerate(wb):
        _expect(isinstance(pair, list) and len(pair) == 2
                and all(is_vertex(x) for x in pair), f"/w_block/{k}")
        w_block.append((pair[0], pair[1]))
    for side in ("wl", "wr"):
        _expect(isinstance(doc.get(side), list)
                and len(doc[side]) == B.dim, "/" + side)
    WL = [lists_to_matrix(m, f"/wl/{k}")
          for k, m in enumerate(doc["wl"])]
    WR = [lists_to_matrix(m, f"/wr/{k}")
          for k, m in enumerate(doc["wr"])]
    for side, mats in (("wl", WL), ("wr", WR)):
        for k, m in enumerate(mats):
            _expect(m.rows == w_dim and m.cols == w_dim, f"/{side}/{k}")
    # e_i acts on the left (right) as the projection onto the W basis
    # elements whose block has target (source) i
    for i in range(1, B.n + 1):
        e = B.unit_index[i - 1]
        for mats, end in ((WL, 0), (WR, 1)):
            _expect(mats[e].nonzero_columns()
                    == tuple(((c, 1),) if w_block[c][end] == i else ()
                             for c in range(w_dim)), "/w_block")
    _check_actions(B, w_block, WL, WR)
    eps = lists_to_matrix(doc.get("eps"), "/eps")
    _expect(eps.rows == B.dim and eps.cols == w_dim
            and eps.rank() == B.dim, "/eps")
    mu_pairs = lists_to_matrix(doc.get("mu_pairs"), "/mu_pairs")
    _expect(mu_pairs.rows == w_dim * w_dim and mu_pairs.cols == w_dim,
            "/mu_pairs")
    kb = doc.get("kernel_basis")
    _expect(isinstance(kb, list), "/kernel_basis")
    kernel_basis = []
    for k, v in enumerate(kb):
        _expect(isinstance(v, list) and len(v) == w_dim,
                f"/kernel_basis/{k}")
        kernel_basis.append(tuple(_scalars(v, f"/kernel_basis/{k}")))
    kg = doc.get("kernel_generators")
    _expect(isinstance(kg, list), "/kernel_generators")
    kernel_generators = []
    for k, item in enumerate(kg):
        p = f"/kernel_generators/{k}"
        _expect(isinstance(item, list) and len(item) == 3, p)
        a, b, v = item
        _expect(is_vertex(a) and is_vertex(b), p)
        _expect(isinstance(v, list) and len(v) == w_dim, p)
        kernel_generators.append((a, b, tuple(_scalars(v, p))))
    dd = doc.get("d")
    _expect(isinstance(dd, list), "/d")
    for k, item in enumerate(dd):
        _expect(isinstance(item, list) and len(item) == 3
                and is_vertex(item[0]) and is_vertex(item[1])
                and _is_int(item[2]), f"/d/{k}")

    bocs = Bocs.from_parts(
        B, order, doc["mode"], doc["r_max"], w_dim=w_dim, w_block=w_block,
        WL=WL, WR=WR, eps=eps, mu=matrix_to_mu(mu_pairs))
    _expect(all(map(all, counit_identities(bocs))), "/mu_pairs")
    _expect(kernel_basis == bocs.kernel_basis, "/kernel_basis")
    _expect(kernel_generators == bocs.kernel_generators,
            "/kernel_generators")
    _expect(sorted(map(tuple, dd))
            == sorted((a, b, m) for (a, b), m in bocs.d.items()), "/d")
    return bocs


class BocsDocument(_BuiltDocument):
    """A bocs document; build() gives its bocs."""


class ReportDocument:
    def __init__(self, doc: dict):
        self.doc = doc


# -- parsing ----------------------------------------------------------------


def parse(source):
    """Document from a JSON text or a path to a JSON file."""
    text = source
    if isinstance(source, os.PathLike):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif isinstance(source, str) and not source.lstrip().startswith("{") \
            and os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"parse error at line {e.lineno} column {e.colno}") from e
    _expect(isinstance(doc, dict), "/")
    if doc.get("version") != VERSION:
        raise ValueError("unknown version")
    schema = doc.get("schema")
    if schema == ALGEBRA_SCHEMA:
        return AlgebraDocument(doc, doc_to_algebra(doc))
    if schema == BOCS_SCHEMA:
        return BocsDocument(doc, doc_to_bocs(doc))
    if schema == REPORT_SCHEMA:
        return ReportDocument(doc)
    _fail("/schema")
