"""JSON document formats for algebras, bocses and reports.

Exact rationals travel as "p/q" strings; keys are emitted sorted so equal
inputs produce byte-identical documents.  Bocs documents carry full
structure constants and are re-ingestable without the originating
algebra.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from .linalg import Matrix
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
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def str_to_frac(s, pointer: str) -> Fraction:
    _expect(isinstance(s, str), pointer)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        _fail(pointer)


def matrix_to_lists(m: Matrix):
    return {"rows": m.rows, "cols": m.cols,
            "data": [[frac_to_str(x) for x in row] for row in m.data]}


def lists_to_matrix(obj, pointer: str) -> Matrix:
    _expect(isinstance(obj, dict), pointer)
    _expect(_is_int(obj.get("rows")), pointer + "/rows")
    _expect(_is_int(obj.get("cols")), pointer + "/cols")
    data = obj.get("data")
    _expect(isinstance(data, list) and len(data) == obj["rows"],
            pointer + "/data")
    grid = []
    for r, row in enumerate(data):
        _expect(isinstance(row, list) and len(row) == obj["cols"],
                f"{pointer}/data/{r}")
        grid.append([str_to_frac(x, f"{pointer}/data/{r}/{c}")
                     for c, x in enumerate(row)])
    return Matrix(obj["rows"], obj["cols"], grid)


def emit(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
    _validate_version(doc)
    _expect(doc.get("schema") == ALGEBRA_SCHEMA, "/schema")
    verts = doc.get("vertices")
    _expect(isinstance(verts, dict) and
            _is_int(verts.get("count")) and verts["count"] >= 1,
            "/vertices/count")
    n = verts["count"]
    arrows_doc = doc.get("arrows")
    _expect(isinstance(arrows_doc, list), "/arrows")
    arrows = []
    names = set()
    for k, a in enumerate(arrows_doc):
        p = f"/arrows/{k}"
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
    _expect(isinstance(rels_doc, list), "/relations")
    relations = []
    for rk, r in enumerate(rels_doc):
        p = f"/relations/{rk}"
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
                _expect(aname in by_name, f"{tp}/path/{ak}")
            src = by_name[path[0]][0]
            terms.append((coeff, src, tuple(path)))
        relations.append(Relation(quiver, terms))
    order = doc.get("order")
    _expect(isinstance(order, list) and all(_is_int(v) for v in order)
            and sorted(order) == list(range(1, n + 1)), "/order")
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
    from .bocs import classify_bocs
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
        "mu_pairs": matrix_to_lists(bocs.mu_pairs),
        "kernel_basis": [[frac_to_str(x) for x in v]
                         for v in bocs.kernel_basis],
        "kernel_generators": [[a, b, [frac_to_str(x) for x in v]]
                              for (a, b, v) in bocs.kernel_generators],
        "d": sorted([[a, b, mult]
                     for (a, b), mult in bocs.d.items()]),
        "bocs_class": classify_bocs(bocs).label,
    }


def doc_to_bocs(doc: dict):
    """Rehydrated bocs supporting the module category and classification.

    The A-infinity tables and the originating algebra are not part of the
    document, so operations needing them (validate_coalgebra, the twisted
    correspondence) are unavailable on the result.
    """
    from .bocs import Bocs
    _validate_version(doc)
    _expect(doc.get("schema") == BOCS_SCHEMA, "/schema")
    _expect(doc.get("mode") in ("delta", "pdelta"), "/mode")
    _expect(_is_int(doc.get("r_max")) and doc["r_max"] >= 2, "/r_max")
    B, order = doc_to_algebra(doc.get("base"))

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
    for k, m in enumerate(WL + WR):
        _expect(m.rows == w_dim and m.cols == w_dim, "/wl")
    eps = lists_to_matrix(doc.get("eps"), "/eps")
    _expect(eps.rows == B.dim and eps.cols == w_dim, "/eps")
    mu_pairs = lists_to_matrix(doc.get("mu_pairs"), "/mu_pairs")
    _expect(mu_pairs.rows == w_dim * w_dim and mu_pairs.cols == w_dim,
            "/mu_pairs")
    kb = doc.get("kernel_basis")
    _expect(isinstance(kb, list), "/kernel_basis")
    kernel_basis = []
    for k, v in enumerate(kb):
        _expect(isinstance(v, list) and len(v) == w_dim,
                f"/kernel_basis/{k}")
        kernel_basis.append(tuple(
            str_to_frac(x, f"/kernel_basis/{k}/{c}")
            for c, x in enumerate(v)))
    kg = doc.get("kernel_generators")
    _expect(isinstance(kg, list), "/kernel_generators")
    kernel_generators = []
    for k, item in enumerate(kg):
        p = f"/kernel_generators/{k}"
        _expect(isinstance(item, list) and len(item) == 3, p)
        a, b, v = item
        _expect(is_vertex(a) and is_vertex(b), p)
        _expect(isinstance(v, list) and len(v) == w_dim, p)
        kernel_generators.append(
            (a, b, tuple(str_to_frac(x, f"{p}/{c}")
                         for c, x in enumerate(v))))
    dd = doc.get("d")
    _expect(isinstance(dd, list), "/d")
    d = {}
    for k, item in enumerate(dd):
        _expect(isinstance(item, list) and len(item) == 3
                and is_vertex(item[0]) and is_vertex(item[1])
                and _is_int(item[2]), f"/d/{k}")
        d[(item[0], item[1])] = item[2]

    return Bocs.from_parts(
        B, order, doc["mode"], doc["r_max"], w_dim=w_dim, w_block=w_block,
        WL=WL, WR=WR, eps=eps, mu_pairs=mu_pairs, kernel_basis=kernel_basis,
        kernel_generators=kernel_generators, d=d)


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
