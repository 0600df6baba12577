"""End-to-end verification pipeline from an algebra to its bocs and back.

run_pipeline chains classification, bocs construction, coalgebra
validation, the right Burt-Butler algebra and the full battery of
structural checks, failing fast with stage attribution.  Reports are
plain dictionaries emitted through the io module, so equal inputs give
byte-identical documents; wall-clock timings are kept on the report
object but excluded from the canonical emit.
"""

from __future__ import annotations

import time

from . import io as bio
from .ainf import stasheff_check
from .bocs import (bocs_hom_basis, classify_bocs, construct_bocs,
                   validate_coalgebra)
from .burt_butler import (_endo_algebra, borel_checks, homological_check,
                          induce, loop_subalgebra_check, morita_compare,
                          right_algebra, standard_check)
from .modules import (hom_basis, is_isomorphic, projective, quotient,
                      simple, submodule)
from .strata import classify_algebra, theta_filtration
from .twisted import hom_dim_compare

REPORT_VERSION = 1

# run_pipeline's config keys, their defaults and their least values
_CONFIG = {"r_max": (5, 2), "dim_bound": (4, 1)}


class PipelineError(ValueError):
    """A stage failure carrying the stage name and a witness payload."""

    def __init__(self, stage, message, witness=None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.message = message
        self.witness = witness or {}

    def error_object(self):
        return {"error": self.message, "stage": self.stage,
                "witness": self.witness}


class PipelineReport:
    """Verification report; doc is the canonical serializable form."""

    def __init__(self, doc, timing):
        self.doc = doc
        self.timing = timing

    @property
    def ok(self):
        return self.doc["ok"]

    def emit(self):
        return bio.emit(self.doc)


def _stage(timing, name):
    timing.append((name, time.perf_counter()))


def _spans(timing):
    """Seconds spent in each stage, from the marks _stage left."""
    return {name: round(t1 - t0, 6)
            for (name, t0), (_, t1) in zip(timing, timing[1:])}


def _wrap(stage, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except (ValueError, AssertionError) as e:
        raise PipelineError(stage, str(e)) from e


def _require(stage, cond, message, witness=None):
    if not cond:
        raise PipelineError(stage, message, witness)


def _rad_power_vectors(alg, M, a):
    if a <= 0:
        return []
    vecs = []
    for k in range(alg.dim):
        if alg.bdegree[k] >= a:
            for c in range(M.total):
                vecs.append(M.act[k].column(c))
    return vecs


def _is_indecomposable(M):
    if M.total == 0:
        return False
    E = _endo_algebra(M)
    tops = sum(1 for k in range(E.dim) if E.bdegree[k] == 0)
    return tops == 1


def indecomposables_up_to(alg, bound):
    """Indecomposable subquotients of the projectives, up to iso.

    Every subquotient rad^a P(i) / rad^b P(i) of total dimension at most
    the bound is tested for indecomposability through its endomorphism
    algebra.  For serial algebras this enumeration is complete.
    """
    loewy = max(alg.bdegree) + 1
    found = []
    for i in range(1, alg.n + 1):
        P = projective(alg, i)
        for b in range(1, loewy + 1):
            Q, proj, _ = quotient(P, _rad_power_vectors(alg, P, b))
            for a in range(0, b):
                if a == 0:
                    cand = Q
                else:
                    vecs = [tuple(proj.mat.apply(v))
                            for v in _rad_power_vectors(alg, P, a)]
                    cand, _ = submodule(Q, vecs)
                if cand.total == 0 or cand.total > bound:
                    continue
                if not _is_indecomposable(cand):
                    continue
                if any(is_isomorphic(cand, other) for other in found):
                    continue
                found.append(cand)
    found.sort(key=lambda M: (M.total, M.dims))
    return found


def _read_config(config):
    """config with defaults filled in; PipelineError at stage "config"
    for unknown keys and values below their least."""
    config = dict(config or {})
    unknown = sorted(map(str, set(config) - set(_CONFIG)))
    _require("config", not unknown, "unknown config keys", {"keys": unknown})
    for key, (default, least) in _CONFIG.items():
        value = config.setdefault(key, default)
        _require("config", type(value) is int and value >= least,
                 f"{key} must be an integer of at least {least}",
                 {"key": key})
    return config


def _verdict_table(table):
    return {f"{i},{j}": [int(g), int(w)]
            for (i, j), (g, w) in sorted(table.items())}


def run_pipeline(alg, order=None, mode="pdelta", config=None):
    """Full verification battery; raises PipelineError on any violation."""
    config = _read_config(config)
    r_max, dim_bound = config["r_max"], config["dim_bound"]
    timing = []

    _stage(timing, "classify")
    cls = _wrap("classify", classify_algebra, alg, order)
    order = list(cls.order)
    _require("classify", cls.filtered(mode), "mode not admitted",
             {"label": cls.label, "mode": mode})

    _stage(timing, "construct_bocs")
    bocs = _wrap("construct_bocs", construct_bocs, alg, order,
                 mode=mode, r_max=r_max)
    _stage(timing, "validate_coalgebra")
    _wrap("validate_coalgebra", validate_coalgebra, bocs)
    for k in range(1, bocs.table.r_max + 1):
        _require("validate_coalgebra", stasheff_check(bocs.table, k),
                 "higher-product identity failed", {"k": k})

    _stage(timing, "classify_bocs")
    bclass = _wrap("classify_bocs", classify_bocs, bocs)
    wanted = "one-cyclic directed" if mode == "pdelta" else "weakly directed"
    _require("classify_bocs", wanted in bclass.satisfies,
             "bocs shape violated",
             {"label": bclass.label, "wanted": wanted})

    _stage(timing, "right_algebra")
    ralg = _wrap("right_algebra", right_algebra, bocs)

    _stage(timing, "standard_check")
    sc = _wrap("standard_check", standard_check, ralg)
    _require("standard_check", sc["ok"], "standard module checks failed",
             {"hom_table": _verdict_table(sc["hom_table"])})

    _stage(timing, "borel_checks")
    bc = _wrap("borel_checks", borel_checks, ralg)
    _require("borel_checks", bc["ok"], "Borel subalgebra checks failed",
             {k: bool(v) for k, v in bc.items()})

    _stage(timing, "homological_check")
    homological = []
    for i in range(1, bocs.B.n + 1):
        for j in range(1, bocs.B.n + 1):
            for k in (1, 2):
                out = _wrap("homological_check", homological_check,
                            ralg, simple(bocs.B, i), simple(bocs.B, j), k)
                homological.append({"i": i, "j": j, "k": k,
                                    "ext_b": out["ext_b"],
                                    "ext_r": out["ext_r"]})
                _require("homological_check", out["ok"],
                         "Ext comparison failed", homological[-1])

    _stage(timing, "loop_subalgebra_check")
    loops = []
    for i in range(1, alg.n + 1):
        out = _wrap("loop_subalgebra_check", loop_subalgebra_check,
                    alg, order, bocs, i)
        loops.append({"i": i, "verdict": out["verdict"],
                      "dim_end": out["dim_end"], "dim_sub": out["dim_sub"]})
        _require("loop_subalgebra_check", out["verdict"] != "distinct",
                 "vertex subalgebra mismatch", loops[-1])

    _stage(timing, "morita_compare")
    mc = _wrap("morita_compare", morita_compare, alg, ralg)
    _require("morita_compare", mc["verdict"] != "distinct",
             "input and right algebra differ", {"verdict": mc["verdict"]})

    _stage(timing, "hom_dim_compare")
    system = bocs.table.rsys.system
    pairs = []
    skipped = 0
    mods = indecomposables_up_to(alg, dim_bound)
    filtered = [M for M in mods
                if theta_filtration(M, system) is not None]
    skipped = len(mods) - len(filtered)
    for M in filtered:
        for N in filtered:
            out = _wrap("hom_dim_compare", hom_dim_compare, M, N, bocs)
            pairs.append({"m": list(M.dims), "n": list(N.dims),
                          "dim": out["dim_hom_A"]})
            _require("hom_dim_compare", out["ok"],
                     "hom dimensions disagree",
                     {"m": list(M.dims), "n": list(N.dims),
                      "dim_a": out["dim_hom_A"],
                      "dim_bocs": out["dim_hom_bocs"]})

    _stage(timing, "done")
    adoc = bio.algebra_to_doc(alg, order)
    doc = {
        "schema": bio.REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "ok": True,
        "input_digest": bio.algebra_digest(adoc),
        "order": list(order),
        "mode": mode,
        "classification": cls.label,
        "bocs": {
            "dim_b": bocs.B.dim,
            "relation_degrees": sorted(
                {max(len(names) for _, _, names in rel.terms)
                 for rel in bocs.B.relations.relations}),
            "d": sorted([[a, b, m] for (a, b), m in bocs.d.items()]),
            "bocs_class": bclass.label,
        },
        "right_algebra": {
            "dim": ralg.R.dim,
            "cartan": [list(row) for row in ralg.R.cartan_matrix()],
        },
        "verdicts": {
            "standard_check": {"ok": True,
                               "hom_table": _verdict_table(sc["hom_table"])},
            "borel_checks": {"ok": True},
            "homological_check": {"ok": True, "pairs": homological},
            "loop_subalgebra_check": {"ok": True, "vertices": loops},
            "morita_compare": {"ok": True, "verdict": mc["verdict"]},
            "hom_dim_compare": {"ok": True, "pairs": pairs,
                                "skipped_unfiltered": skipped},
        },
    }
    return PipelineReport(doc, _spans(timing))


def roundtrip_bocs(bocs):
    """Bocs-first direction: build R and verify it is properly filtered.

    Works on rehydrated bocses, where the transfer tables are absent;
    the coalgebra axioms are re-validated only when available.
    """
    timing = []
    _stage(timing, "classify_bocs")
    bclass = _wrap("classify_bocs", classify_bocs, bocs)
    _require("classify_bocs", bclass.label not in
             ("invalid", "projective-kernel only"),
             "bocs shape violated", {"label": bclass.label})
    if bocs.table is not None:
        _wrap("validate_coalgebra", validate_coalgebra, bocs)

    _stage(timing, "right_algebra")
    ralg = _wrap("right_algebra", right_algebra, bocs)

    _stage(timing, "classify")
    cls = _wrap("classify", classify_algebra, ralg.R, bocs.order)
    _require("classify", cls.filtered("pdelta"),
             "right algebra is not properly filtered",
             {"label": cls.label})

    _stage(timing, "standard_check")
    sc = _wrap("standard_check", standard_check, ralg)
    _require("standard_check", sc["ok"], "standard module checks failed",
             {"hom_table": _verdict_table(sc["hom_table"])})

    _stage(timing, "hom_dim_compare")
    B = bocs.B
    seen = []
    for i in range(1, B.n + 1):
        for M in (simple(B, i), projective(B, i)):
            if not any(is_isomorphic(M, X) for X in seen):
                seen.append(M)
    induced = [induce(ralg, X) for X in seen]
    pairs = []
    for X, FX in zip(seen, induced):
        for Y, FY in zip(seen, induced):
            got = len(hom_basis(FX.module, FY.module))
            want = len(bocs_hom_basis(bocs, X, Y))
            pairs.append({"x": list(X.dims), "y": list(Y.dims),
                          "dim": want})
            _require("hom_dim_compare", got == want,
                     "hom dimensions disagree",
                     {"x": list(X.dims), "y": list(Y.dims),
                      "dim_bocs": want, "dim_r": got})

    _stage(timing, "done")
    doc = {
        "schema": bio.REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "ok": True,
        "input_digest": bio.algebra_digest(bio.bocs_to_doc(bocs)),
        "order": list(bocs.order),
        "mode": bocs.mode,
        "classification": cls.label,
        "bocs": {
            "dim_b": B.dim,
            "d": sorted([[a, b, m] for (a, b), m in bocs.d.items()]),
            "bocs_class": bclass.label,
        },
        "right_algebra": {
            "dim": ralg.R.dim,
            "cartan": [list(row) for row in ralg.R.cartan_matrix()],
        },
        "verdicts": {
            "standard_check": {"ok": True,
                               "hom_table": _verdict_table(sc["hom_table"])},
            "hom_dim_compare": {"ok": True, "pairs": pairs},
        },
    }
    return PipelineReport(doc, _spans(timing))
