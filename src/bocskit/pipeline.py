"""End-to-end verification pipeline from an algebra to its bocs and back.

run_pipeline chains classification, bocs construction, coalgebra
validation, the right Burt-Butler algebra and the full battery of
structural checks; roundtrip_bocs starts from a bocs and checks its
right algebra.  Both are sequences of stages on one stage runner, _Run.
It marks the start of each stage on time.perf_counter, raises the
ValueError or AssertionError of a call made through run.call again as a
PipelineError of the current stage (other calls are not attributed),
and assembles the report skeleton both directions share.  Reports are
plain dictionaries emitted through the io module, so equal inputs give
byte-identical documents; the seconds spent in each stage are kept on
the report object but excluded from the canonical emit.
"""

from __future__ import annotations

import time
from itertools import product

from . import io as bio
from .ainf import stasheff_check
from .bocs import (bocs_hom_basis, classify_bocs, construct_bocs,
                   validate_coalgebra)
from .burt_butler import (_endo_algebra, borel_checks, homological_check,
                          induce, loop_subalgebra_check, morita_compare,
                          right_algebra, standard_check)
from .modules import (hom_basis, is_isomorphic, iso_defect, projective,
                      quotient, radical_vectors, simple, submodule)
from .strata import classify_algebra, theta_filtration
from .twisted import hom_dim_compare

REPORT_VERSION = 1

# run_pipeline's config keys, their defaults and their least values
_CONFIG = {"r_max": (5, 2)}
# hom_dim_compare samples the indecomposables of at most this dimension
DIM_BOUND = 4


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

    def emit(self):
        return bio.emit(self.doc)


class _Run:
    """The stage runner of one pipeline run.

    Callers pass stage functions by their module-global names, read at
    each call and never bound in a table, so that a wrapper set on this
    module's attributes sees every call.
    """

    def __init__(self):
        self.marks = []  # (stage, perf_counter at its start), in order
        self.standard = None

    def stage(self, name):
        self.marks.append((name, time.perf_counter()))

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs); its ValueError or AssertionError is raised
        again as a PipelineError of the current stage."""
        try:
            return fn(*args, **kwargs)
        except PipelineError:
            raise
        except (ValueError, AssertionError) as e:
            raise PipelineError(self.marks[-1][0], str(e)) from e

    def require(self, cond, message, witness=None):
        if not cond:
            raise PipelineError(self.marks[-1][0], message, witness)

    def require_coalgebra(self, bocs):
        """validate_coalgebra, failing at its first failed axiom with that
        axiom and element as the witness."""
        for axiom, at in self.call(validate_coalgebra, bocs).items():
            self.require(at is None,
                         f"coalgebra axiom violated: {axiom} at {at}",
                         {"axiom": axiom, "at": at})

    def standard_stage(self, ralg):
        """The standard_check stage."""
        self.stage("standard_check")
        sc = self.call(standard_check, ralg)
        table = {f"{i},{j}": [int(g), int(w)]
                 for (i, j), (g, w) in sorted(sc["hom_table"].items())}
        self.require(sc["ok"], "standard module checks failed",
                     {"hom_table": table})
        self.standard = {"ok": True, "hom_table": table}

    def report(self, input_doc, cls, bocs, bclass, ralg, *, bocs_doc,
               verdicts):
        """The report of a passed run; bocs_doc and verdicts hold the
        entries only one direction has."""
        self.stage("done")
        doc = {
            "schema": bio.REPORT_SCHEMA,
            "version": REPORT_VERSION,
            "ok": True,
            "input_digest": bio.algebra_digest(input_doc),
            "order": list(bocs.order),
            "mode": bocs.mode,
            "classification": cls.label,
            "bocs": {
                "dim_b": bocs.B.dim,
                "d": sorted([[a, b, m] for (a, b), m in bocs.d.items()]),
                "bocs_class": bclass.label,
                **bocs_doc,
            },
            "right_algebra": {
                "dim": ralg.R.dim,
                "cartan": [list(row) for row in ralg.R.cartan_matrix()],
            },
            "verdicts": {"standard_check": self.standard, **verdicts},
        }
        timing = {name: round(t1 - t0, 6) for (name, t0), (_, t1)
                  in zip(self.marks, self.marks[1:])}
        return PipelineReport(doc, timing)


def _is_indecomposable(M):
    """Whether the module M is nonzero and indecomposable, read off End(M).

    In characteristic 0 the radical of End(M) is the kernel of its trace
    pairing (f, g) -> trace(g f) on M, so iso_defect(M, M), the rank of
    that pairing, is dim End(M) / rad.  Rank 1 is End(M) / rad = K: End(M)
    is local and M indecomposable.  Otherwise End(M) / rad is bigger than
    K, and _endo_algebra, which builds End(M) by from_structure_constants
    on one vertex, raises that it is not elementary (the verify run of
    corpus member c09), until End(M) is split into its idempotents
    (ROADMAP item 2).
    """
    if M.total == 0:
        return False
    if iso_defect(M, M) != 1:
        _endo_algebra(M)
    return True


def indecomposables_up_to(alg, bound):
    """Indecomposable subquotients of the projectives, up to iso.

    Every subquotient rad^a P(i) / rad^b P(i) of total dimension at most
    the bound is tested for indecomposability through its endomorphism
    algebra, except the quotients P(i) / rad^b P(i) (a = 0): their top is
    the simple S(i), and a direct sum of two nonzero modules has a top of
    dimension at least 2, so they are indecomposable (End is local, with
    End / rad = K).  For serial algebras this enumeration is complete.
    """
    loewy = max(alg.bdegree) + 1
    found = []
    for i in range(1, alg.n + 1):
        P = projective(alg, i)
        for b in range(1, loewy + 1):
            Q, proj, _ = quotient(P, radical_vectors(P, b))
            for a in range(0, b):
                if a == 0:
                    cand = Q
                else:
                    vecs = [tuple(proj.mat.apply(v))
                            for v in radical_vectors(P, a)]
                    cand, _ = submodule(Q, vecs)
                if cand.total == 0 or cand.total > bound:
                    continue
                if a > 0 and not _is_indecomposable(cand):
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
    if unknown:
        raise PipelineError("config", "unknown config keys",
                            {"keys": unknown})
    for key, (default, least) in _CONFIG.items():
        value = config.setdefault(key, default)
        if type(value) is not int or value < least:
            raise PipelineError(
                "config", f"{key} must be an integer of at least {least}",
                {"key": key})
    return config


def run_pipeline(alg, order=None, mode="pdelta", config=None):
    """Full verification battery; raises PipelineError on any violation."""
    config = _read_config(config)
    r_max = config["r_max"]
    run = _Run()

    run.stage("classify")
    cls = run.call(classify_algebra, alg, order)
    order = list(cls.order)
    run.require(cls.filtered(mode), "mode not admitted",
                {"label": cls.label, "mode": mode})

    run.stage("construct_bocs")
    bocs = run.call(construct_bocs, alg, order, mode=mode, r_max=r_max,
                    classification=cls)
    run.stage("validate_coalgebra")
    run.require_coalgebra(bocs)
    for k in range(1, bocs.table.r_max + 1):
        run.require(run.call(stasheff_check, bocs.table, k),
                    "higher-product identity failed", {"k": k})

    run.stage("classify_bocs")
    bclass = run.call(classify_bocs, bocs)
    wanted = "one-cyclic directed" if mode == "pdelta" else "weakly directed"
    run.require(wanted in bclass.satisfies, "bocs shape violated",
                {"label": bclass.label, "wanted": wanted})

    run.stage("right_algebra")
    ralg = run.call(right_algebra, bocs)
    run.standard_stage(ralg)

    run.stage("borel_checks")
    bc = run.call(borel_checks, ralg)
    run.require(bc["ok"], "Borel subalgebra checks failed",
                {k: bool(v) for k, v in bc.items()})

    run.stage("homological_check")
    vertices = range(1, bocs.B.n + 1)
    simples = [simple(bocs.B, i) for i in vertices]
    homological = []
    for (i, j, k), out in zip(
            product(vertices, vertices, (1, 2)),
            run.call(homological_check, ralg, simples, simples),
            strict=True):
        homological.append({"i": i, "j": j, "k": k,
                            "ext_b": out["ext_b"], "ext_r": out["ext_r"]})
        run.require(out["ok"], "Ext comparison failed", homological[-1])

    run.stage("loop_subalgebra_check")
    loops = []
    for out in run.call(loop_subalgebra_check, cls.systems["delta"], bocs):
        loops.append({"i": out["vertex"], "verdict": out["verdict"],
                      "dim_end": out["dim_end"], "dim_sub": out["dim_sub"]})
        run.require(out["ok"], "vertex subalgebra not shown isomorphic",
                    {**loops[-1], "note": out["note"]})

    run.stage("morita_compare")
    mc = run.call(morita_compare, alg, ralg)
    run.require(mc["ok"], "input and right algebra not shown isomorphic",
                {"verdict": mc["verdict"], "note": mc["note"]})

    run.stage("hom_dim_compare")
    system = cls.systems[mode]
    pairs = []
    mods = indecomposables_up_to(alg, DIM_BOUND)
    certs = [cert for cert in (theta_filtration(M, system) for M in mods)
             if cert is not None]
    filtered = [cert.module for cert in certs]
    for (M, N), out in zip(product(filtered, filtered),
                           run.call(hom_dim_compare, certs, bocs),
                           strict=True):
        mn = {"m": list(M.dims), "n": list(N.dims)}
        pairs.append({**mn, "dim": out["dim_hom_A"]})
        run.require(out["ok"], "hom dimensions disagree",
                    {**mn, "dim_a": out["dim_hom_A"],
                     "dim_bocs": out["dim_hom_bocs"]})

    return run.report(
        bio.algebra_to_doc(alg, order), cls, bocs, bclass, ralg,
        bocs_doc={"relation_degrees": sorted(
            {max(len(names) for _, _, names in rel.terms)
             for rel in bocs.B.relations.relations})},
        verdicts={
            "borel_checks": {"ok": True},
            "homological_check": {"ok": True, "pairs": homological},
            "loop_subalgebra_check": {"ok": True, "vertices": loops},
            "morita_compare": {"ok": True, "verdict": mc["verdict"]},
            "hom_dim_compare": {"ok": True, "pairs": pairs,
                                "skipped_unfiltered":
                                    len(mods) - len(filtered)},
        })


def roundtrip_bocs(bocs):
    """Bocs-first direction: build R and verify it is properly filtered.

    Works on rehydrated bocses, where the transfer tables are absent, so
    the coalgebra axioms read off the presentation of W are not checked.
    """
    run = _Run()
    run.stage("classify_bocs")
    bclass = run.call(classify_bocs, bocs)
    run.require(bclass.label not in ("invalid", "projective-kernel only"),
                "bocs shape violated", {"label": bclass.label})
    run.require_coalgebra(bocs)

    run.stage("right_algebra")
    ralg = run.call(right_algebra, bocs)

    run.stage("classify")
    cls = run.call(classify_algebra, ralg.R, bocs.order)
    run.require(cls.filtered("pdelta"),
                "right algebra is not properly filtered", {"label": cls.label})
    run.standard_stage(ralg)

    run.stage("hom_dim_compare")
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
            got = len(hom_basis(FX, FY))
            want = len(bocs_hom_basis(bocs, X, Y))
            pairs.append({"x": list(X.dims), "y": list(Y.dims),
                          "dim": want})
            run.require(got == want, "hom dimensions disagree",
                        {"x": list(X.dims), "y": list(Y.dims),
                         "dim_bocs": want, "dim_r": got})

    return run.report(
        bio.bocs_to_doc(bocs), cls, bocs, bclass, ralg, bocs_doc={},
        verdicts={"hom_dim_compare": {"ok": True, "pairs": pairs}})
