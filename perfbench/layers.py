"""Per-layer tracing of bocskit from outside the package.

A Tracer wraps the public functions of every bocskit module, plus the
Matrix methods that do the exact linear algebra and HodgeData.G (one
G-lambda evaluation), and records for each a call count, inclusive
seconds and self seconds (its span minus the spans of its children), all
on perf_counter.  bocskit binds names with ``from .x import y``, so a
wrapper replaces every bocskit module attribute that holds the original,
and methods are replaced on their class.  Probes read counts off the
arguments and results of a few spans: matmul sizes, rref cells, the
A-infinity table of each constructed bocs, object dimensions and the
bytes emitted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = ("linalg", "quiver", "modules", "strata", "resolution", "ainf",
           "bocs", "burt_butler", "twisted", "corpus", "pipeline", "io")

# Helpers called once per matrix entry or per vector: a span on each would
# cost more than the work it measures.
UNTRACED = frozenset({
    "linalg.frac", "linalg.vec_add", "linalg.vec_scale",
    "linalg.vec_is_zero", "io.frac_to_str", "io.str_to_frac",
})

# (module, class, method, span name)
METHODS = (
    ("linalg", "Matrix", "__matmul__", "linalg.matmul"),
    ("linalg", "Matrix", "apply", "linalg.apply"),
    ("linalg", "Matrix", "solve", "linalg.solve"),
    ("linalg", "Matrix", "kernel_basis", "linalg.kernel_basis"),
    ("resolution", "HodgeData", "G", "resolution.HodgeData.G"),
)


def _spans(prefix, fields=("calls", "s", "self_s")):
    units = {"calls": "count", "s": "s", "self_s": "s"}
    return [(f"{prefix}.{f}", units[f]) for f in fields]


# Every per-layer metric, in report order, with its unit.  Times and
# counts are per pass over the workload's ops.
PER_LAYER = (
    _spans("ainf.build_tables")
    + [("ainf.tuples", "count"), ("ainf.tuples_nonzero", "count"),
       ("ainf.tuples_deg0", "count")]
    + _spans("ainf.merkulov_lambda", ("calls",))
    + _spans("ainf.stasheff_check", ("s",))
    + _spans("resolution.hodge_data", ("calls",))
    + _spans("resolution.HodgeData.G", ("calls", "s"))
    + _spans("bocs.construct_bocs")
    + _spans("bocs.validate_coalgebra", ("s",))
    + _spans("bocs.bocs_compose", ("calls", "s"))
    + _spans("burt_butler.right_algebra")
    + _spans("burt_butler.homological_check")
    + _spans("burt_butler.borel_checks", ("s",))
    + _spans("burt_butler.standard_check", ("s",))
    + _spans("strata.classify_algebra")
    + _spans("io.parse", ("s",))
    + _spans("io.doc_to_bocs", ("s",))
    + _spans("io.emit", ("s",)) + [("io.emit.bytes", "bytes")]
    + _spans("modules.hom_basis")
    + _spans("twisted.hom_dim_compare")
    + _spans("quiver.from_structure_constants")
    + _spans("pipeline.indecomposables_up_to", ("s",))
    + _spans("pipeline.run_pipeline", ("s", "self_s"))
    + _spans("pipeline.roundtrip_bocs", ("s", "self_s"))
    + [("linalg.matmul.calls", "count"), ("linalg.matmul.products", "count"),
       ("linalg.matmul.zero_left_share", "share"),
       ("linalg.rref_rows.calls", "count"), ("linalg.rref_rows.cells", "count"),
       ("linalg.apply.calls", "count"), ("linalg.solve.calls", "count"),
       ("linalg.kernel_basis.calls", "count")]
    + [("bocs.dim_b", "count"), ("bocs.dim_w", "count"),
       ("burt_butler.dim_r", "count")]
    + [(f"{m}.self_s", "s") for m in MODULES]
    + [(f"{m}.layer_s", "s") for m in MODULES if m != "linalg"]
    + [("trace.wall_s", "s")]
)


def traced_callables():
    """(span name, owner, attribute, function) for every traced callable."""
    out = []
    for short in MODULES:
        mod = importlib.import_module("bocskit." + short)
        for attr, fn in sorted(vars(mod).items()):
            name = f"{short}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or name in UNTRACED):
                continue
            out.append((name, mod, attr, fn))
    for short, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module("bocskit." + short), cls_name)
        out.append((name, cls, attr, vars(cls)[attr]))
    return out


def code_names():
    """Span name of each traced callable, keyed by its code object."""
    return {fn.__code__: name for name, _, _, fn in traced_callables()}


# -- probes: counts read off a span's arguments and result -----------------


def _probe_matmul(counts, args, result):
    left, right = args
    counts["linalg.matmul.products"] += left.rows * left.cols * right.cols
    zeros = sum(1 for row in left.data for x in row if x == 0)
    counts["linalg.matmul.zero_left"] += zeros * right.cols


def _probe_rref(counts, args, result):
    rows, ncols = args[0], args[1]
    counts["linalg.rref_rows.cells"] += len(rows) * ncols


def _probe_bocs_dims(counts, args, bocs):
    counts["bocs.dim_b"] += bocs.B.dim
    counts["bocs.dim_w"] += bocs.w_dim


def _probe_construct(counts, args, bocs):
    table = bocs.table.m_table
    counts["ainf.tuples"] += len(table)
    counts["ainf.tuples_nonzero"] += sum(1 for v in table.values() if v)
    counts["ainf.tuples_deg0"] += sum(
        1 for key in table if any(c.k == 0 for c in key))
    _probe_bocs_dims(counts, args, bocs)


def _probe_right_algebra(counts, args, ralg):
    counts["burt_butler.dim_r"] += ralg.R.dim


def _probe_emit(counts, args, text):
    counts["io.emit.bytes"] += len(text.encode())


PROBES = {
    "linalg.matmul": _probe_matmul,
    "linalg.rref_rows": _probe_rref,
    "bocs.construct_bocs": _probe_construct,
    "io.doc_to_bocs": _probe_bocs_dims,
    "burt_butler.right_algebra": _probe_right_algebra,
    "io.emit": _probe_emit,
}


class Tracer:
    """Spans and counters for the traced callables, installed on demand.

    Use as a context manager: entering patches every traced callable,
    leaving restores the originals.  reset() starts a new pass.
    """

    def __init__(self):
        self._patches = []
        self._stack = []
        self._active = {}
        self.reset()

    def reset(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.spans = {}
        self.counts = Counter()  # filled by PROBES
        # self seconds per module, linalg spans counted toward their caller
        self.layer_s = Counter()

    def _wrap(self, name, fn):
        stack = self._stack
        active = self._active
        probe = PROBES.get(name)
        module = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            layer = stack[-1][1] if module == "linalg" and stack else module
            frame = [0.0, layer]  # seconds covered by child spans, layer
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                rec = tracer.spans.get(name)
                if rec is None:
                    rec = tracer.spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                if not active[name]:
                    # a recursive call is already inside the outer span
                    rec[1] += dt
                own = dt - frame[0]
                rec[2] += own
                tracer.layer_s[layer] += own
                if stack:
                    stack[-1][0] += dt
            if probe is not None:
                probe(tracer.counts, args, result)
            return result

        return span

    def __enter__(self):
        callables = traced_callables()
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, _, _, fn in callables}
        for name, owner, attr, fn in callables:
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bocskit"
                                   or modname.startswith("bocskit.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def metrics(self):
        """Every PER_LAYER value except trace.wall_s, for the current pass."""
        values = dict(self.counts)
        module_self = dict.fromkeys(MODULES, 0.0)
        for name, (calls, incl, own) in self.spans.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.s"] = incl
            values[f"{name}.self_s"] = own
            module_self[name.split(".", 1)[0]] += own
        for mod, own in module_self.items():
            values[f"{mod}.self_s"] = own
            values[f"{mod}.layer_s"] = self.layer_s[mod]
        products = self.counts["linalg.matmul.products"]
        values["linalg.matmul.zero_left_share"] = (
            self.counts["linalg.matmul.zero_left"] / products
            if products else 0.0)
        return {name: values.get(name, 0) for name, _ in PER_LAYER
                if name != "trace.wall_s"}
