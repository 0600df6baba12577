"""Workloads, ops and the closed-loop pass runner of the bocskit benchmark.

One caller, no threads: each op starts when the previous one returns.
An op mirrors one CLI call on one document.  A ``verify`` op parses an
algebra document and runs the pipeline, as ``bocskit verify`` does; a
``roundtrip`` op parses a bocs document, rebuilds and checks its right
algebra, as ``bocskit burt-butler`` does.  Both end with the canonical
``emit()``.  The outcome of an op is the sha256 of that report, or the
class and stage of the exception it raised; expected.json records the
outcome of every op, so any change to a report is caught byte for byte.

A pass runs every op of the workload once, in an order drawn from the
seed.  The inputs themselves are fixed, because their reports are what
the correctness gate compares against.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import sys
from collections import namedtuple
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import bocskit  # noqa: E402
from bocskit import io as bio  # noqa: E402
from bocskit import pipeline  # noqa: E402
from bocskit.bocs import construct_bocs  # noqa: E402
from bocskit.cli import FIXTURES  # noqa: E402
from bocskit.corpus import random_corpus  # noqa: E402

import layers  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 20260823
CORPUS_SEED = 20260823
CORPUS_SIZE = 20
# The timed corpus workloads run members 0-11 without member 9.  Member 9's
# verify op raises "algebra is not elementary" after about 40 s, and its
# bocs alone takes about 21 s to construct; a timed run may neither fail
# nor spend that long.  Members 12-19 would make one verify pass longer
# than a run.  audit.py runs all CORPUS_SIZE members.
TIMED_MEMBERS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11)
FIXTURE_MODES = {"e0": "pdelta", "e1": "pdelta", "e2": "delta",
                 "e3": "pdelta"}
WORKLOADS = ("verify-fixtures", "verify-corpus", "burt-butler-roundtrip")
END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("op_max_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0

Op = namedtuple("Op", "key kind text mode config")
Pass = namedtuple("Pass",
                  "order wall times raw outcomes errors op_layers")


def check_sources():
    """Raise unless bocskit was imported from this checkout's src/."""
    got = os.path.realpath(os.path.dirname(bocskit.__file__))
    if got != os.path.realpath(os.path.join(SRC, "bocskit")):
        raise ImportError(f"bocskit imported from {got}, not from src/")


# -- inputs -----------------------------------------------------------------


def _member_key(k):
    return f"c{k:02d}"


def _corpus(members):
    corpus = random_corpus(CORPUS_SEED, count=max(members) + 1, max_dim=5,
                           require_bocs=False)
    return [(_member_key(k), corpus[k][0], corpus[k][1]) for k in members]


def fixture_ops():
    """e0-e3 at the pipeline defaults (r_max 5, dim_bound 4)."""
    ops = []
    for name, mode in FIXTURE_MODES.items():
        build, order = FIXTURES[name]
        text = bio.emit(bio.algebra_to_doc(build(), order))
        ops.append(Op(name, "verify", text, mode, {}))
    return ops


def corpus_ops(members):
    return [Op(key, "verify", bio.emit(bio.algebra_to_doc(alg, order)),
               "pdelta", {"r_max": 3})
            for key, alg, order in _corpus(members)]


def roundtrip_ops(members):
    ops = []
    for key, alg, order in _corpus(members):
        bocs = construct_bocs(alg, order, mode="pdelta", r_max=3)
        ops.append(Op(key, "roundtrip", bio.emit(bio.bocs_to_doc(bocs)),
                      None, None))
    return ops


def setup_ops(workload, full=False):
    """The ops of one workload; full gives every corpus member."""
    members = range(CORPUS_SIZE) if full else TIMED_MEMBERS
    if workload == "verify-fixtures":
        return fixture_ops()
    if workload == "verify-corpus":
        return corpus_ops(members)
    if workload == "burt-butler-roundtrip":
        return roundtrip_ops(members)
    raise ValueError(f"unknown workload {workload!r}")


def timed_setup(workload, sampler):
    """(ops, corrected seconds of each setup): at least SETUP_REPEATS
    setups and SETUP_MIN_SECONDS in total, so that the median is steady."""
    nets, times = [], []
    while len(nets) < SETUP_REPEATS or sum(nets) < SETUP_MIN_SECONDS:
        mark = sampler.mark()
        ops = setup_ops(workload)
        net, corrected = sampler.corrected(mark)
        nets.append(net)
        times.append(corrected)
    return ops, times


def input_digest(ops):
    """sha256 of the ops' keys and documents, in order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.key}\t{op.mode}\t{op.config}\t{op.text}\n".encode())
    return h.hexdigest()


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- running ----------------------------------------------------------------


def run_op(op):
    """Canonical report text of one op.  Calls go through the module
    attributes, so that a Tracer's wrappers see them."""
    built = bio.parse(op.text).build()
    if op.kind == "verify":
        alg, order = built
        report = pipeline.run_pipeline(alg, order, mode=op.mode,
                                       config=op.config)
    else:
        report = pipeline.roundtrip_bocs(built)
    return report.emit()


def failure_stage(exc, code_names):
    """PipelineError.stage, or else the innermost traced bocskit callable
    on the traceback."""
    if isinstance(exc, pipeline.PipelineError):
        return exc.stage
    stage = "benchmark"
    tb = exc.__traceback__
    while tb is not None:
        stage = code_names.get(tb.tb_frame.f_code, stage)
        tb = tb.tb_next
    return stage


def run_pass(ops, code_names, tracer=None, sampler=None):
    """Run each op once, in the given order; a failing op is recorded and
    the pass goes on.  An op's time is corrected for the processor's
    speed when a sampler runs, and as measured otherwise."""
    times, raw, outcomes, errors, op_layers = {}, {}, {}, {}, {}
    t_pass = perf_counter()
    for op in ops:
        before = tracer.metrics() if tracer else None
        mark = sampler.mark() if sampler else None
        t0 = perf_counter()
        try:
            text = run_op(op)
        except Exception as exc:  # the op boundary: count it, keep going
            outcomes[op.key] = {"error": type(exc).__name__,
                                "stage": failure_stage(exc, code_names)}
            errors[op.key] = str(exc)
        else:
            outcomes[op.key] = {
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
        if sampler:
            raw[op.key], times[op.key] = sampler.corrected(mark)
        else:
            raw[op.key] = times[op.key] = perf_counter() - t0
        if tracer:
            after = tracer.metrics()
            op_layers[op.key] = {m: after[m] - before[m] for m in after}
    return Pass(list(ops), perf_counter() - t_pass, times, raw, outcomes,
                errors, op_layers)


def seeded_orders(ops, seed):
    """The op order of each successive pass, drawn from the seed."""
    rng = random.Random(seed)
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


def measure(ops, seconds, seed, tracer=None, sampler=None):
    """Passes in seeded orders.  Another pass starts only while it is
    expected to end within the given seconds; there is always one."""
    code_names = layers.code_names()
    passes, layer_values = [], []
    start = perf_counter()
    for order in seeded_orders(ops, seed):
        if tracer:
            tracer.reset()
        p = run_pass(order, code_names, tracer, sampler)
        passes.append(p)
        if tracer:
            values = tracer.metrics()
            values["trace.wall_s"] = p.wall
            layer_values.append(values)
        if perf_counter() - start + p.wall > seconds:
            return passes, layer_values


def tally(passes, expected):
    """(attempted, failed, wrong, mismatched op keys).

    failed ops raised; wrong ops returned a report whose digest is not the
    recorded outcome; mismatched lists every op whose outcome differs
    from the record, a recorded failure reproduced being a match.
    """
    attempted = failed = wrong = 0
    mismatched = []
    for p in passes:
        for key, outcome in p.outcomes.items():
            attempted += 1
            failed += "error" in outcome
            if outcome != expected.get(key):
                mismatched.append(key)
                wrong += "sha256" in outcome
    return attempted, failed, wrong, mismatched


def end_to_end(passes, setup_times):
    per_key = {key: statistics.median(p.times[key] for p in passes)
               for key in passes[0].times}
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.median(sum(p.times.values()) for p in passes),
        "op_p50_s": statistics.median(per_key.values()),
        "op_max_s": max(per_key.values()),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_kib / 1024,
    }


def per_layer(layer_values):
    return {name: statistics.median(v[name] for v in layer_values)
            for name, _ in layers.PER_LAYER}
