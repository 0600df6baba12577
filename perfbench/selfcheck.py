"""Tests of the benchmark itself: inputs, failure accounting, tracing,
speed correction.

Run with `PYTHONPATH=src python3 -m pytest -q perfbench/selfcheck.py`.  The
name keeps pytest from collecting them with the repository tests, whose
acceptance module has a wall-clock budget.
"""

import json
import os
import signal

import pytest

import bench
import layers
import speed
from bocskit import pipeline
from bocskit.linalg import ONE
from bocskit.quiver import from_structure_constants

EXPECTED = bench.load_expected()


@pytest.fixture(scope="module")
def fixture_ops():
    return {op.key: op for op in bench.fixture_ops()}


def _first_order_digest(ops, seed):
    return bench.input_digest(next(bench.seeded_orders(ops, seed)))


def test_seed_fixes_the_inputs(fixture_ops):
    ops = list(fixture_ops.values())
    assert bench.input_digest(ops) == bench.input_digest(bench.fixture_ops())
    assert _first_order_digest(ops, 7) == _first_order_digest(ops, 7)
    assert _first_order_digest(ops, 7) != _first_order_digest(ops, 8)


def test_failing_op_is_counted_and_the_pass_goes_on(fixture_ops):
    bad_doc = json.dumps({"schema": "bocskit/algebra", "version": 1})
    ops = [bench.Op("bad", "verify", bad_doc, "pdelta", {}),
           fixture_ops["e0"]]
    p = bench.run_pass(ops, layers.code_names())
    assert p.outcomes["bad"] == {"error": "ValueError",
                                 "stage": "io.doc_to_algebra"}
    assert p.outcomes["e0"] == EXPECTED["verify-fixtures"]["e0"]
    attempted, failed, wrong, mismatched = bench.tally(
        [p], EXPECTED["verify-fixtures"])
    assert (attempted, failed, wrong, mismatched) == (2, 1, 0, ["bad"])


def test_failure_stage_is_the_innermost_public_function():
    # K x K with a single idempotent: not elementary, as corpus member 9
    def mult(u, v):
        return tuple(a * b for a, b in zip(u, v))

    with pytest.raises(ValueError, match="not elementary") as info:
        from_structure_constants(1, mult, [(ONE, ONE)])
    assert bench.failure_stage(info.value, layers.code_names()) == \
        "quiver.from_structure_constants"
    err = pipeline.PipelineError("classify", "mode not admitted")
    assert bench.failure_stage(err, {}) == "classify"


def test_traced_run_reproduces_the_digests_and_restores(fixture_ops):
    ops = [fixture_ops["e0"], fixture_ops["e2"]]
    code_names = layers.code_names()
    plain = bench.run_pass(ops, code_names)
    original = pipeline.run_pipeline
    with layers.Tracer() as tracer:
        assert pipeline.run_pipeline is not original
        traced = bench.run_pass(ops, code_names, tracer)
        values = tracer.metrics()
    assert pipeline.run_pipeline is original
    assert plain.outcomes == traced.outcomes
    for key, outcome in plain.outcomes.items():
        assert outcome == EXPECTED["verify-fixtures"][key]
    assert tracer.spans["pipeline.run_pipeline"][0] == 2
    assert values["bocs.construct_bocs.calls"] == 2
    assert values["linalg.matmul.calls"] > 0
    modules_self = sum(values[f"{m}.self_s"] for m in layers.MODULES)
    assert 0 < modules_self <= traced.wall
    # linalg time moves to its calling layer; the total stays the same
    layer_total = sum(values[f"{m}.layer_s"] for m in layers.MODULES
                      if m != "linalg")
    assert layer_total == pytest.approx(modules_self)
    assert values["bocs.layer_s"] > values["bocs.self_s"]


def test_sampled_run_reproduces_the_digests_and_restores(fixture_ops):
    ops = [fixture_ops["e0"], fixture_ops["e2"]]
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        p = bench.run_pass(ops, layers.code_names(), sampler=sampler)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    for key, outcome in p.outcomes.items():
        assert outcome == EXPECTED["verify-fixtures"][key]
    # e2 takes about half a second: it was sampled many times
    assert len(sampler.probes) > speed.MIN_PROBES + 10
    # an op's measured time leaves out the probes run inside it
    probed = sum(sampler.probes[speed.MIN_PROBES:])
    assert p.wall - sum(p.raw.values()) == pytest.approx(probed, abs=0.02)
    assert all(0 < p.raw[key] < p.wall and p.times[key] > 0 for key in p.raw)


def test_speed_factor_scales_with_the_probe_time():
    sampler = speed.Sampler()
    sampler.probes = [speed.REFERENCE_S * 2] * 10
    assert sampler.factor(sampler.mark()) == pytest.approx(0.5)
    sampler.probes += [speed.REFERENCE_S / 2] * 10
    # a window shorter than MIN_PROBES takes the latest probes
    assert sampler.factor((0, 20)) == pytest.approx(2.0)
    assert sampler.factor((0, 0)) == pytest.approx(1.25)


def test_roundtrip_does_no_ainf_work():
    ops = bench.roundtrip_ops((0,))
    with layers.Tracer() as tracer:
        p = bench.run_pass(ops, layers.code_names(), tracer)
        values = tracer.metrics()
    assert p.outcomes == {"c00": EXPECTED["burt-butler-roundtrip"]["c00"]}
    assert values["ainf.build_tables.calls"] == 0
    assert values["resolution.hodge_data.calls"] == 0
    assert values["burt_butler.right_algebra.calls"] == 1
    assert values["bocs.dim_b"] > 0 and values["burt_butler.dim_r"] > 0


def test_benchmark_json_names_every_workload_and_metric():
    path = os.path.join(os.path.dirname(bench.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)


def test_expected_outcomes_cover_every_op():
    assert set(EXPECTED["verify-fixtures"]) == set(bench.FIXTURE_MODES)
    members = {f"c{k:02d}" for k in range(bench.CORPUS_SIZE)}
    assert set(EXPECTED["verify-corpus"]) == members
    assert set(EXPECTED["burt-butler-roundtrip"]) == members
    # the timed workloads run no op that is recorded as failing
    for k in bench.TIMED_MEMBERS:
        assert "sha256" in EXPECTED["verify-corpus"][f"c{k:02d}"]
    assert EXPECTED["verify-corpus"]["c09"] == {
        "error": "ValueError", "stage": "quiver.from_structure_constants"}
