"""Run one workload of the bocskit benchmark and print its result.

    python3 perfbench/run.py --workload verify-fixtures --seed 1 \\
        --seconds 30 --trace 0

Sets up the workload's inputs (several times, reporting the median),
then runs passes over its ops for about --seconds and checks every
report against expected.json.  With --trace 0 the metrics are the
end-to-end ones, their times corrected for the processor's speed (see
speed.py); with --trace 1 the passes run under a Tracer and the metrics
are the per-layer ones.  Lines before the last describe the
run; the last line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import layers
import speed


def _print_passes(passes):
    """Each op of the first pass, and every failure of the run."""
    p = passes[0]
    for key in sorted(p.times):
        print(f"  op {key}: {p.times[key]:.3f} s (measured {p.raw[key]:.3f}"
              f" s)  {p.outcomes[key]}")
    for q in passes:
        for key, message in sorted(q.errors.items()):
            print(f"  failed {key}: {q.outcomes[key]} {message}")
    for key in sorted(p.op_layers):
        spans = p.op_layers[key]
        mods = sorted(layers.MODULES, key=lambda m: -spans[f"{m}.self_s"])
        deep = spans["ainf.layer_s"] + spans["resolution.layer_s"]
        print(f"  trace {key}: build_tables "
              f"{spans['ainf.build_tables.s'] / p.times[key]:.0%} and "
              f"ainf+resolution layers {deep / p.times[key]:.0%} of op; "
              "self " + ", ".join(f"{m} {spans[m + '.self_s']:.3f} s"
                                  for m in mods[:3]))


def main(argv=None):
    try:
        import bench
        bench.check_sources()
    except ImportError as exc:
        print(f"perfbench: cannot load bocskit from src/: {exc}",
              file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    expected = bench.load_expected()[args.workload]
    if args.trace:
        ops, setup_times = bench.setup_ops(args.workload), []
        with layers.Tracer() as tracer:
            passes, layer_values = bench.measure(ops, args.seconds,
                                                 args.seed, tracer)
        values = bench.per_layer(layer_values)
        units = dict(layers.PER_LAYER)
    else:
        with speed.Sampler() as sampler:
            ops, setup_times = bench.timed_setup(args.workload, sampler)
            passes, _ = bench.measure(ops, args.seconds, args.seed,
                                      sampler=sampler)
        values = bench.end_to_end(passes, setup_times)
        units = dict(bench.END_TO_END)
    attempted, failed, wrong, mismatched = bench.tally(passes, expected)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"nproc {os.cpu_count()} python {platform.python_version()}")
    print(f"ops {len(ops)} passes {len(passes)} setups {len(setup_times)} "
          f"input_digest {bench.input_digest(passes[0].order)}")
    print(f"fail_share {failed}/{attempted} wrong_share {wrong}/{attempted}"
          f" mismatched {sorted(set(mismatched))}")
    print("pass_s as measured: "
          f"{statistics.median(sum(p.raw.values()) for p in passes):.4f}")
    _print_passes(passes)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
