"""Run every op of every workload once on the full inputs; check outcomes.

    python3 perfbench/audit.py [--write]

The timed workloads run a part of the corpus (bench.TIMED_MEMBERS); the
audit runs all bench.CORPUS_SIZE members, including those whose ops fail
or take too long for a timed run, and prints each workload's fail_share
and wrong_share with every failure and its stage.  --write records the
outcomes as expected.json instead of checking them.  It exits 1 when an
outcome differs from the record.
"""

from __future__ import annotations

import argparse
import json
import sys

import bench
import layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    bench.check_sources()

    expected = {} if args.write else bench.load_expected()
    code_names = layers.code_names()
    recorded, mismatches = {}, 0
    for workload in bench.WORKLOADS:
        ops = bench.setup_ops(workload, full=True)
        p = bench.run_pass(ops, code_names)
        recorded[workload] = p.outcomes
        attempted, failed, wrong, mismatched = bench.tally(
            [p], p.outcomes if args.write else expected[workload])
        mismatches += len(mismatched)
        print(f"{workload}: wall {p.wall:.2f} s, fail_share "
              f"{failed}/{attempted}, wrong_share {wrong}/{attempted}, "
              f"mismatched {mismatched}")
        for op in ops:
            line = f"  {op.key}: {p.times[op.key]:.3f} s {p.outcomes[op.key]}"
            if op.key in p.errors:
                line += f" {p.errors[op.key]}"
            print(line)
    if args.write:
        with open(bench.EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
