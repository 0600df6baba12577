"""A pinned slice of the random sweep: every member of random_corpus(1,
count=30, max_vertices=3, max_dim=8, require_bocs=False) verified in both
modes at r_max 3, and its pdelta bocs rebuilt from its document and run
through roundtrip_bocs.  An outcome is the sha256 of the canonical report
on a pass, and otherwise the exception class, its stage (for a
PipelineError) and its message.  tests/data/sweep_seed1.json holds the
recorded outcomes; `python tests/test_sweep.py SEED` prints the outcomes of
another seed in the same form.
"""

import hashlib
import json
import os
import sys

from bocskit import io as bio
from bocskit.bocs import construct_bocs
from bocskit.corpus import random_corpus
from bocskit.pipeline import roundtrip_bocs, run_pipeline

DATA = os.path.join(os.path.dirname(__file__), "data", "sweep_seed1.json")


def _outcome(fn, *args, **kwargs):
    try:
        text = fn(*args, **kwargs).emit()
    except Exception as exc:  # every failure is an outcome of the member
        return {"error": type(exc).__name__,
                "stage": getattr(exc, "stage", None), "message": str(exc)}
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def _roundtrip(alg, order):
    bocs = construct_bocs(alg, order, mode="pdelta", r_max=3)
    text = bio.emit(bio.bocs_to_doc(bocs))
    return roundtrip_bocs(bio.parse(text).build())


def sweep_outcomes(seed):
    """{member key: {run: outcome}} for the members of the seed's slice."""
    corpus = random_corpus(seed, count=30, max_vertices=3, max_dim=8,
                           require_bocs=False)
    out = {}
    for k, (alg, order, _) in enumerate(corpus):
        runs = {mode: _outcome(run_pipeline, alg, order, mode=mode,
                               config={"r_max": 3})
                for mode in ("pdelta", "delta")}
        runs["roundtrip"] = _outcome(_roundtrip, alg, order)
        out[f"s{k:02d}"] = runs
    return out


def test_seed_1_sweep_reproduces_its_recorded_outcomes():
    with open(DATA, encoding="utf-8") as fh:
        want = json.load(fh)
    got = sweep_outcomes(1)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    json.dump(sweep_outcomes(int(sys.argv[1])), sys.stdout, indent=1,
              sort_keys=True)
    print()
