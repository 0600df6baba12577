"""The bocses of the Auslander ladder pinned: for auslander(n), n = 2, 3,
4, in both modes with order [n, ..., 1] at r_max 3, the sha256 of the
canonical document of the bocs and validate_coalgebra's report.  They are
the largest B the tests build, so they guard the degree-1 word layer (d',
W, eps and mu) where the fixtures are too small to.
tests/data/ladder_bocs.json holds the recorded records;
`python tests/test_ladder.py` prints them in the same form.
"""

import hashlib
import json
import os
import sys

from bocskit import io as bio
from bocskit.bocs import construct_bocs, validate_coalgebra

from helpers import auslander

DATA = os.path.join(os.path.dirname(__file__), "data", "ladder_bocs.json")


def ladder_records():
    """{"auslander{n}-{mode}": {"sha256": ..., "report": ...}}."""
    out = {}
    for n in (2, 3, 4):
        for mode in ("pdelta", "delta"):
            bocs = construct_bocs(auslander(n), list(range(n, 0, -1)),
                                  mode=mode, r_max=3)
            text = bio.emit(bio.bocs_to_doc(bocs))
            out[f"auslander{n}-{mode}"] = {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "report": validate_coalgebra(bocs)}
    return out


def test_ladder_bocses_reproduce_their_recorded_documents_and_reports():
    with open(DATA, encoding="utf-8") as fh:
        want = json.load(fh)
    got = ladder_records()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    json.dump(ladder_records(), sys.stdout, indent=1, sort_keys=True)
    print()
