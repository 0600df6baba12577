import pytest

from bocskit.bocs import construct_bocs
from bocskit.burt_butler import right_algebra
from bocskit.corpus import random_corpus
from bocskit.quiver import (example_a2, example_dual_numbers,
                            example_jordan3, example_semisimple_pair)


@pytest.fixture(scope="session")
def mixed_algebras():
    """e0-e3, six generated algebras, and the right algebra R of e1, whose
    basis comes from a raw structure table (from_structure_constants)."""
    algs = [example_semisimple_pair(), example_dual_numbers(), example_a2(),
            example_jordan3()]
    algs += [alg for alg, _, _ in random_corpus(
        20260823, count=6, max_dim=5, require_bocs=False)]
    bocs = construct_bocs(example_dual_numbers(), mode="pdelta", r_max=5)
    algs.append(right_algebra(bocs).R)
    return algs
