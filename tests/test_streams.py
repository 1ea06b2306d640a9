import numpy as np
import pytest

import swmac.streams
from swmac.outage import CHUNK_SIZE
from swmac.streams import BLOCK_SIZE, MAX_SEED, derive_seed, substream


def test_same_path_same_stream():
    a = substream(42, 1, 2, 3).random(8)
    b = substream(42, 1, 2, 3).random(8)
    np.testing.assert_array_equal(a, b)


def test_different_paths_differ():
    a = substream(42, 0).random(8)
    b = substream(42, 1).random(8)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = substream(1, 0).random(8)
    b = substream(2, 0).random(8)
    assert not np.array_equal(a, b)


def test_derive_seed_stable_and_path_sensitive():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert 0 <= derive_seed(7, 1, 2) < 2**64


@pytest.mark.parametrize("seed", [-5, 2**64])  # would alias 2**64 - 5 and 0
@pytest.mark.parametrize("derive", [substream, derive_seed])
def test_a_seed_outside_64_bits_is_rejected(derive, seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64 - 1\]"):
        derive(seed, 0)


def test_the_largest_seed_still_draws():
    assert MAX_SEED == 2**64 - 1
    assert substream(MAX_SEED, 3).random(4).shape == (4,)
    assert not np.array_equal(substream(MAX_SEED).random(4), substream(0).random(4))
    assert 0 <= derive_seed(MAX_SEED, 3) < 2**64


def test_chunk_size_is_positive_power_of_two():
    # CHUNK_SIZE is the Monte Carlo work per pool task, not an address of
    # any draw: it lives beside the evaluator that plans the tasks
    assert CHUNK_SIZE > 0 and CHUNK_SIZE & (CHUNK_SIZE - 1) == 0
    assert not hasattr(swmac.streams, "CHUNK_SIZE")


def test_block_size_is_a_power_of_two_dividing_the_chunk_size():
    # a task's work is a whole number of blocks of pairs
    assert BLOCK_SIZE > 0 and BLOCK_SIZE & (BLOCK_SIZE - 1) == 0
    assert CHUNK_SIZE % BLOCK_SIZE == 0
