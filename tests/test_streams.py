import numpy as np

from swmac.streams import BLOCK_SIZE, CHUNK_SIZE, derive_seed, substream


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


def test_seed_is_masked_to_64_bits():
    a = substream(2**64 + 5).random(4)
    b = substream(5).random(4)
    np.testing.assert_array_equal(a, b)


def test_chunk_size_is_positive_power_of_two():
    assert CHUNK_SIZE > 0 and CHUNK_SIZE & (CHUNK_SIZE - 1) == 0


def test_block_size_is_a_power_of_two_dividing_the_chunk_size():
    assert BLOCK_SIZE > 0 and BLOCK_SIZE & (BLOCK_SIZE - 1) == 0
    assert CHUNK_SIZE % BLOCK_SIZE == 0
