"""Deterministic substream derivation for reproducible parallel sampling.

Every random draw in this package is addressed by an integer path under a
single master seed in [0, MAX_SEED]; any other seed raises ValueError.  A
path maps to an independent counter-based (Philox) generator, so any
partition of work across workers consumes identical values for the same
logical index, and serial and parallel runs agree bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "derive_seed"]

#: Largest master seed: a seed is an unsigned 64-bit integer.
MAX_SEED = (1 << 64) - 1

#: Entries every streaming loop holds at once (drawn pairs, sorted sums,
#: CSV rows).  A block is the unit of working set, not of addressing: the
#: pairs of a seed are drawn from its one substream in consecutive blocks,
#: which consume the generator exactly as one whole draw would.
BLOCK_SIZE = 1 << 12


def substream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for the substream addressed by ``path``.

    The same (seed, path) always yields the same stream, and distinct paths
    yield statistically independent streams.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def derive_seed(seed: int, *path: int) -> int:
    """64-bit child seed for the substream addressed by ``path``.

    Useful when a component needs a master seed of its own for a further
    tree of substreams.
    """
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])


def _seed_sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    """The seed sequence of (seed, path); the one check of the seed."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64 - 1], got {seed}")
    return np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
