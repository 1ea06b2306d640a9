"""Deterministic substream derivation for reproducible parallel sampling.

Every random draw in this package is addressed by an integer path under a
single 64-bit master seed.  A path maps to an independent counter-based
(Philox) generator, so any partition of work across workers consumes
identical values for the same logical index, and serial and parallel runs
agree bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

#: Number of logical draws per substream chunk used by the chunked samplers.
#: A chunk is the unit of addressing: chunk ``k`` has its own substream.
CHUNK_SIZE = 1 << 16

#: Entries every streaming loop holds at once (drawn pairs, sorted sums,
#: CSV rows).  A block is the unit of working set, not of addressing: a
#: chunk is drawn from its one substream in consecutive blocks, which
#: consume the generator exactly as one whole-chunk draw would.
BLOCK_SIZE = 1 << 12


def substream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for the substream addressed by ``path``.

    The same (seed, path) always yields the same stream, and distinct paths
    yield statistically independent streams.
    """
    ss = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *path: int) -> int:
    """64-bit child seed for the substream addressed by ``path``.

    Useful when a component (e.g. a sweep row) needs its own seed that it
    can further partition into chunks.
    """
    ss = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])
