"""Counter-keyed Gaussian noise stream for replayable Monte Carlo sampling.

A stream's key is its run seed, an integer in [0, 2^64), then the tags of the
substreams that led to it.  Each example's draws are cut into blocks of
``block_rows(dim)`` rows; block b of example e is filled by its own SFC64
generator, seeded from the fixed-width words (*key, e, b), with numpy's ziggurat
``standard_normal``.  A deviate is thus a pure function of (key, example_id,
sample_index, coordinate, dim): any slice of the stream can be produced in any
order, on any number of workers, bit-identically for a given numpy version.
"""

from __future__ import annotations

import numpy as np

# Most deviates one block holds (512 KiB of float64): a block of noise and its
# scratch copies stay in a core's L2 cache, and memory stays flat in batch size
# and dimension.
BLOCK_DEVIATES = 1 << 16


def block_rows(dim: int) -> int:
    """Rows per generator block at dimension dim; part of the stream's definition."""
    return max(1, BLOCK_DEVIATES // dim)


def is_seed(seed) -> bool:
    """The seed rule: a run seed is an integer in [0, 2^64); no other is folded into it."""
    return isinstance(seed, (int, np.integer)) and type(seed) is not bool and 0 <= seed < 2**64


class NoiseStream:
    """Replayable source of standard normal deviates keyed by counters."""

    def __init__(self, run_seed: int):
        if not is_seed(run_seed):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {run_seed!r}")
        self.key = (int(run_seed),)

    def standard_normals(self, example_id: int, start: int, stop: int, dim: int) -> np.ndarray:
        """Array of shape (stop - start, dim) of N(0, 1) deviates.

        Deviate (i, j) depends only on (key, example_id, start + i, j, dim).
        A block's rows are generated in order, so a request fills each block
        it touches from the block's first row up to stop; callers whose
        requests start on block edges generate no row twice.
        """
        if start < 0 or stop < start or dim < 1:
            raise ValueError("need 0 <= start <= stop and dim >= 1")
        rows = block_rows(dim)
        out = np.empty((stop - start, dim))
        row = start
        while row < stop:
            block, skip = divmod(row, rows)
            end = min(stop, (block + 1) * rows)
            # two 32-bit words per number: SeedSequence drops high zero words
            # of each int, so variable-width keys like [2**32, 5, 0] and
            # [0, 1, 5] would seed the same generator
            key = np.array([*self.key, example_id, block], dtype=np.uint64).view(np.uint32)
            gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))
            if skip:
                gen.standard_normal(skip * dim)  # the block's rows before start
            gen.standard_normal(out=out[row - start:end - start])
            row = end
        return out

    def substream(self, tag: int) -> "NoiseStream":
        """The stream keyed by this key and then tag, two words longer, so that
        sampling domains (e.g. an attack's gradient noise vs. its evaluation
        noise) stay disjoint under a single user-facing seed."""
        derived = NoiseStream(self.key[0])
        derived.key = (*self.key, tag)
        return derived
