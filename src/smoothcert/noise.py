"""Counter-keyed Gaussian noise stream for replayable Monte Carlo sampling.

Each example's draws are cut into blocks of ``block_rows(dim)`` rows.  Block b
of example e under run seed s is filled by its own SFC64 generator, seeded
from the fixed-width key (s, e, b), with numpy's ziggurat ``standard_normal``.
A deviate is therefore a pure function of (run_seed, example_id, sample_index,
coordinate, dim): any slice of the stream can be produced in any order, on any
number of workers, with bit-identical results for a given numpy version.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
# Most deviates one block holds (512 KiB of float64): a block of noise and its
# scratch copies stay in a core's L2 cache, and memory stays flat in batch size
# and dimension.
BLOCK_DEVIATES = 1 << 16


def block_rows(dim: int) -> int:
    """Rows per generator block at dimension dim; part of the stream's definition."""
    return max(1, BLOCK_DEVIATES // dim)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: bijective on uint64 with full avalanche."""
    z = (z ^ (z >> np.uint64(30))) * _MUL1
    z = (z ^ (z >> np.uint64(27))) * _MUL2
    return z ^ (z >> np.uint64(31))


def _absorb(state: np.ndarray, word: np.ndarray) -> np.ndarray:
    return _mix64(state + _GOLDEN + word)


class NoiseStream:
    """Replayable source of standard normal deviates keyed by counters."""

    def __init__(self, run_seed: int):
        self.run_seed = int(run_seed) & _MASK
        with np.errstate(over="ignore"):
            self._root = _absorb(np.uint64(0), np.uint64(self.run_seed))

    def standard_normals(self, example_id: int, start: int, stop: int, dim: int) -> np.ndarray:
        """Array of shape (stop - start, dim) of N(0, 1) deviates.

        Deviate (i, j) depends only on (run_seed, example_id, start + i, j, dim).
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
            # six fixed 32-bit words: SeedSequence drops high zero words of
            # each int, so variable-width keys like [2**32, 5, 0] and
            # [0, 1, 5] would seed the same generator
            key = np.array([self.run_seed, int(example_id) & _MASK, block],
                           dtype=np.uint64).view(np.uint32)
            gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))
            if skip:
                gen.standard_normal(skip * dim)  # the block's rows before start
            gen.standard_normal(out=out[row - start:end - start])
            row = end
        return out

    def substream(self, tag: int) -> "NoiseStream":
        """Independent stream derived from this one; used to keep sampling
        domains (e.g. an attack's gradient noise vs. its evaluation noise)
        disjoint under a single user-facing seed."""
        with np.errstate(over="ignore"):
            derived = int(_absorb(self._root, np.uint64(int(tag) & _MASK)))
        return NoiseStream(derived)
