"""Counter-based Gaussian noise stream for replayable Monte Carlo sampling.

Each standard normal deviate is a pure function of the tuple
(run_seed, example_id, sample_index, coordinate): 64-bit mixing of the
counters yields uniform bits, which are mapped through the inverse normal
CDF.  Because no generator state is advanced, any slice of the stream can be
produced in any order, on any number of workers, with bit-identical results.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


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

    def uniform_bits(self, example_id: int, start: int, stop: int, dim: int) -> np.ndarray:
        """Mixed 64-bit words for sample indices [start, stop) x coordinates [0, dim)."""
        if start < 0 or stop < start or dim < 1:
            raise ValueError("need 0 <= start <= stop and dim >= 1")
        samples = np.arange(start, stop, dtype=np.uint64)
        coords = np.arange(dim, dtype=np.uint64)
        with np.errstate(over="ignore"):
            h = _absorb(self._root, np.uint64(int(example_id) & _MASK))
            h = _absorb(h, samples)
            return _absorb(h[:, None], coords[None, :])

    def standard_normals(self, example_id: int, start: int, stop: int, dim: int) -> np.ndarray:
        """Array of shape (stop - start, dim) of N(0, 1) deviates.

        Deviate (i, j) depends only on (run_seed, example_id, start + i, j).
        """
        bits = self.uniform_bits(example_id, start, stop, dim)
        # 53-bit mantissa, centered half a step away from 0 and 1, so u lies
        # in (0, 1) and needs no domain check before the quantile
        u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)
        return ndtri(u)

    def normal(self, example_id: int, sample_index: int, coordinate: int) -> float:
        """Single deviate; equals the matching entry of any block containing it."""
        block = self.standard_normals(example_id, sample_index, sample_index + 1, coordinate + 1)
        return float(block[0, coordinate])

    def substream(self, tag: int) -> "NoiseStream":
        """Independent stream derived from this one; used to keep sampling
        domains (e.g. an attack's gradient noise vs. its evaluation noise)
        disjoint under a single user-facing seed."""
        with np.errstate(over="ignore"):
            derived = int(_absorb(self._root, np.uint64(int(tag) & _MASK)))
        return NoiseStream(derived)
