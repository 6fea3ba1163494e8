import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

from smoothcert.noise import NoiseStream, block_rows


def reference_rows(key, example_id, start, stop, dim):
    """Rows [start, stop) cut from whole blocks made by plain numpy calls;
    key is (run_seed, *substream tags)."""
    rows = block_rows(dim)
    blocks = [np.random.Generator(np.random.SFC64(np.random.SeedSequence(
                  np.array([*key, example_id, b], dtype=np.uint64).view(np.uint32))))
              .standard_normal((rows, dim))
              for b in range(start // rows, (stop - 1) // rows + 1)]
    offset = start // rows * rows
    return np.vstack(blocks)[start - offset:stop - offset]


class TestNoiseStream:
    def test_pure_function_of_counters(self):
        """Two streams with the same seed agree entry for entry."""
        a = NoiseStream(1234).standard_normals(5, 0, 64, 3)
        b = NoiseStream(1234).standard_normals(5, 0, 64, 3)
        assert np.array_equal(a, b)

    def test_seed_and_example_sensitivity(self):
        base = NoiseStream(1).standard_normals(0, 0, 32, 2)
        assert not np.array_equal(base, NoiseStream(2).standard_normals(0, 0, 32, 2))
        assert not np.array_equal(base, NoiseStream(1).standard_normals(1, 0, 32, 2))

    def test_slices_are_order_independent(self):
        """Any block equals the concatenation of its sub-blocks."""
        stream = NoiseStream(99)
        whole = stream.standard_normals(3, 0, 100, 4)
        parts = np.vstack([stream.standard_normals(3, 0, 37, 4),
                           stream.standard_normals(3, 37, 80, 4),
                           stream.standard_normals(3, 80, 100, 4)])
        assert np.array_equal(whole, parts)

    def test_matches_reference_expression_at_d784(self):
        """Prefix-filled blocks equal whole blocks from the plain expression,
        bit for bit, also from a start inside a block and across block edges."""
        stream = NoiseStream(31)
        assert block_rows(784) == 83
        assert np.array_equal(stream.standard_normals(2, 50, 250, 784),
                              reference_rows((31,), 2, 50, 250, 784))

    def test_slices_match_any_larger_request(self):
        """A slice equals the same rows of any larger request at fixed d,
        including single rows, starts inside a block and spans that cross
        block edges."""
        for dim, stop in [(2, 3 * block_rows(2) + 10), (784, 400)]:
            rows = block_rows(dim)
            stream = NoiseStream(5)
            whole = stream.standard_normals(8, 0, stop, dim)
            for start, end in [(0, 1), (rows - 1, rows), (1, rows), (rows // 2, rows + 3),
                               (rows - 1, 2 * rows + 1), (rows, 3 * rows), (100, stop)]:
                assert np.array_equal(stream.standard_normals(8, start, end, dim),
                                      whole[start:end])

    def test_keys_do_not_alias(self):
        """Fixed-width keys: with variable-width int keys, (seed 2**32, example 5,
        block 0) and (seed 0, example 1, block 5) would seed the same generator."""
        rows = block_rows(784)
        a = NoiseStream(2**32).standard_normals(5, 0, rows, 784)
        b = NoiseStream(0).standard_normals(1, 5 * rows, 6 * rows, 784)
        assert not np.array_equal(a, b)

    def test_kolmogorov_smirnov_against_ndtr(self):
        """10^6 deviates spread over 16 blocks pass a KS test against Phi."""
        z = NoiseStream(77).standard_normals(3, 0, 1276, 784).ravel()
        assert z.size > 1_000_000
        assert kstest(z, ndtr).pvalue > 1e-3

    def test_neighbouring_blocks_and_examples_uncorrelated(self):
        """Correlation within 5 standard errors between adjacent blocks of one
        example and between the same block of adjacent examples."""
        rows = block_rows(784)
        stream = NoiseStream(13)
        blocks = [stream.standard_normals(4, b * rows, (b + 1) * rows, 784).ravel()
                  for b in range(6)]
        others = [stream.standard_normals(e, 0, rows, 784).ravel() for e in range(6)]
        bound = 5.0 / np.sqrt(blocks[0].size)
        for seq in (blocks, others):
            for u, v in zip(seq[:-1], seq[1:]):
                assert abs(np.corrcoef(u, v)[0, 1]) < bound

    def test_deviates_look_standard_normal(self):
        """Loose moment checks on 2e5 deviates (fixed seed)."""
        z = NoiseStream(2024).standard_normals(0, 0, 100_000, 2).ravel()
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs(np.mean(z < 0.0) - 0.5) < 0.005
        assert np.all(np.isfinite(z))

    def test_seeds_outside_range_rejected(self):
        """A seed is an integer in [0, 2^64); -1 and 2^64 + 5 were folded
        modulo 2^64 into seeds 2^64 - 1 and 5."""
        for seed in (-1, 2**64, 2**64 + 5, -2**64, True, 1.0, "3"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                NoiseStream(seed)
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert NoiseStream(seed).standard_normals(0, 0, 4, 1).shape == (4, 1)

    def test_substream_is_distinct(self):
        """A substream's draws differ from its parent's at every example."""
        stream = NoiseStream(42)
        derived = stream.substream(1)
        for example in range(4):
            assert not np.array_equal(stream.standard_normals(example, 0, 16, 2),
                                      derived.standard_normals(example, 0, 16, 2))

    def test_substream_keys_extend_the_root_key(self):
        """Substream tags extend the block key: the draws of seed 7's tag-3
        substream, and of its tag-9 child, are the plain expression's blocks
        keyed (7, 3, e, b) and (7, 3, 9, e, b)."""
        child = NoiseStream(7).substream(3)
        assert np.array_equal(child.standard_normals(2, 50, 250, 784),
                              reference_rows((7, 3), 2, 50, 250, 784))
        assert np.array_equal(child.substream(9).standard_normals(0, 0, 90, 784),
                              reference_rows((7, 3, 9), 0, 0, 90, 784))

    def test_substreams_differ_from_root_and_siblings(self):
        """At the same (example, rows), across a block edge, the root, two
        sibling substreams and a grandchild all draw differently; so do the
        first blocks of a substream tagged 5 at example 1 and of the root at
        example 5, keyed (3, 5, 1, 0) and (3, 5, 0)."""
        root = NoiseStream(3)
        streams = [root, root.substream(1), root.substream(2), root.substream(1).substream(2)]
        rows = block_rows(784)
        for example in (0, 5):
            draws = [s.standard_normals(example, rows - 3, rows + 3, 784) for s in streams]
            for i in range(len(draws)):
                for j in range(i):
                    assert not np.array_equal(draws[i], draws[j])
        assert not np.array_equal(root.substream(5).standard_normals(1, 0, rows, 784),
                                  root.standard_normals(5, 0, rows, 784))

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            NoiseStream(0).standard_normals(0, 5, 4, 2)
        with pytest.raises(ValueError):
            NoiseStream(0).standard_normals(0, 0, 4, 0)
