import numpy as np
import pytest
from scipy.special import ndtri

from smoothcert.noise import NoiseStream


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
        """The in-buffer conversion equals the plain expression bit for bit."""
        stream = NoiseStream(31)
        bits = stream.uniform_bits(2, 50, 250, 784)
        expected = ndtri(((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)
        assert np.array_equal(stream.standard_normals(2, 50, 250, 784), expected)

    def test_scalar_access_matches_block(self):
        stream = NoiseStream(7)
        block = stream.standard_normals(11, 0, 8, 5)
        assert stream.normal(11, 3, 2) == block[3, 2]
        assert stream.normal(11, 0, 4) == block[0, 4]

    def test_deviates_look_standard_normal(self):
        """Loose moment checks on 2e5 deviates (fixed seed)."""
        z = NoiseStream(2024).standard_normals(0, 0, 100_000, 2).ravel()
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs(np.mean(z < 0.0) - 0.5) < 0.005
        assert np.all(np.isfinite(z))

    def test_negative_and_large_seeds_accepted(self):
        assert NoiseStream(-1).standard_normals(0, 0, 4, 1).shape == (4, 1)
        assert NoiseStream(2**64 + 5).run_seed == 5

    def test_substream_is_distinct(self):
        stream = NoiseStream(42)
        derived = stream.substream(1)
        assert derived.run_seed != stream.run_seed
        assert not np.array_equal(stream.standard_normals(0, 0, 16, 2),
                                  derived.standard_normals(0, 0, 16, 2))

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            NoiseStream(0).standard_normals(0, 5, 4, 2)
        with pytest.raises(ValueError):
            NoiseStream(0).standard_normals(0, 0, 4, 0)
