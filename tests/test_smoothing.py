import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothcert.bounds import max_certifiable_radius
from smoothcert.noise import NoiseStream
from smoothcert.oracles import ConstantClassifier, LinearModel
from smoothcert.smoothing import (BLOCK_DEVIATES, ClassCounts, SmoothingParams, certify,
                                  decide_certification, decide_prediction, predict,
                                  project_counts, sample_under_noise)

PHI_06 = 0.7257468822499265  # Phi(0.6), reference oracle


def counts_of(*values):
    return ClassCounts(np.asarray(values, dtype=np.int64))


class TestClassCounts:
    def test_total_and_access(self):
        c = counts_of(3, 9, 1)
        assert c.total == 13
        assert c[1] == 9

    def test_top_two_with_tie(self):
        """Ties resolve to the lowest label index."""
        assert counts_of(5, 5, 2).top_two() == (0, 1)
        assert counts_of(2, 7, 7).top_two() == (1, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            counts_of(3, -1)


class TestSampleUnderNoise:
    def test_constant_classifier(self):
        counts = sample_under_noise(ConstantClassifier(1), np.zeros(2), 1000, 1.0,
                                    NoiseStream(0), example_id=0)
        assert counts[1] == 1000 and counts.total == 1000

    def test_boundary_halfspace_splits_evenly(self):
        """A point on the decision boundary sends half the mass each way."""
        model = LinearModel([1.0, 0.0], 0.0)
        counts = sample_under_noise(model, np.zeros(2), 100_000, 1.0,
                                    NoiseStream(3), example_id=0)
        stderr = math.sqrt(0.25 / 100_000)
        assert abs(counts[1] / counts.total - 0.5) < 3 * stderr

    def test_matches_exact_smoothed_probability(self):
        """Positive-class rate near Phi(0.6) for the offset halfspace."""
        model = LinearModel([1.0, 0.0], 0.0)
        counts = sample_under_noise(model, np.array([0.6, 0.0]), 100_000, 1.0,
                                    NoiseStream(11), example_id=4)
        stderr = math.sqrt(PHI_06 * (1 - PHI_06) / 100_000)
        assert abs(counts[1] / counts.total - PHI_06) < 3 * stderr

    def test_deterministic_across_batching_and_workers(self):
        """Identical counts for any batch size and parallelism degree, also at
        d=784, where BLOCK_DEVIATES cuts every batch above 83 rows short."""
        rng = np.random.default_rng(5)
        cases = [(LinearModel([1.0, -0.5], 0.2), np.array([0.3, 0.1]), 5000,
                  [(1, 1), (7, 1), (5000, 1), (250, 4), (333, 8)]),
                 (LinearModel(rng.normal(size=784), 0.1), 0.01 * rng.normal(size=784), 1000,
                  [(b, w) for b in (1, 83, 84, 1000, 5000) for w in (1, 3)])]
        for model, x, num, settings in cases:
            reference_counts = sample_under_noise(model, x, num, 0.7, NoiseStream(21),
                                                  example_id=9, batch_size=1000)
            assert reference_counts.counts.min() > 0  # both labels occur
            for batch_size, workers in settings:
                counts = sample_under_noise(model, x, num, 0.7, NoiseStream(21),
                                            example_id=9, batch_size=batch_size,
                                            parallelism=workers)
                assert np.array_equal(counts.counts, reference_counts.counts)

    def test_rows_per_call_capped_by_batch_size_and_block(self):
        """batch_size bounds the rows of each classifier call; a block also
        holds at most BLOCK_DEVIATES deviates."""
        class RowRecorder(LinearModel):
            def classify_batch(self, xs):
                rows.append(len(xs))
                return super().classify_batch(xs)

        for dim, batch_size, expected in [(2, 1000, 1000), (784, 5000, 83), (784, 50, 50),
                                          (BLOCK_DEVIATES + 1, 10, 1)]:
            rows = []
            sample_under_noise(RowRecorder(np.ones(dim), 0.0), np.zeros(dim), 2 * expected,
                               1.0, NoiseStream(0), example_id=0, batch_size=batch_size)
            assert rows == [expected, expected]

    def test_memory_flat_in_batch_size(self):
        """Two workers at d=784 and batch_size 5000 stay under 8 MB: each
        holds a block of at most BLOCK_DEVIATES deviates, not batch_size rows."""
        rng = np.random.default_rng(3)
        model = LinearModel(rng.normal(size=784), 0.0)
        x = rng.normal(size=784)
        tracemalloc.start()
        try:
            sample_under_noise(model, x, 10_000, 0.5, NoiseStream(0), example_id=0,
                               batch_size=5000, parallelism=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_under_noise(ConstantClassifier(0), np.zeros(2), 0, 1.0,
                               NoiseStream(0), example_id=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sample_under_noise(LinearModel([1.0, 1.0], 0.0), np.array([0.5, bad]), 10,
                               1.0, NoiseStream(0), example_id=0)


class TestDecidePrediction:
    def test_lopsided_counts_return_label(self):
        assert decide_prediction(counts_of(99, 1), 0.001).label == 0

    def test_tied_counts_abstain(self):
        assert decide_prediction(counts_of(50, 50), 0.001).abstained

    def test_abstention_monotone_in_alpha(self):
        """Shrinking alpha can only turn a label into an abstention."""
        for counts in [counts_of(60, 40), counts_of(57, 43), counts_of(530, 470)]:
            previous_label = None
            for alpha in [0.5, 0.2, 0.05, 0.01, 0.001, 1e-6]:
                outcome = decide_prediction(counts, alpha)
                if outcome.abstained:
                    previous_label = "abstained"
                else:
                    assert previous_label != "abstained"
                    previous_label = outcome.label


class TestPredict:
    def test_constant_classifier(self):
        params = SmoothingParams(sigma=1.0, n=200, alpha=0.001)
        outcome = predict(ConstantClassifier(1), params, np.zeros(2), NoiseStream(5), 0)
        assert outcome.label == 1

    def test_fair_coin_abstains(self):
        """A boundary point is a fair coin; predict abstains."""
        model = LinearModel([1.0, 0.0], 0.0)
        params = SmoothingParams(sigma=1.0, n=10_000, alpha=0.001)
        for run in range(5):
            outcome = predict(model, params, np.zeros(2), NoiseStream(100 + run), 0)
            assert outcome.abstained

    def test_agrees_with_linear_base_label(self):
        """Off-boundary, predict returns the base label or abstains."""
        model = LinearModel([2.0, -1.0], 0.3)
        params = SmoothingParams(sigma=0.5, n=2000, alpha=0.01)
        rng = np.random.default_rng(8)
        opposite = 0
        for i in range(20):
            x = rng.normal(0.0, 1.5, size=2)
            if abs(model.margin(x)) < 0.05:
                continue
            outcome = predict(model, params, x, NoiseStream(77), example_id=i)
            if not outcome.abstained and outcome.label != model.classify(x):
                opposite += 1
        assert opposite == 0


class TestCertify:
    def test_constant_classifier_closed_form(self):
        """All n successes: pa = alpha^(1/n), radius = sigma Phi^-1(alpha^(1/n))."""
        params = SmoothingParams(sigma=1.0, n0=100, n=100, alpha=0.001)
        cert = certify(ConstantClassifier(0), params, np.zeros(2), NoiseStream(1), 0)
        assert cert.label == 0
        assert cert.pa_lower == pytest.approx(0.001 ** 0.01, abs=1e-9)
        assert cert.radius == pytest.approx(1.5004750241206364, abs=1e-6)

    def test_fair_coin_abstains(self):
        model = LinearModel([1.0, 0.0], 0.0)
        params = SmoothingParams(sigma=1.0, n0=100, n=100_000, alpha=0.001)
        for run in range(20):
            cert = certify(model, params, np.zeros(2), NoiseStream(run), 0)
            assert cert.abstained

    def test_radius_ceiling(self):
        """No certificate can exceed sigma Phi^-1(alpha^(1/n))."""
        model = LinearModel([1.0, 0.0], 0.0)
        params = SmoothingParams(sigma=0.7, n0=50, n=500, alpha=0.01)
        ceiling = max_certifiable_radius(500, 0.01, 0.7)
        for i, shift in enumerate([0.2, 0.5, 1.0, 3.0, 10.0]):
            cert = certify(model, params, np.array([shift, 0.0]), NoiseStream(55), i)
            if not cert.abstained:
                assert cert.radius <= ceiling + 1e-12

    def test_estimation_batch_is_disjoint_from_selection(self):
        """Certify consumes stream counters [0, n0) then [n0, n0 + n)."""
        model = LinearModel([1.0, 0.0], 0.0)
        params = SmoothingParams(sigma=1.0, n0=40, n=160, alpha=0.05)
        x = np.array([0.6, 0.0])
        cert = certify(model, params, x, NoiseStream(13), 3)
        manual0 = sample_under_noise(model, x, 40, 1.0, NoiseStream(13), 3)
        manual = sample_under_noise(model, x, 160, 1.0, NoiseStream(13), 3, start=40)
        assert cert.guess == manual0.top_two()[0]
        assert np.array_equal(cert.counts.counts, manual.counts)
        redecided = decide_certification(cert.guess, manual, 0.05, 1.0)
        assert redecided == cert

    def test_bit_identical_reruns(self):
        model = LinearModel([1.0, 2.0], -0.4)
        params = SmoothingParams(sigma=0.8, n0=30, n=300, alpha=0.01)
        x = np.array([0.5, 0.4])
        first = certify(model, params, x, NoiseStream(77), 5, parallelism=1)
        second = certify(model, params, x, NoiseStream(77), 5, parallelism=4)
        assert first == second
        assert np.array_equal(first.counts.counts, second.counts.counts)


class TestProjectCounts:
    def test_exact_proportional_scaling(self):
        projected = project_counts(counts_of(93, 7), 1000)
        assert list(projected.counts) == [930, 70]

    def test_single_class(self):
        assert list(project_counts(counts_of(100), 10).counts) == [10]

    def test_residue_goes_to_top_class(self):
        projected = project_counts(counts_of(2, 1), 100)
        assert list(projected.counts) == [67, 33]

    def test_identity_projection(self):
        original = counts_of(880, 115, 5)
        assert np.array_equal(project_counts(original, 1000).counts, original.counts)

    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_totals_always_match(self, raw, n_new):
        if sum(raw) == 0:
            raw[0] = 1
        projected = project_counts(counts_of(*raw), n_new)
        assert projected.total == n_new
        assert np.all(projected.counts >= 0)


class TestSmoothingParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothingParams(sigma=0.0)
        with pytest.raises(ValueError):
            SmoothingParams(sigma=1.0, alpha=1.5)
        with pytest.raises(ValueError):
            SmoothingParams(sigma=1.0, n0=0)
