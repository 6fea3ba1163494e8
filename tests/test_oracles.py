import math

import numpy as np
import pytest

import reference
from oracles import (avgpool, avgpool_lift, breaking_perturbation, exact_interval_prob,
                     exact_label0_prob, exact_smoothed_prob, make_interval_counterexample,
                     make_worst_case, margin, true_robust_radius, worst_case_top_prob)
from smoothcert.bounds import tight_radius, BoundInputs
from smoothcert.noise import NoiseStream
from smoothcert.oracles import ConstantClassifier, IntervalClassifier, LinearModel
from smoothcert.smoothing import sample_under_noise

PHI_06 = 0.7257468822499265   # Phi(0.6)
PHI_12 = 0.8849303297782918   # Phi(1.2)
PHI_05 = 0.6914624612740131   # Phi(0.5)
T_FOR_TAU_05 = 0.39687117508954454  # -Phi^-1(Phi(0.5)/2)


class TestLinearModel:
    def test_labels_by_halfspace(self):
        model = LinearModel([1.0, 0.0], 0.0)
        assert model.classify([0.5, 3.0]) == 1
        assert model.classify([-0.5, 3.0]) == 0
        assert model.classify([0.0, 1.0]) == 0  # boundary resolves to lowest label

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            LinearModel([0.0, 0.0], 1.0)


class TestExactSmoothedProb:
    def test_boundary_is_half(self):
        model = LinearModel([1.0, 0.0], -0.6)
        assert margin(model, [0.6, 0.0]) == 0.0
        assert exact_smoothed_prob(model, [0.6, 0.0], 1.0) == 0.5

    def test_frozen_values(self):
        assert exact_smoothed_prob(LinearModel([1.0, 0.0], 0.0), [0.6, 0.0], 1.0) == \
            pytest.approx(PHI_06, abs=1e-12)
        assert exact_smoothed_prob(LinearModel([3.0, 4.0], 0.0), [1.0, 0.0], 0.5) == \
            pytest.approx(PHI_12, abs=1e-12)

    def test_monte_carlo_agreement(self):
        """Sampled top-class rate within 4 stderr of the closed form, 100 models."""
        rng = np.random.default_rng(101)
        n = 100_000
        stream = NoiseStream(2001)
        for i in range(100):
            w = rng.normal(size=3)
            while not np.any(w):
                w = rng.normal(size=3)
            model = LinearModel(w, rng.normal())
            x = rng.normal(size=3)
            sigma = rng.uniform(0.3, 2.0)
            p_exact = exact_smoothed_prob(model, x, sigma)
            counts = sample_under_noise(model, x, n, sigma, stream, example_id=i)
            p_hat = counts[model.classify(x)] / n
            stderr = math.sqrt(p_exact * (1 - p_exact) / n)
            assert abs(p_hat - p_exact) < 4 * stderr + 1e-12


class TestTrueRobustRadius:
    def test_forced_arithmetic(self):
        assert true_robust_radius(LinearModel([3.0, 4.0], 0.0), [1.0, 0.0]) == \
            pytest.approx(0.6, abs=1e-15)
        assert true_robust_radius(LinearModel([1.0, 0.0], -0.6), [0.6, 0.0]) == 0.0
        assert true_robust_radius(LinearModel([1.0, 1.0], 1.0), [0.0, 0.0]) == \
            pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_equals_tight_radius_at_exact_probabilities(self):
        """Certifying with exact probabilities recovers the boundary distance.

        Restricted to pa <= Phi(5): beyond that, rounding pa to a float
        already perturbs the implied radius by more than the tolerance.
        """
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(100):
            model = LinearModel(rng.normal(size=2), rng.normal())
            x = rng.normal(size=2) * 2.0
            sigma = rng.uniform(0.2, 2.0)
            scaled = abs(margin(model, x)) / (sigma * np.linalg.norm(model.w))
            if not 1e-3 < scaled < 5.0:
                continue
            pa = exact_smoothed_prob(model, x, sigma)
            certified = tight_radius(BoundInputs(pa, 1.0 - pa, sigma))
            assert certified == pytest.approx(true_robust_radius(model, x),
                                              rel=1e-9, abs=1e-12)
            checked += 1
        assert checked >= 50


class TestBreakingPerturbation:
    def test_direct_constructions(self):
        delta = breaking_perturbation(LinearModel([1.0, 0.0], 0.0), [0.6, 0.0], 0.7)
        assert np.allclose(delta, [-0.7, 0.0], atol=1e-12)
        delta = breaking_perturbation(LinearModel([0.0, 2.0], 0.0), [0.0, -0.3], 0.4)
        assert np.allclose(delta, [0.0, 0.4], atol=1e-12)
        delta = breaking_perturbation(LinearModel([3.0, 4.0], 0.0), [1.0, 0.0], 0.61)
        assert np.allclose(delta, [-0.61 * 0.6, -0.61 * 0.8], atol=1e-12)

    def test_always_flips_just_past_radius(self):
        """At 1.001 R the constructed perturbation flips the label, exactly."""
        rng = np.random.default_rng(17)
        for _ in range(100):
            model = LinearModel(rng.normal(size=3), rng.normal())
            x = rng.normal(size=3)
            radius = true_robust_radius(model, x)
            if radius < 1e-6:
                continue
            delta = breaking_perturbation(model, x, 1.001 * radius)
            assert np.linalg.norm(delta) == pytest.approx(1.001 * radius, rel=1e-12)
            assert model.classify(x + delta) != model.classify(x)

    def test_no_perturbation_inside_radius(self):
        model = LinearModel([1.0, 0.0], 0.0)
        with pytest.raises(ValueError):
            breaking_perturbation(model, [0.6, 0.0], 0.5)


class TestIntervalCounterexample:
    def test_construction_width(self):
        clf = make_interval_counterexample(0.5)
        assert clf.t == pytest.approx(T_FOR_TAU_05, abs=1e-9)

    def test_exact_probability_at_origin(self):
        """Inner mass at the origin is 1 - Phi(tau) by construction."""
        clf = make_interval_counterexample(0.5)
        assert exact_interval_prob(clf, 0.0, 1.0) == pytest.approx(1.0 - PHI_05, abs=1e-9)

    def test_probability_limits(self):
        clf = IntervalClassifier(t=1.0)
        assert exact_interval_prob(clf, 50.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert exact_interval_prob(clf, 0.0, 1e-8) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
    def test_outer_label_wins_everywhere_but_radius_is_tau(self, tau):
        """Infinite true radius, yet the certificate from exact probabilities is tau."""
        clf = make_interval_counterexample(tau)
        for x in np.linspace(-10.0, 10.0, 100):
            assert exact_interval_prob(clf, float(x), 1.0) < 0.5
        pa_outer = 1.0 - exact_interval_prob(clf, 0.0, 1.0)
        certified = tight_radius(BoundInputs(pa_outer, 1.0 - pa_outer, 1.0))
        assert certified == pytest.approx(tau, abs=1e-9)

    def test_classify_matches_interval(self):
        clf = IntervalClassifier(t=2.0)
        labels = clf.classify_batch(np.array([[-3.0], [-1.0], [0.0], [1.9], [2.1]]))
        assert list(labels) == [1, 0, 0, 0, 1]


class TestWorstCase:
    def test_top_label_at_anchor(self):
        """At x' = x the projection is zero, below any nonnegative threshold."""
        clf = make_worst_case(np.zeros(2), [1.0, 0.0], 0.8, 1.0)
        assert clf.classify([0.0, 0.0]) == 0

    def test_probability_saturates_bound(self):
        """Exact translated probabilities reproduce the worst-case curves."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            pa = rng.uniform(0.05, 0.95)
            sigma = rng.uniform(0.2, 2.0)
            r = rng.uniform(0.0, 3.0)
            x = rng.normal(size=3)
            direction = rng.normal(size=3)
            delta = r * direction / np.linalg.norm(direction)
            clf = make_worst_case(x, direction, pa, sigma)
            assert exact_label0_prob(clf, x, sigma) == pytest.approx(pa, abs=1e-9)
            assert exact_label0_prob(clf, x + delta, sigma) == pytest.approx(
                worst_case_top_prob(pa, sigma, r), abs=1e-9)

    def test_vote_flips_just_past_certified_radius(self):
        """Top probability dips below 1/2 at r = R + 0.01."""
        pa, sigma = 0.9, 1.0
        radius = sigma * reference.normal_quantile(pa)
        delta = np.array([radius + 0.01, 0.0])
        clf = make_worst_case(np.zeros(2), delta, pa, sigma)
        assert exact_label0_prob(clf, delta, sigma) < 0.5

    def test_monte_carlo_agreement(self):
        clf = make_worst_case(np.zeros(2), [1.0, 1.0], 0.841345, 1.0)
        counts = sample_under_noise(clf, np.zeros(2), 50_000, 1.0, NoiseStream(9), 0)
        p_hat = counts[0] / counts.total
        assert abs(p_hat - 0.841345) < 4 * math.sqrt(0.8413 * 0.1587 / 50_000)


class TestAvgpoolLift:
    def test_pooling_identity_on_constant_input(self):
        assert np.allclose(avgpool(np.full(8, 3.25)), np.full(2, 3.25))

    def test_lift_composes_with_pooling(self):
        """Lifted model on x agrees with the original on AvgPool(x)."""
        rng = np.random.default_rng(31)
        model = LinearModel(rng.normal(size=3), 0.4)
        lifted, sigma_high = avgpool_lift(model, 0.5)
        assert sigma_high == 1.0
        for _ in range(20):
            x_high = rng.normal(size=12)
            assert lifted.classify(x_high) == model.classify(avgpool(x_high))

    def test_headline_doubling(self):
        """1-D example: radius 0.6 at low resolution becomes 1.2 lifted."""
        model = LinearModel([1.0], 0.0)
        lifted, _ = avgpool_lift(model, 1.0)
        x_high = np.full(4, 0.6)
        assert true_robust_radius(lifted, x_high) == pytest.approx(1.2, abs=1e-12)

    def test_doubles_radius_exactly(self):
        """Exact doubling within 1e-12 on 50 random models."""
        rng = np.random.default_rng(37)
        for _ in range(50):
            dim = rng.integers(1, 6)
            w = rng.normal(size=dim)
            while not np.any(w):
                w = rng.normal(size=dim)
            model = LinearModel(w, rng.normal())
            lifted, _ = avgpool_lift(model, rng.uniform(0.1, 2.0))
            x_low = rng.normal(size=dim)
            ratio = true_robust_radius(lifted, np.repeat(x_low, 4)) / \
                max(true_robust_radius(model, x_low), 1e-300)
            assert ratio == pytest.approx(2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        lifted, _ = avgpool_lift(LinearModel([1.0, 2.0], 0.0), 1.0)
        with pytest.raises(ValueError):
            avgpool(np.zeros(7))
        assert lifted.dim == 8


class TestConstantClassifier:
    def test_constant_everywhere(self):
        clf = ConstantClassifier(1, num_labels=3)
        assert np.all(clf.classify_batch(np.random.default_rng(0).normal(size=(50, 4))) == 1)

    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            ConstantClassifier(3, num_labels=2)
