import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from oracles import true_robust_radius
from smoothcert.attack import AttackParams, AttackResult, pgd_attack, project_to_ball
from smoothcert.datasets import two_gaussians
from smoothcert.noise import NoiseStream
from smoothcert.oracles import LinearModel
from smoothcert.smoothing import DifferentiableClassifier, SmoothingParams, certify
from smoothcert.training import LabeledExample, TrainConfig, train_with_noise


class TestProjectToBall:
    def test_origin_is_fixed(self):
        assert np.array_equal(project_to_ball(np.zeros(2), 1.0), np.zeros(2))

    def test_outside_point_lands_on_sphere(self):
        assert np.allclose(project_to_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_interior_point_unchanged(self):
        z = np.array([0.3, 0.4])
        assert np.array_equal(project_to_ball(z, 1.0), z)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=5),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_feasibility_property(self, z, r):
        projected = project_to_ball(np.asarray(z), r)
        assert np.linalg.norm(projected) <= r + 1e-12


class TestPgdOnLinearOracle:
    def test_succeeds_just_past_true_radius(self):
        """r = 0.7 > R = 0.6: converges to the boundary-crossing direction."""
        model = LinearModel([1.0, 0.0], 0.0)
        result = pgd_attack(model, np.array([0.6, 0.0]), 1,
                            AttackParams(radius=0.7, sigma=0.1, k=100, seed=5))
        assert result.success
        assert np.allclose(result.delta, [-0.7, 0.0], atol=1e-9)

    def test_never_succeeds_inside_true_radius(self):
        """No flipping perturbation exists in the ball, so success is impossible."""
        rng = np.random.default_rng(3)
        for trial in range(6):
            w = rng.normal(size=2)
            while not np.any(w):
                w = rng.normal(size=2)
            model = LinearModel(w, rng.normal() * 0.1)
            x = rng.normal(size=2) * 2.0
            radius = true_robust_radius(model, x)
            if radius < 0.05:
                continue
            label = model.classify(x)
            for fraction in (0.5, 0.9, 0.99):
                result = pgd_attack(model, x, label,
                                    AttackParams(radius=fraction * radius, sigma=0.25,
                                                 k=100, seed=100 + trial))
                assert not result.success
                assert np.linalg.norm(result.delta) <= fraction * radius + 1e-12

    def test_deterministic_given_seed(self):
        model = LinearModel([1.0, -1.0], 0.2)
        params = AttackParams(radius=0.5, sigma=0.3, k=50, steps=10, seed=7)
        a = pgd_attack(model, np.array([0.4, -0.2]), 1, params)
        b = pgd_attack(model, np.array([0.4, -0.2]), 1, params)
        assert np.array_equal(a.delta, b.delta)
        assert a.success == b.success


class TestZeroGradient:
    def test_flat_model_never_moves(self):
        class FlatModel(DifferentiableClassifier):
            num_labels = 2

            def scores_batch(self, xs):
                return np.zeros((np.atleast_2d(xs).shape[0], 2))

            def loss_input_gradients(self, xs, label):
                return reference.loss_input_gradients(self, xs, label)

        result = pgd_attack(FlatModel(), np.array([1.0, 2.0]), 0,
                            AttackParams(radius=1.0, sigma=0.5, k=20, steps=8, seed=1))
        assert result.zero_gradient_steps == 8
        assert np.array_equal(result.delta, np.zeros(2))
        assert isinstance(result, AttackResult)


class TestParamsValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            AttackParams(radius=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            AttackParams(radius=1.0, sigma=1.0, k=0)


class TestTrainedMlpOrdering:
    def test_success_rate_grows_past_certificate(self):
        """Attacks at the certified radius fail; the rate climbs from 1.5R to 2R.

        Certification uses a small sample budget, so certificates undershoot
        the true robust radii by varying factors; that is what spreads the
        success curve across the 1.5R..2R band instead of saturating it.
        """
        features, labels = two_gaussians(600, center=1.5, std=0.6, seed=42)
        examples = [LabeledExample(x, int(c)) for x, c in zip(features, labels)]
        mlp = train_with_noise(examples, TrainConfig(
            sigma_train=0.5, epochs=200, learning_rate=1.0, batch_size=32,
            seed=1, model_kind="mlp", hidden_width=16))

        test_x, test_y = two_gaussians(80, center=1.5, std=0.6, seed=43)
        params = SmoothingParams(sigma=0.5, n0=100, n=300, alpha=0.001)
        stream = NoiseStream(11)
        certified = []
        for i, (x, c) in enumerate(zip(test_x, test_y)):
            cert = certify(mlp, params, x, stream, example_id=i)
            if not cert.abstained and cert.label == c:
                certified.append((i, x, int(c), cert.radius))
        certified = certified[:40]
        assert len(certified) >= 30

        successes = {}
        for scale in (1.0, 1.5, 2.0):
            count = 0
            for i, x, c, radius in certified:
                result = pgd_attack(mlp, x, c, AttackParams(
                    radius=scale * radius, sigma=0.5, k=200, steps=20,
                    step_size=0.1, seed=11_000 + i))
                count += result.success
            successes[scale] = count

        assert successes[1.0] <= max(1, int(0.05 * len(certified)))
        assert successes[1.5] >= successes[1.0]
        assert successes[2.0] > successes[1.5]
