import warnings
from pathlib import Path

import numpy as np
import pytest

import reference
from smoothcert.datasets import two_gaussians
from smoothcert.modelio import load_model
from smoothcert.noise import NoiseStream
from smoothcert.oracles import LinearModel
from smoothcert.smoothing import SmoothingParams, certify
from smoothcert.training import (LabeledExample, MlpModel, SoftmaxLinearModel,
                                 TrainConfig, TrainingDiverged, train_with_noise)


def make_examples(std=0.5, count=1000, seed=10):
    features, labels = two_gaussians(count, center=2.0, std=std, seed=seed)
    return [LabeledExample(x, int(c)) for x, c in zip(features, labels)], features, labels


@pytest.fixture(scope="module")
def separable():
    return make_examples()


class TestTrainWithNoise:
    def test_clean_baseline_fits_separable_data(self, separable):
        """Logistic regression without noise nails well-separated blobs."""
        examples, features, labels = separable
        model = train_with_noise(examples, TrainConfig(sigma_train=0.0, epochs=100, seed=3))
        accuracy = float(np.mean(model.classify_batch(features) == labels))
        assert accuracy >= 0.99

    def test_noise_trained_model_certifies(self, separable):
        """sigma_train = 0.5 yields >= 0.9 certified accuracy at r = 0.25."""
        examples, _, _ = separable
        model = train_with_noise(examples, TrainConfig(sigma_train=0.5, epochs=100, seed=3))
        test_x, test_y = two_gaussians(200, center=2.0, std=0.5, seed=11)
        params = SmoothingParams(sigma=0.5, n0=100, n=10_000, alpha=0.01)
        stream = NoiseStream(7)
        hits = 0
        for i, (x, c) in enumerate(zip(test_x, test_y)):
            cert = certify(model, params, x, stream, example_id=i)
            if not cert.abstained and cert.label == c and cert.radius >= 0.25:
                hits += 1
        assert hits / 200 >= 0.9

    def test_huge_noise_destroys_signal(self, separable):
        """sigma_train = 1000 leaves an arbitrary direction: mean accuracy <= 0.7."""
        examples, features, labels = separable
        accuracies = []
        for seed in range(5):
            model = train_with_noise(examples, TrainConfig(sigma_train=1000.0,
                                                           epochs=100, seed=seed))
            accuracies.append(float(np.mean(model.classify_batch(features) == labels)))
        assert np.mean(accuracies) <= 0.7

    def test_deterministic_given_seed(self, separable):
        examples, _, _ = separable
        cfg = TrainConfig(sigma_train=0.3, epochs=30, batch_size=32, seed=9,
                          model_kind="mlp", hidden_width=8)
        a = train_with_noise(examples, cfg)
        b = train_with_noise(examples, cfg)
        for pa, pb in [(a.w1, b.w1), (a.b1, b.b1), (a.w2, b.w2), (a.b2, b.b2)]:
            assert np.array_equal(pa, pb)

    def test_loss_decreases_from_first_epoch(self, separable):
        examples, _, _ = separable
        for cfg in [TrainConfig(sigma_train=0.0, epochs=50, seed=1),
                    TrainConfig(sigma_train=0.5, epochs=50, seed=1, model_kind="mlp")]:
            model = train_with_noise(examples, cfg)
            assert model.loss_history[-1] <= model.loss_history[0]

    def test_fresh_noise_every_epoch(self):
        """The augmentation stream keys on the epoch, so realizations differ."""
        stream = NoiseStream(9).substream(0x905E)
        epoch0 = stream.standard_normals(0, 0, 100, 2)
        epoch1 = stream.standard_normals(1, 0, 100, 2)
        assert not np.array_equal(epoch0, epoch1)

    def test_divergence_aborts_with_diagnostic(self, separable):
        examples, _, _ = separable
        with pytest.raises(TrainingDiverged, match="epoch"):
            train_with_noise(examples, TrainConfig(sigma_train=1e160, epochs=5,
                                                   learning_rate=1e160, seed=0))

    def test_label_validation(self):
        bad = [LabeledExample(np.zeros(2), 0), LabeledExample(np.ones(2), 2)]
        with pytest.raises(ValueError, match="contiguous"):
            train_with_noise(bad, TrainConfig(sigma_train=0.0, epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(sigma_train=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma_train"):
                TrainConfig(sigma_train=bad)
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(sigma_train=0.0, learning_rate=bad)
        with pytest.raises(ValueError):
            TrainConfig(sigma_train=0.0, model_kind="transformer")


def model_params(model):
    if isinstance(model, MlpModel):
        return [model.w1, model.b1, model.w2, model.b2]
    return [model.weights, model.biases]


def labelled_blobs(num_labels, count=203, dim=3, seed=4):
    """count points in num_labels shifted Gaussian blobs, labels in turn."""
    rng = np.random.default_rng(seed)
    labels = np.arange(count) % num_labels
    centers = 2.0 * rng.normal(size=(num_labels, dim))
    features = centers[labels] + rng.normal(size=(count, dim))
    return [LabeledExample(x, int(c)) for x, c in zip(features, labels)]


class TestSinglePassStep:
    """train_with_noise runs one forward pass per mini-batch, in place; the
    two-pass loop in reference.reference_train is its bit-exact oracle."""

    @pytest.mark.parametrize("kind,num_labels", [("logistic", 2), ("logistic", 3),
                                                 ("mlp", 2), ("mlp", 3)])
    @pytest.mark.parametrize("epochs,batch_size,sigma", [(1, 64, 0.0), (3, 7, 0.5),
                                                         (6, 50, 0.5)])
    def test_bit_identical_to_two_pass_loop(self, kind, num_labels, epochs, batch_size,
                                            sigma):
        examples = labelled_blobs(num_labels)
        cfg = TrainConfig(sigma_train=sigma, epochs=epochs, learning_rate=0.8,
                          batch_size=batch_size, seed=epochs, model_kind=kind,
                          hidden_width=16)
        model = train_with_noise(examples, cfg)
        params, losses = reference.reference_train(examples, cfg)
        for got, want in zip(model_params(model), params, strict=True):
            assert np.array_equal(got, want)
        assert model.loss_history == losses

    def test_mlp_scores_match_plain_expression(self):
        rng = np.random.default_rng(8)
        w1, b1 = rng.normal(size=(16, 5)), rng.normal(size=16)
        w2, b2 = rng.normal(size=(3, 16)), rng.normal(size=3)
        model = MlpModel(w1, b1, w2, b2)
        xs = rng.normal(size=(100, 5))
        assert np.array_equal(model.scores_batch(xs), np.tanh(xs @ w1.T + b1) @ w2.T + b2)
        assert np.array_equal(model.scores_batch(xs[0]), np.tanh(xs[:1] @ w1.T + b1) @ w2.T + b2)


class TestGradients:
    """Each model's loss_input_gradients against central differences of its
    softmax cross-entropy, computed from scores_batch alone."""

    @staticmethod
    def assert_matches(model, xs, label, atol=1e-8):
        analytic = model.loss_input_gradients(xs, label)
        assert np.allclose(analytic, reference.loss_input_gradients(model, xs, label),
                           rtol=0.0, atol=atol)

    def test_linear_model_is_exact(self):
        model = LinearModel([1.5, -2.0, 0.25], 0.3)
        xs = np.array([[0.4, -1.0, 2.0], [-0.3, 0.2, 0.0], [3.0, 1.0, -1.0]])
        for label in range(2):
            self.assert_matches(model, xs, label)

    def test_mlp_near_init(self, separable):
        examples, _, _ = separable
        model = train_with_noise(examples, TrainConfig(sigma_train=0.0, epochs=1,
                                                       model_kind="mlp", seed=2))
        xs = np.random.default_rng(0).normal(size=(5, 2))
        for label in range(2):
            self.assert_matches(model, xs, label)

    def test_zero_input_is_finite(self):
        model = MlpModel(np.ones((4, 3)), np.zeros(4), np.ones((2, 4)), np.zeros(2))
        assert np.all(np.isfinite(model.loss_input_gradients(np.zeros((1, 3)), 1)))
        self.assert_matches(model, np.zeros((1, 3)), 1)

    def test_batched_loss_gradients_match_generic(self, separable):
        examples, _, _ = separable
        mlp = train_with_noise(examples, TrainConfig(sigma_train=0.2, epochs=5,
                                                     model_kind="mlp", seed=4))
        logistic = train_with_noise(examples, TrainConfig(sigma_train=0.2, epochs=5, seed=4))
        xs = np.random.default_rng(3).normal(size=(6, 2))
        for model in (mlp, logistic):
            self.assert_matches(model, xs, 1)


class TestModels:
    def test_classify_is_argmax_of_scores(self, separable):
        """Two-label models decide by one score difference, which agrees with
        the argmax of the scores on 1e5 noisy rows; an exact tie goes to
        label 0, and three labels keep the argmax."""
        examples, features, _ = separable
        rng = np.random.default_rng(6)
        rows = np.repeat(features, 100, axis=0) + rng.normal(size=(100_000, 2))
        for kind in ("mlp", "logistic"):
            model = train_with_noise(examples, TrainConfig(sigma_train=0.1, epochs=10,
                                                           model_kind=kind, seed=5))
            labels = model.classify_batch(rows)
            assert labels.dtype == np.int64
            assert np.array_equal(labels, np.argmax(model.scores_batch(rows), axis=1))
            assert 0.2 < labels.mean() < 0.8
        w, v = rng.normal(size=(4, 2)), rng.normal(size=4)
        tied = [MlpModel(w, rng.normal(size=4), np.stack([v, v]), np.full(2, 0.3)),
                SoftmaxLinearModel(np.stack([v[:2], v[:2]]), np.full(2, -1.0))]
        for model in tied:
            assert not model.classify_batch(rows).any()
        three = MlpModel(w, rng.normal(size=4), rng.normal(size=(3, 4)), rng.normal(size=3))
        labels = three.classify_batch(rows)
        assert labels.dtype == np.int64 and set(np.unique(labels)) == {0, 1, 2}
        assert np.array_equal(labels, np.argmax(three.scores_batch(rows), axis=1))

    def test_softmax_linear_shapes(self):
        model = SoftmaxLinearModel(np.eye(3), np.zeros(3))
        assert model.scores_batch(np.eye(3)).shape == (3, 3)
        assert model.classify([1.0, 0.0, 0.0]) == 0


def random_mlp(dim, seed, width=32):
    """A random two-label MLP whose boundary splits N(0, I) in half."""
    rng = np.random.default_rng(seed)
    w1, b1 = rng.normal(size=(width, dim)) / np.sqrt(dim), rng.normal(size=width)
    w2 = rng.normal(size=(2, width)) / np.sqrt(width)
    unbiased = MlpModel(w1, b1, w2, np.zeros(2))
    offset = np.median(float64_margin(unbiased, rng.normal(size=(10_000, dim))))
    return MlpModel(w1, b1, w2, np.array([offset, 0.0]))


@pytest.fixture(scope="module", params=["walkthrough", "golden", "d2", "d10", "d784"])
def two_label_mlp(request):
    """(model, centers, sigma): a two-label MLP and where to sample around it."""
    if request.param == "walkthrough":
        features, labels = two_gaussians(1000, center=1.2, std=0.15, std1=0.9, seed=7)
        model = train_with_noise([LabeledExample(x, int(c)) for x, c in zip(features, labels)],
                                 TrainConfig(sigma_train=0.5, epochs=400, learning_rate=1.0,
                                             model_kind="mlp", hidden_width=32))
        centers, _ = two_gaussians(200, center=1.2, std=0.15, std1=0.9, seed=8)
        return model, centers, 0.5
    if request.param == "golden":
        centers = np.random.default_rng(1).normal(size=(50, 2))
        return load_model(Path(__file__).parent / "data" / "golden.model"), centers, 0.5
    dim = int(request.param[1:])
    return random_mlp(dim, seed=dim), np.zeros((1, dim)), 1.0


def noisy_batches(centers, sigma, seed, batches=1000, rows=1000):
    """batches x rows noisy copies of the centers, one batch at a time.  Row i
    of batch j is center + sigma (a_i + b_j) / sqrt(2), from two small tables
    of standard normals, which keeps d = 784 cheap."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, centers.shape[1])) * (sigma / np.sqrt(2.0))
    b = rng.normal(size=(batches, centers.shape[1])) * (sigma / np.sqrt(2.0))
    for j in range(batches):
        yield centers[j % len(centers)] + b[j] + a


def float64_margin(model, xs):
    w, b = model.w2, model.b2
    return model._hidden(xs) @ (w[1] - w[0]) - (b[0] - b[1])


def assert_screen_exact(model, xs):
    """Labels equal the float64 labels, and the band bounds the float32 error."""
    labels = model.classify_batch(xs)
    assert labels.shape == (len(xs),)
    assert np.array_equal(labels, model._classify64(xs))
    margin, band = model._margin32(xs)
    assert np.all(np.abs(margin - float64_margin(model, xs)) <= band)


class TestFloat32Screen:
    """Two-label MLPs label rows from a float32 margin and send every row its
    error band cannot decide to the float64 path; every label must equal
    the float64 label."""

    def test_labels_equal_float64_on_a_million_noisy_rows(self, two_label_mlp):
        model, centers, sigma = two_label_mlp
        ones = 0
        for xs in noisy_batches(centers, sigma, seed=model.dim):
            labels = model.classify_batch(xs)
            assert labels.dtype == np.int64
            assert np.array_equal(labels, model._classify64(xs))
            ones += int(labels.sum())
        assert 0.05 < ones / 1e6 < 0.95

    def test_rows_at_the_boundary_take_the_fallback(self, two_label_mlp):
        """Bisection along 1000 lines through the boundary places rows within
        1e-9 of it, on both sides; no float32 margin can decide them."""
        model, centers, sigma = two_label_mlp
        xs = next(noisy_batches(centers, 3.0 * sigma, seed=5, batches=1, rows=4000))
        labels = model._classify64(xs)
        p, q = xs[labels == 0][:1000], xs[labels == 1][:1000]
        count = min(len(p), len(q))
        assert count >= 200
        p, q = p[:count], q[:count]
        lo, hi = np.zeros((count, 1)), np.ones((count, 1))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            ones = model._classify64(p + mid * (q - p))[:, None] == 1
            hi, lo = np.where(ones, mid, hi), np.where(ones, lo, mid)
        step = (q - p) / np.linalg.norm(q - p, axis=1, keepdims=True)
        rows = np.concatenate([p + lo * (q - p) + off * step
                               for off in np.linspace(-1e-9, 1e-9, 9)])
        expected = model._classify64(rows)
        assert 0 < expected.mean() < 1
        _, undecided = model._screen(rows)
        assert undecided.all()
        assert np.array_equal(model.classify_batch(rows), expected)

    def test_float32_overflow_takes_the_fallback_silently(self, two_label_mlp):
        model, _, _ = two_label_mlp
        rows = np.zeros((6, model.dim))
        rows[:, :2] = [[1e39, -1e39], [-1e39, 1e39], [3.5e38, 0.0], [1e300, 1e-300],
                       [1e-45, -1e-320], [-1e-39, 1e-40]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = model.classify_batch(rows)
            assert np.array_equal(labels, model._classify64(rows))
            _, undecided = model._screen(rows)
        assert undecided[:4].all()

    def test_band_bounds_the_float32_error(self, two_label_mlp):
        """The safe side: |margin32 - margin64| <= band on inputs scaled
        1e-3 to 1e6, and float32 tanh within the u its bound allows."""
        model, _, _ = two_label_mlp
        rng = np.random.default_rng(11)
        for scale in np.logspace(-3, 6, 19):
            xs = scale * rng.normal(size=(2000, model.dim))
            margin, band = model._margin32(xs)
            assert np.all(np.abs(margin - float64_margin(model, xs)) <= band)
        z = np.linspace(-12.0, 12.0, 2_000_001, dtype=np.float32)
        assert np.max(np.abs(np.tanh(z) - np.tanh(z.astype(np.float64)))) <= 2.0 * 2.0 ** -24

    @pytest.mark.parametrize("layout", ["one row", "F-ordered", "strided"])
    def test_any_batch_layout_gives_the_float64_labels(self, two_label_mlp, layout):
        """The screen transposes the batch; single rows, column-major batches
        and strided views must give the same labels as C-ordered ones."""
        model, centers, sigma = two_label_mlp
        xs = next(noisy_batches(centers, sigma, seed=3, batches=1, rows=3000))
        if layout == "one row":
            for i in range(0, 3000, 150):
                assert_screen_exact(model, xs[i:i + 1])
        else:
            assert_screen_exact(model, np.asfortranarray(xs) if layout == "F-ordered"
                                else xs[::3])

    def test_one_input_mlp(self):
        model = random_mlp(1, seed=1)
        xs = np.random.default_rng(4).normal(size=(3000, 1))
        for batch in (xs, xs[:1], np.asfortranarray(xs), xs[::3]):
            assert_screen_exact(model, batch)
        assert 0.2 < model.classify_batch(xs).mean() < 0.8

    def test_training_drops_the_float32_weights(self, separable):
        examples, features, labels = separable
        model = train_with_noise(examples, TrainConfig(sigma_train=0.5, epochs=5,
                                                       model_kind="mlp", seed=1))
        rows = np.repeat(features, 20, axis=0)
        rows += np.random.default_rng(2).normal(size=rows.shape)
        before = model.classify_batch(rows)
        assert np.array_equal(before, model._classify64(rows))
        model._step(features, 1 - labels, 5.0)
        after = model.classify_batch(rows)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, model._classify64(rows))
