"""Gaussian-data-augmentation training of small differentiable classifiers.

A base classifier only makes a good smoothed classifier if it labels noisy
inputs well, so training perturbs every example with fresh N(0, sigma_train^2 I)
noise each epoch and minimizes softmax cross-entropy by plain mini-batch
gradient descent.  Two desk-scale architectures are provided: multinomial
logistic regression and a one-hidden-layer tanh MLP (tanh keeps gradients
defined everywhere, which the attack machinery relies on).

Runs are bit-deterministic given the config seed: augmentation noise comes
from the counter-based stream keyed by (epoch, example, coordinate), and
initialization and batch shuffling derive from the same seed.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from dataclasses import dataclass

import numpy as np

from .noise import NoiseStream
from .smoothing import DifferentiableClassifier

_INIT_STREAM_TAG = 0xA11CE
_AUGMENT_STREAM_TAG = 0x905E


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class LabeledExample:
    features: np.ndarray
    label: int


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run; identical configs give
    bit-identical models."""

    sigma_train: float
    epochs: int = 200
    learning_rate: float = 0.5
    batch_size: int = 64
    seed: int = 0
    model_kind: str = "logistic"  # "logistic" | "mlp"
    hidden_width: int = 32

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 <= self.sigma_train < math.inf:
            raise ValueError("sigma_train must be finite and >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.model_kind not in ("logistic", "mlp"):
            raise ValueError("model_kind must be 'logistic' or 'mlp'")
        if self.model_kind == "mlp" and self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place over scores and returned."""
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def _loss_and_coeffs(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of a batch and its gradient in the scores.

    Works in place: scores becomes the gradient, softmax minus one-hot over
    the batch size, once the loss has been read off the softmax.
    """
    probs = _softmax(scores)
    rows = np.arange(len(labels))
    # the sum over the count, as np.mean computes it, without its overhead
    loss = float(-np.log(np.maximum(probs[rows, labels], 1e-300)).sum() / len(labels))
    probs[rows, labels] -= 1.0
    probs /= len(labels)
    return loss, probs


class _AffineHeadModel(DifferentiableClassifier):
    """A trained model whose scores are an affine map of its last features.

    Both kinds decide their labels here, in float64 in _classify64.  With two
    labels, label 1 is taken exactly where the score difference
    features @ (w[1] - w[0]) exceeds b[0] - b[1]: one matrix-vector product
    and one comparison in place of a two-column product, a bias add and an
    argmax.  It can disagree with the argmax of the scores only where the two
    scores are within rounding of each other; an exact tie gives label 0.

    A subclass may put a cheaper screen in front (_screen): it labels the
    rows whose label it can prove equal to _classify64's and leaves the rest
    to _classify64, so every label is the float64 label.  The screen caches
    values derived from the weights, so the weights must not be changed in
    place except by training (_step).
    """

    @abstractmethod
    def _head(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(features, w, b) of a batch, with scores = features @ w.T + b."""

    def _screen(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """(labels, undecided rows) of a 2-D batch, or None to decide every
        row in _classify64."""
        return None

    def scores_batch(self, xs: np.ndarray) -> np.ndarray:
        features, w, b = self._head(xs)
        return features @ w.T + b

    def _classify64(self, xs: np.ndarray) -> np.ndarray:
        features, w, b = self._head(xs)
        if len(w) == 2:
            return (features @ (w[1] - w[0]) > b[0] - b[1]).astype(np.int64)
        return np.argmax(features @ w.T + b, axis=1).astype(np.int64)

    def classify_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(xs)
        screened = self._screen(xs)
        if screened is None:
            return self._classify64(xs)
        labels, undecided = screened
        if undecided.any():
            labels[undecided] = self._classify64(xs[undecided])
        return labels


class SoftmaxLinearModel(_AffineHeadModel):
    """Multinomial logistic regression: scores = W x + c."""

    def __init__(self, weights: np.ndarray, biases: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.biases = np.asarray(biases, dtype=np.float64)
        self.num_labels, self.dim = self.weights.shape

    def _head(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.atleast_2d(xs), self.weights, self.biases

    def loss_input_gradients(self, xs: np.ndarray, label: int) -> np.ndarray:
        coeffs = _softmax(self.scores_batch(xs))
        coeffs[:, label] -= 1.0
        return coeffs @ self.weights

    def _step(self, xs, labels, lr) -> float:
        """One gradient-descent step on the batch; returns its loss before the step."""
        loss, coeffs = _loss_and_coeffs(self.scores_batch(xs), labels)
        self.weights -= lr * coeffs.T @ xs
        self.biases -= lr * coeffs.sum(axis=0)
        return loss


class MlpModel(_AffineHeadModel):
    """One hidden tanh layer: scores = W2 tanh(W1 x + b1) + b2.

    With two labels, classify_batch first screens the batch in float32.  It
    computes each row's margin v @ h - c, with h = tanh(W1 x + b1),
    v = w2[1] - w2[0] and c = b2[0] - b2[1], and compares it with a
    first-order bound on its distance from the float64 margin; with
    u = 2^-24, d inputs and k hidden units,

        band = 2 [(d+4) u (|W1|^T |v|) @ |x| + (d+4) u |v| @ |b1|
                  + (k+12) u sum|v| + 4 u |c|] + 1e-12

    plus 2^-149 terms for float32 underflow.  The batch axis is innermost:
    the screen stacks the rows' transpose over a row of ones into a
    (d+1, m) array, so h = [W1 | b1] @ [x; 1] is (k, m) and every
    elementwise pass runs over m contiguous values.  The bias is term d+1
    of that float32 dot product, which the (d+4) u terms cover, and the
    band is [slope, floor] @ |[x; 1]|.  The (k+12) u sum|v| term also
    covers float32 tanh, whose largest absolute error was 6.0e-8 on numpy's
    AVX2 and AVX-512 kernels and 1.02e-7 (1.7 u) on its X86_V2 baseline; the
    largest |margin32 - margin64| / band seen, over the tests' models and
    inputs scaled 1e-3 to 1e6, was 0.041.  A row whose margin
    exceeds its band in magnitude takes margin > 0; the others, and rows
    whose margin or band is not finite, take the float64 decision.
    """

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.num_labels, self.hidden_width = self.w2.shape
        self.dim = self.w1.shape[1]
        self._screen32 = None

    def _hidden(self, xs: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(xs) @ self.w1.T
        h += self.b1
        return np.tanh(h, out=h)

    def _head(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._hidden(xs), self.w2, self.b2

    def _screen_params(self) -> tuple:
        """float32 [W1 | b1], v and c, and the band's per-input slopes
        followed by its floor; built on first use.  Two threads may both
        build it, to the same values."""
        if self._screen32 is None:
            u, tiny = 2.0 ** -24, 2.0 ** -149
            d, k = self.dim, self.hidden_width
            v = self.w2[1] - self.w2[0]
            c = self.b2[0] - self.b2[1]
            abs_v = np.abs(v)
            reach = abs_v @ np.abs(self.w1)
            slope = 2.0 * (d + 4) * u * reach + tiny * abs_v.sum()
            floor = (2.0 * ((d + 4) * u * (abs_v @ np.abs(self.b1))
                            + (k + 12) * u * abs_v.sum() + 4.0 * u * abs(c)) + 1e-12
                     + tiny * (reach.sum() + (d + 2) * abs_v.sum() + k + 1))
            with np.errstate(over="ignore"):
                self._screen32 = (np.column_stack([self.w1, self.b1]).astype(np.float32),
                                  v.astype(np.float32), np.float32(c),
                                  np.append(slope, floor).astype(np.float32))
        return self._screen32

    def _margin32(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """float32 margins of a 2-D batch of a two-label model, and their bands."""
        w1b, v, c, slope_floor = self._screen_params()
        # a row that overflows float32 gets an infinite or NaN margin or band
        with np.errstate(over="ignore", invalid="ignore"):
            x32 = np.empty((self.dim + 1, len(xs)), dtype=np.float32)
            x32[:-1] = xs.T
            x32[-1] = 1.0
            h = w1b @ x32
            np.tanh(h, out=h)
            margin = v @ h
            margin -= c
            band = slope_floor @ np.abs(x32, out=x32)
        return margin, band

    def _screen(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        if self.num_labels != 2:
            return None
        margin, band = self._margin32(xs)
        decided = np.abs(margin) > band
        decided &= np.isfinite(margin)
        return (margin > 0.0).astype(np.int64), ~decided

    def loss_input_gradients(self, xs: np.ndarray, label: int) -> np.ndarray:
        xs = np.atleast_2d(xs)
        h = self._hidden(xs)
        coeffs = _softmax(h @ self.w2.T + self.b2)
        coeffs[:, label] -= 1.0
        return ((coeffs @ self.w2) * (1.0 - h * h)) @ self.w1

    def _step(self, xs, labels, lr) -> float:
        """One gradient-descent step on the batch; returns its loss before the step."""
        h = self._hidden(xs)
        scores = h @ self.w2.T
        scores += self.b2
        loss, coeffs = _loss_and_coeffs(scores, labels)
        slope = h * h
        np.subtract(1.0, slope, out=slope)
        grad_h = coeffs @ self.w2
        grad_h *= slope
        self.w2 -= lr * coeffs.T @ h
        self.b2 -= lr * coeffs.sum(axis=0)
        self.w1 -= lr * grad_h.T @ xs
        self.b1 -= lr * grad_h.sum(axis=0)
        self._screen32 = None
        return loss


def _init_model(cfg: TrainConfig, dim: int, num_labels: int, stream: NoiseStream):
    def draws(rows: int, cols: int, tag: int) -> np.ndarray:
        return stream.standard_normals(tag, 0, rows, cols)

    if cfg.model_kind == "logistic":
        return SoftmaxLinearModel(draws(num_labels, dim, 0) / math.sqrt(dim),
                                  np.zeros(num_labels))
    w1 = draws(cfg.hidden_width, dim, 1) / math.sqrt(dim)
    w2 = draws(num_labels, cfg.hidden_width, 2) / math.sqrt(cfg.hidden_width)
    return MlpModel(w1, np.zeros(cfg.hidden_width), w2, np.zeros(num_labels))


def _validate_labels(labels: np.ndarray) -> int:
    present = np.unique(labels)
    num_labels = int(labels.max()) + 1
    if labels.min() < 0 or len(present) != num_labels:
        raise ValueError("labels must form a contiguous range 0..L-1 with every class present")
    return num_labels


def train_with_noise(examples, cfg: TrainConfig):
    """Train a classifier on Gaussian-augmented data; deterministic in cfg.seed.

    Every epoch draws fresh per-example noise sigma_train * N(0, I) (stream
    counter (epoch, example)), shuffles, and applies constant-step mini-batch
    gradient descent on softmax cross-entropy.  Raises TrainingDiverged if the
    epoch loss stops being finite.  The returned model records the epoch-mean
    loss history in model.loss_history.
    """
    xs = np.asarray([np.asarray(e.features, dtype=np.float64) for e in examples])
    labels = np.asarray([e.label for e in examples], dtype=np.int64)
    if xs.ndim != 2 or len(xs) == 0:
        raise ValueError("examples must be a nonempty list of equal-length feature vectors")
    if not np.all(np.isfinite(xs)):
        raise ValueError("features must be finite")
    num_labels = _validate_labels(labels)
    n, dim = xs.shape

    root = NoiseStream(cfg.seed)
    model = _init_model(cfg, dim, num_labels, root.substream(_INIT_STREAM_TAG))
    augment = root.substream(_AUGMENT_STREAM_TAG)
    shuffler = np.random.default_rng(cfg.seed)

    losses = []
    # transient overflow shows up as a non-finite loss, which is the abort
    # signal; the intermediate warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            noisy = xs
            if cfg.sigma_train > 0.0:
                noisy = xs + cfg.sigma_train * augment.standard_normals(epoch, 0, n, dim)
            order = shuffler.permutation(n)
            noisy, shuffled_labels = noisy[order], labels[order]
            epoch_loss = 0.0
            for lo in range(0, n, cfg.batch_size):
                hi = min(lo + cfg.batch_size, n)
                epoch_loss += model._step(noisy[lo:hi], shuffled_labels[lo:hi],
                                          cfg.learning_rate) * (hi - lo)
            epoch_loss /= n
            if not math.isfinite(epoch_loss):
                raise TrainingDiverged(f"non-finite loss {epoch_loss} at epoch {epoch}")
            losses.append(epoch_loss)

    model.loss_history = losses
    return model
