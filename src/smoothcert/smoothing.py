"""Monte Carlo evaluation and certification of Gaussian-smoothed classifiers.

The smoothed classifier g(x) returns whichever label a base classifier f is
most likely to emit on N(x, sigma^2 I).  Neither g(x) nor its certified
radius can be computed exactly for an arbitrary f, so both are estimated from
noisy samples with explicit failure probability alpha:

* ``predict`` draws n samples and returns the top label only if a two-sided
  binomial test rejects a tie between the top two counts; otherwise abstains.
  Wrong answers occur with probability at most alpha.
* ``certify`` guesses the top label from n0 samples, then lower-bounds its
  probability with a one-sided Clopper-Pearson interval on n fresh samples
  and converts the bound into a radius sigma * Phi^-1(pa_lower).  Returned
  radii are invalid with probability at most alpha.

Sampling is driven by a counter-based NoiseStream, so class counts are
bit-identical across reruns, batch sizes, and worker counts.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .noise import NoiseStream
from .statfun import binom_two_sided_pvalue, clopper_pearson_lower, std_normal_quantile

DEFAULT_BATCH_SIZE = 1000
# Most deviates one sampling block holds (512 KiB of float64): a block of noise
# and its scratch copies stay in a core's L2 cache, and memory stays flat in
# batch size and dimension.
BLOCK_DEVIATES = 1 << 16


class BaseClassifier(ABC):
    """Total function from feature vectors to labels in range(num_labels).

    Implementations must be safe for concurrent read-only use; the engine
    never mutates a model while sampling.
    """

    num_labels: int

    @abstractmethod
    def classify_batch(self, xs: np.ndarray) -> np.ndarray:
        """Labels for a batch of row vectors, shape (m, d) -> (m,) int64."""

    def classify(self, x) -> int:
        return int(self.classify_batch(np.atleast_2d(np.asarray(x, dtype=np.float64)))[0])


class DifferentiableClassifier(BaseClassifier):
    """Classifier that additionally exposes per-label scores and gradients.

    classify must agree with argmax of scores under the lowest-index tie rule,
    which np.argmax provides.
    """

    @abstractmethod
    def scores_batch(self, xs: np.ndarray) -> np.ndarray:
        """Per-label scores for a batch, shape (m, d) -> (m, num_labels)."""

    @abstractmethod
    def score_gradient(self, x: np.ndarray, label: int) -> np.ndarray:
        """Gradient of scores(x)[label] with respect to x, shape (d,)."""

    def scores(self, x) -> np.ndarray:
        return self.scores_batch(np.atleast_2d(np.asarray(x, dtype=np.float64)))[0]

    def classify_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.argmax(self.scores_batch(xs), axis=1).astype(np.int64)

    @abstractmethod
    def loss_input_gradients(self, xs: np.ndarray, label: int) -> np.ndarray:
        """Softmax cross-entropy input gradients, one row per sample, (m, d) -> (m, d)."""


@dataclass(frozen=True)
class SmoothingParams:
    """Noise level and Monte Carlo protocol parameters."""

    sigma: float
    n0: int = 100
    n: int = 100_000
    alpha: float = 0.001

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if self.n0 < 1 or self.n < 1:
            raise ValueError("sample counts must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class ClassCounts:
    """Per-label tallies from noisy base-classifier evaluations."""

    counts: np.ndarray  # int64, length num_labels
    total: int = field(init=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValueError("counts must be a 1-D nonnegative vector")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(counts.sum()))

    def top_two(self) -> tuple[int, int]:
        """Indices of the two largest counts; ties go to the lower index."""
        first = int(np.argmax(self.counts))
        if len(self.counts) == 1:
            return first, first
        rest = self.counts.copy()
        rest[first] = -1
        return first, int(np.argmax(rest))

    def __getitem__(self, label: int) -> int:
        return int(self.counts[label])


@dataclass(frozen=True)
class Prediction:
    """Outcome of predict: a label, or abstention when evidence is thin."""

    label: int | None

    @property
    def abstained(self) -> bool:
        return self.label is None


@dataclass(frozen=True)
class Certification:
    """Outcome of certify: label plus certified radius, or abstention; either way
    the selection batch's guess and the estimation counts the decision used."""

    label: int | None
    radius: float | None
    pa_lower: float | None
    guess: int
    counts: ClassCounts = field(compare=False, repr=False)

    @property
    def abstained(self) -> bool:
        return self.label is None


ABSTAIN_PREDICTION = Prediction(label=None)


def sample_under_noise(f: BaseClassifier, x: np.ndarray, num: int, sigma: float,
                       noise: NoiseStream, example_id: int, *, start: int = 0,
                       batch_size: int = DEFAULT_BATCH_SIZE, parallelism: int = 1) -> ClassCounts:
    """Class counts of f over num draws of x + sigma * N(0, I).

    Noise for draw i comes from stream counter (example_id, start + i), so the
    result is a pure function of (run_seed, example_id, start, num) no matter
    how the draws are batched or scheduled across workers.  batch_size is the
    most rows per call of f; each block also holds at most BLOCK_DEVIATES
    deviates.
    """
    if num < 1:
        raise ValueError("num must be >= 1")
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    dim = x.shape[0]

    def count_range(lo: int, hi: int) -> np.ndarray:
        noisy = noise.standard_normals(example_id, lo, hi, dim)
        noisy *= sigma  # in place: the same IEEE operations as x + sigma * deviates
        noisy += x
        labels = f.classify_batch(noisy)
        return np.bincount(labels, minlength=f.num_labels).astype(np.int64)

    # a 0-feature x is rejected by the noise stream's own dim check
    rows = max(1, min(batch_size, BLOCK_DEVIATES // max(dim, 1)))
    edges = list(range(start, start + num, rows)) + [start + num]
    spans = list(zip(edges[:-1], edges[1:]))
    if parallelism > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            partials = list(pool.map(lambda s: count_range(*s), spans))
    else:
        partials = [count_range(lo, hi) for lo, hi in spans]
    return ClassCounts(np.sum(partials, axis=0))


def decide_prediction(counts: ClassCounts, alpha: float) -> Prediction:
    """Pure decision step of predict: top label iff the tie test rejects."""
    c_top, c_second = counts.top_two()
    n_a, n_b = counts[c_top], counts[c_second]
    if c_top == c_second:  # single-label degenerate case
        n_b = 0
    if binom_two_sided_pvalue(n_a, n_a + n_b, 0.5) <= alpha:
        return Prediction(label=c_top)
    return ABSTAIN_PREDICTION


def decide_certification(guess: int, counts: ClassCounts, alpha: float,
                         sigma: float) -> Certification:
    """Pure decision step of certify from the estimation-batch counts."""
    pa_lower = clopper_pearson_lower(counts[guess], counts.total, alpha)
    if pa_lower <= 0.5:
        return Certification(label=None, radius=None, pa_lower=None, guess=guess,
                             counts=counts)
    return Certification(label=guess, radius=sigma * std_normal_quantile(pa_lower),
                         pa_lower=pa_lower, guess=guess, counts=counts)


def predict(f: BaseClassifier, params: SmoothingParams, x: np.ndarray,
            noise: NoiseStream, example_id: int, *,
            batch_size: int = DEFAULT_BATCH_SIZE, parallelism: int = 1) -> Prediction:
    """Evaluate the smoothed classifier at x with error probability <= alpha.

    Draws params.n samples, then returns the most frequent label only if the
    two-sided binomial test between the top two counts is significant at
    alpha; otherwise abstains.
    """
    counts = sample_under_noise(f, x, params.n, params.sigma, noise, example_id,
                                batch_size=batch_size, parallelism=parallelism)
    return decide_prediction(counts, params.alpha)


def certify(f: BaseClassifier, params: SmoothingParams, x: np.ndarray,
            noise: NoiseStream, example_id: int, *,
            batch_size: int = DEFAULT_BATCH_SIZE, parallelism: int = 1) -> Certification:
    """Certify the smoothed prediction at x; a radius is wrong with probability <= alpha.

    The n0 selection draws occupy stream counters [0, n0) and the n estimation
    draws [n0, n0 + n): disjoint segments, so the confidence interval never
    sees the samples that chose the candidate label.  Abstains when the
    interval's lower bound fails to clear 1/2.
    """
    counts0 = sample_under_noise(f, x, params.n0, params.sigma, noise, example_id,
                                 batch_size=batch_size, parallelism=parallelism)
    guess, _ = counts0.top_two()
    counts = sample_under_noise(f, x, params.n, params.sigma, noise, example_id,
                                start=params.n0, batch_size=batch_size,
                                parallelism=parallelism)
    return decide_certification(guess, counts, params.alpha, params.sigma)


def project_counts(counts: ClassCounts, n_new: int) -> ClassCounts:
    """Rescale counts to total n_new, keeping class proportions fixed.

    Each count is rounded proportionally and the top class absorbs the
    rounding residue so totals match exactly.  Used to project how a
    certification would have fared with a different sample budget.
    """
    if counts.total < 1 or n_new < 1:
        raise ValueError("need counts.total >= 1 and n_new >= 1")
    scaled = np.floor(n_new * counts.counts / counts.total + 0.5).astype(np.int64)
    top = int(np.argmax(counts.counts))
    scaled[top] += n_new - int(scaled.sum())
    if scaled[top] < 0:
        # many-way near-ties at tiny n_new can round every class up; push the
        # shortfall onto the other classes, largest first, floored at zero
        deficit = -int(scaled[top])
        scaled[top] = 0
        for c in np.argsort(-scaled, kind="stable"):
            take = min(deficit, int(scaled[c]))
            scaled[c] -= take
            deficit -= take
            if deficit == 0:
                break
    return ClassCounts(scaled)
