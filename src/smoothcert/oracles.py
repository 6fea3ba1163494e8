"""Base classifiers whose smoothed behavior has a closed form.

These are the ground truth behind every statistical claim in the package:

* ``LinearModel`` -- a two-class halfspace.  Smoothing leaves it unchanged,
  its smoothed top-class probability is Phi(|w.x + b| / (sigma ||w||)), and
  its exact robust radius |w.x + b| / ||w|| is also exactly what the tight
  bound certifies, with a class-flipping perturbation just beyond it.
* ``IntervalClassifier`` -- the 1-D construction showing the certificate can
  be arbitrarily loose for non-linear classifiers: its smoothed prediction is
  the outer label everywhere (infinite true radius) while the certifiable
  radius from exact probabilities is a chosen tau.
* ``WorstCaseClassifier`` -- the halfspace normal to a perturbation that
  attains the translated-Gaussian worst case, saturating the tight bound.
* ``avgpool_lift`` -- doubles the certifiable radius by moving a model to
  inputs of 4x the dimension behind 2x2 average pooling.

All probability computations here are closed-form only; no quadrature, no
sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .smoothing import DifferentiableClassifier, BaseClassifier
from .statfun import std_normal_cdf, std_normal_quantile


class ConstantClassifier(BaseClassifier):
    """Returns the same label everywhere; dim 0 accepts inputs of any dimension."""

    def __init__(self, label: int, num_labels: int = 2, dim: int = 0):
        if not 0 <= label < num_labels:
            raise ValueError("label must lie in range(num_labels)")
        self.label = label
        self.num_labels = num_labels
        self.dim = dim

    def classify_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.full(np.atleast_2d(xs).shape[0], self.label, dtype=np.int64)


class LinearModel(DifferentiableClassifier):
    """Two-class halfspace: label 1 where w.x + b > 0, else label 0."""

    num_labels = 2

    def __init__(self, w, b: float):
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 1 or not np.any(w):
            raise ValueError("w must be a nonzero vector")
        self.w = w
        self.b = float(b)
        self.dim = w.shape[0]

    def margin(self, x) -> float:
        """Signed score w.x + b; zero exactly on the decision boundary."""
        return float(np.asarray(x, dtype=np.float64) @ self.w + self.b)

    def scores_batch(self, xs: np.ndarray) -> np.ndarray:
        m = np.atleast_2d(xs) @ self.w + self.b
        return np.column_stack([np.zeros_like(m), m])

    def classify_batch(self, xs: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(xs) @ self.w + self.b > 0.0).astype(np.int64)

    def loss_input_gradients(self, xs: np.ndarray, label: int) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
        m = xs @ self.w + self.b
        p1 = 1.0 / (1.0 + np.exp(-m))
        coeff = p1 - (1.0 if label == 1 else 0.0)
        return coeff[:, None] * self.w[None, :]


def exact_smoothed_prob(model: LinearModel, x, sigma: float) -> float:
    """Exact probability that the smoothed vote matches the base label.

    Phi(|w.x + b| / (sigma ||w||)); equals 1/2 exactly on the boundary, where
    model.margin(x) == 0 flags the degenerate case.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    margin = model.margin(x)
    return std_normal_cdf(abs(margin) / (sigma * float(np.linalg.norm(model.w))))


def true_robust_radius(model: LinearModel, x) -> float:
    """Exact distance |w.x + b| / ||w|| from x to the decision boundary.

    This is simultaneously the radius the tight bound certifies at exact
    probabilities and the largest radius with no class-flipping perturbation;
    zero on the boundary.
    """
    return abs(model.margin(x)) / float(np.linalg.norm(model.w))


def breaking_perturbation(model: LinearModel, x, r: float) -> np.ndarray:
    """A perturbation of norm exactly r that flips the base (= smoothed) label.

    Moves along -+ w / ||w|| toward and past the boundary; raises ValueError
    when r <= true_robust_radius(model, x), where no such perturbation exists.
    """
    if r <= true_robust_radius(model, x):
        raise ValueError("no flipping perturbation exists at or inside the true radius")
    direction = model.w / np.linalg.norm(model.w)
    sign = 1.0 if model.margin(x) > 0.0 else -1.0
    return -sign * r * direction


@dataclass(frozen=True)
class IntervalClassifier(BaseClassifier):
    """1-D classifier: inner label on [-t, t], outer label elsewhere."""

    t: float
    inner_label: int = 0
    outer_label: int = 1
    num_labels: int = field(default=2, init=False)
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        if not self.t > 0.0:
            raise ValueError("t must be positive")
        if self.inner_label == self.outer_label:
            raise ValueError("labels must be distinct")

    def classify_batch(self, xs: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(xs)[:, 0]
        inner = (z >= -self.t) & (z <= self.t)
        return np.where(inner, self.inner_label, self.outer_label).astype(np.int64)


def make_interval_counterexample(tau: float) -> IntervalClassifier:
    """Classifier whose certificate is tau although its true radius is infinite.

    With t = -Phi^-1(Phi(tau) / 2), the sigma = 1 smoothed outer-label
    probability at the origin is exactly 2 Phi(-t) = Phi(tau), so the
    certifiable radius there is tau; yet no interval of width 2t captures
    half the Gaussian mass anywhere, so the smoothed vote is the outer label
    at every point.
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    t = -std_normal_quantile(0.5 * std_normal_cdf(tau))
    return IntervalClassifier(t=t)


def exact_interval_prob(clf: IntervalClassifier, x: float, sigma: float) -> float:
    """Exact inner-label probability Phi((t - x)/sigma) - Phi((-t - x)/sigma)."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return (std_normal_cdf((clf.t - x) / sigma)
            - std_normal_cdf((-clf.t - x) / sigma))


class WorstCaseClassifier(BaseClassifier):
    """Halfspace normal to a perturbation attaining the translated worst case.

    Labels label_top on the set {x': delta.(x' - x) <= threshold} with
    threshold = sigma ||delta|| Phi^-1(pa); its smoothed top-class probability
    is exactly pa at x and exactly the worst-case value at x + delta.
    """

    num_labels = 2

    def __init__(self, x, delta, threshold: float, label_top: int = 0, label_other: int = 1):
        self.x = np.asarray(x, dtype=np.float64)
        self.delta = np.asarray(delta, dtype=np.float64)
        if not np.any(self.delta):
            raise ValueError("delta must be nonzero")
        self.threshold = float(threshold)
        self.label_top = label_top
        self.label_other = label_other

    def classify_batch(self, xs: np.ndarray) -> np.ndarray:
        proj = (np.atleast_2d(xs) - self.x[None, :]) @ self.delta
        return np.where(proj <= self.threshold, self.label_top, self.label_other).astype(np.int64)


def make_worst_case(x, delta, pa_lower: float, sigma: float) -> WorstCaseClassifier:
    """The classifier minimizing the top-class probability at x + delta.

    Subject to having top-class probability exactly pa_lower at x under
    N(x, sigma^2 I).
    """
    delta = np.asarray(delta, dtype=np.float64)
    if not np.any(delta):
        raise ValueError("delta must be nonzero")
    if not 0.0 < pa_lower < 1.0:
        raise ValueError("pa_lower must lie strictly in (0, 1)")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    threshold = sigma * float(np.linalg.norm(delta)) * std_normal_quantile(pa_lower)
    return WorstCaseClassifier(x, delta, threshold)


def exact_worst_case_top_prob(clf: WorstCaseClassifier, y, sigma: float) -> float:
    """Exact smoothed top-label probability of a worst-case classifier at y.

    P(delta.(Y - x) <= threshold) for Y ~ N(y, sigma^2 I), which reduces to
    Phi((threshold - delta.(y - x)) / (sigma ||delta||)).
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    shift = float((np.asarray(y, dtype=np.float64) - clf.x) @ clf.delta)
    scale = sigma * float(np.linalg.norm(clf.delta))
    return std_normal_cdf((clf.threshold - shift) / scale)


def avgpool(x: np.ndarray) -> np.ndarray:
    """Average consecutive blocks of 4 coordinates (flattened 2x2 pooling)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] % 4 != 0:
        raise ValueError("input dimension must be a multiple of 4")
    return x.reshape(*x.shape[:-1], -1, 4).mean(axis=-1)


def avgpool_lift(model: LinearModel, sigma_low: float) -> tuple[LinearModel, float]:
    """Lift a d-dimensional model to 4d inputs behind average pooling.

    The average of four independent N(0, (2 sigma)^2) deviates is N(0, sigma^2),
    so the lifted classifier smoothed at 2 * sigma_low votes identically to the
    original smoothed at sigma_low on any pooled pair of inputs, while every
    certified radius doubles.  The composition f(AvgPool(.)) of a linear model
    is itself linear, so the closed-form radius machinery applies directly.
    """
    if not sigma_low > 0.0:
        raise ValueError("sigma_low must be positive")
    w_lifted = np.repeat(model.w / 4.0, 4)
    return LinearModel(w_lifted, model.b), 2.0 * sigma_low
