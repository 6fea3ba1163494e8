"""Closed-form truths about the fixed base classifiers, for the tests.

Every function here is exact: scipy's ``ndtr`` and ``ndtri`` evaluate the
normal CDF and quantile, and nothing is sampled or integrated numerically.

* Halfspaces (``smoothcert.oracles.LinearModel``): smoothing leaves the label
  unchanged, the smoothed top-class probability is Phi(|w.x + b| / (sigma ||w||)),
  and the exact robust radius |w.x + b| / ||w|| is also what the tight bound
  certifies, with a class-flipping perturbation just beyond it.
* The paper's worst case: the halfspace normal to a perturbation that attains
  the translated-Gaussian bound, so it saturates the tight radius.
* The interval classifier whose certifiable radius is a chosen tau although
  its smoothed vote is the outer label everywhere.
* The average-pooling lift, which doubles every certified radius.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

from smoothcert.oracles import IntervalClassifier, LinearModel


def margin(model: LinearModel, x) -> float:
    """Signed score w.x + b; zero exactly on the decision boundary."""
    return float(np.asarray(x, dtype=np.float64) @ model.w + model.b)


def _check_sigma(sigma: float) -> None:
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")


def exact_smoothed_prob(model: LinearModel, x, sigma: float) -> float:
    """Exact probability that the smoothed vote matches the base label.

    Phi(|w.x + b| / (sigma ||w||)); equals 1/2 exactly on the boundary, where
    margin(model, x) == 0 flags the degenerate case.
    """
    _check_sigma(sigma)
    return float(ndtr(abs(margin(model, x)) / (sigma * float(np.linalg.norm(model.w)))))


def exact_label0_prob(model: LinearModel, y, sigma: float) -> float:
    """Exact smoothed probability of label 0 at y: Phi(-(w.y + b) / (sigma ||w||))."""
    _check_sigma(sigma)
    return float(ndtr(-margin(model, y) / (sigma * float(np.linalg.norm(model.w)))))


def true_robust_radius(model: LinearModel, x) -> float:
    """Exact distance |w.x + b| / ||w|| from x to the decision boundary.

    This is simultaneously the radius the tight bound certifies at exact
    probabilities and the largest radius with no class-flipping perturbation;
    zero on the boundary.
    """
    return abs(margin(model, x)) / float(np.linalg.norm(model.w))


def breaking_perturbation(model: LinearModel, x, r: float) -> np.ndarray:
    """A perturbation of norm exactly r that flips the base (= smoothed) label.

    Moves along -+ w / ||w|| toward and past the boundary; raises ValueError
    when r <= true_robust_radius(model, x), where no such perturbation exists.
    """
    if r <= true_robust_radius(model, x):
        raise ValueError("no flipping perturbation exists at or inside the true radius")
    direction = model.w / np.linalg.norm(model.w)
    sign = 1.0 if margin(model, x) > 0.0 else -1.0
    return -sign * r * direction


def make_worst_case(x, delta, pa: float, sigma: float) -> LinearModel:
    """The classifier minimizing the label-0 probability at x + delta.

    Subject to label 0 having probability exactly pa at x under
    N(x, sigma^2 I): the halfspace labelling 0 where
    delta.(y - x) <= sigma ||delta|| Phi^-1(pa).
    """
    delta = np.asarray(delta, dtype=np.float64)
    if not 0.0 < pa < 1.0:
        raise ValueError("pa must lie strictly in (0, 1)")
    _check_sigma(sigma)
    threshold = sigma * float(np.linalg.norm(delta)) * float(ndtri(pa))
    return LinearModel(delta, -float(delta @ np.asarray(x, dtype=np.float64)) - threshold)


def worst_case_top_prob(pa_lower: float, sigma: float, r: float) -> float:
    """Minimal top-class probability at L2 offset r: Phi(Phi^-1(pa) - r/sigma).

    This is attained by the halfspace classifier normal to the perturbation,
    so it is the exact worst case over all classifiers consistent with pa.
    """
    if not 0.0 < pa_lower < 1.0:
        raise ValueError("pa_lower must lie strictly in (0, 1)")
    if not sigma > 0.0 or r < 0.0:
        raise ValueError("need sigma > 0 and r >= 0")
    return float(ndtr(ndtri(pa_lower) - r / sigma))


def worst_case_runner_prob(pb_upper: float, sigma: float, r: float) -> float:
    """Maximal runner-up probability at L2 offset r: Phi(Phi^-1(pb) + r/sigma)."""
    if not 0.0 < pb_upper < 1.0:
        raise ValueError("pb_upper must lie strictly in (0, 1)")
    if not sigma > 0.0 or r < 0.0:
        raise ValueError("need sigma > 0 and r >= 0")
    return float(ndtr(ndtri(pb_upper) + r / sigma))


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
    return IntervalClassifier(t=-float(ndtri(0.5 * ndtr(tau))))


def exact_interval_prob(clf: IntervalClassifier, x: float, sigma: float) -> float:
    """Exact inner-label probability Phi((t - x)/sigma) - Phi((-t - x)/sigma)."""
    _check_sigma(sigma)
    return float(ndtr((clf.t - x) / sigma) - ndtr((-clf.t - x) / sigma))


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
    return LinearModel(np.repeat(model.w / 4.0, 4), model.b), 2.0 * sigma_low
