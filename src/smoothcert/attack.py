"""Projected gradient ascent against a smoothed classifier inside an L2 ball.

The attack maximizes the expected softmax cross-entropy of the base
classifier under the smoothing noise,

    max_{||delta|| <= r}  E_eps [ loss(scores(x + delta + eps), true label) ],

by steepest ascent: at each step the gradient is averaged over k fresh noise
draws, normalized, scaled by the step size, and the iterate is projected back
onto the ball.  Success is judged separately, by whether a fresh smoothed
prediction at x + delta returns some label other than the true one; the loss
value itself proves nothing about the vote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseStream
from .smoothing import DifferentiableClassifier, SmoothingParams, predict

_GRADIENT_STREAM_TAG = 0x6AD
_EVAL_STREAM_TAG = 0xE7A1

SUCCESS_CHECK_SAMPLES = 10_000
SUCCESS_CHECK_ALPHA = 0.01


@dataclass(frozen=True)
class AttackParams:
    """Ball radius, noise level, and optimization schedule for one attack."""

    radius: float
    sigma: float
    k: int = 1000
    steps: int = 20
    step_size: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.radius, self.sigma, self.step_size)):
            raise ValueError("radius, sigma, and step_size must be positive and finite")
        if self.k < 1 or self.steps < 1:
            raise ValueError("k and steps must be >= 1")


@dataclass(frozen=True)
class AttackResult:
    delta: np.ndarray
    success: bool
    zero_gradient_steps: int


def project_to_ball(z: np.ndarray, r: float) -> np.ndarray:
    """Project onto {z: ||z||_2 <= r}: z unchanged inside, rescaled to norm r outside."""
    if not r > 0.0:
        raise ValueError("r must be positive")
    z = np.asarray(z, dtype=np.float64)
    return r * z / max(r, float(np.linalg.norm(z)))


def pgd_attack(model: DifferentiableClassifier, x, label: int,
               params: AttackParams) -> AttackResult:
    """Run the projected-gradient attack; deterministic given params.seed.

    Starts from delta = 0 and takes params.steps normalized ascent steps, each
    averaging softmax cross-entropy input gradients over params.k fresh noise
    draws.  A zero Monte Carlo gradient leaves delta unchanged for that step
    and is counted in the result.  The returned success flag comes from a
    fresh smoothed prediction at x + delta (n = 10^4, alpha = 0.01) on a
    noise domain disjoint from the gradient draws.
    """
    x = np.asarray(x, dtype=np.float64)
    dim = x.shape[0]
    root = NoiseStream(params.seed)
    grad_noise = root.substream(_GRADIENT_STREAM_TAG)

    delta = np.zeros(dim)
    zero_steps = 0
    for step in range(params.steps):
        eps = params.sigma * grad_noise.standard_normals(step, 0, params.k, dim)
        grads = model.loss_input_gradients(x[None, :] + delta[None, :] + eps, label)
        g = grads.mean(axis=0)
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            zero_steps += 1
            continue
        delta = project_to_ball(delta + params.step_size * g / norm, params.radius)

    eval_params = SmoothingParams(sigma=params.sigma, n0=1,
                                  n=SUCCESS_CHECK_SAMPLES, alpha=SUCCESS_CHECK_ALPHA)
    outcome = predict(model, eval_params, x + delta,
                      root.substream(_EVAL_STREAM_TAG), example_id=0)
    success = (not outcome.abstained) and outcome.label != label
    return AttackResult(delta=delta, success=success, zero_gradient_steps=zero_steps)
