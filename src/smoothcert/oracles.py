"""The three fixed base classifiers that model files can hold.

* ``ConstantClassifier`` -- one label everywhere.
* ``LinearModel`` -- a two-class halfspace.  Smoothing leaves it unchanged, so
  its smoothed probabilities, robust radius and worst case have closed forms;
  the paper's tightness construction is such a halfspace.
* ``IntervalClassifier`` -- the 1-D classifier whose certificate can be
  arbitrarily loose: one label inside [-t, t], another outside.

The closed forms themselves live with the tests that check the package
against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .smoothing import DifferentiableClassifier, BaseClassifier


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
