"""Gaussian-smoothing L2 robustness certification engine."""

from .bounds import (BoundInputs, dp_radius, max_certifiable_radius, renyi_radius,
                     tight_radius, tight_radius_binary)
from .noise import NoiseStream
from .smoothing import (BaseClassifier, Certification, ClassCounts,
                        DifferentiableClassifier, Prediction, SmoothingParams,
                        certify, predict, project_counts, sample_under_noise)
from .statfun import binom_two_sided_pvalue, clopper_pearson_lower, std_normal_quantile

__all__ = [
    "BaseClassifier", "BoundInputs", "Certification", "ClassCounts",
    "DifferentiableClassifier", "NoiseStream", "Prediction", "SmoothingParams",
    "binom_two_sided_pvalue", "certify", "clopper_pearson_lower", "dp_radius",
    "max_certifiable_radius", "predict", "project_counts", "renyi_radius",
    "sample_under_noise", "std_normal_quantile", "tight_radius", "tight_radius_binary",
]

__version__ = "0.1.0"
