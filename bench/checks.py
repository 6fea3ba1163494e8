"""Output checks that use scipy and this directory's own arithmetic, never smoothcert.

A certificate is checked against the closed forms it must satisfy:

* its p_A lower bound may not exceed the Clopper-Pearson bound recomputed from
  the stored counts as ``scipy.stats.beta.ppf(alpha, k, n - k + 1)``;
* its radius must equal ``sigma * ndtri(pa_lower)``;
* its radius may not exceed the sample-budget ceiling
  ``sigma * ndtri(alpha ** (1 / n))``.

Ground truth for labels comes from an analytic oracle (the d=784 halfspace)
or from this file's own forward pass of a saved MLP, so a defect in the code
under test cannot hide itself.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import beta, binom, norm

# bisection leaves the bound up to 1e-10 below the exact root; anything above
# the reference by more than this is an unsound bound, not rounding
PA_TOL = 1e-9
RADIUS_RTOL = 1e-7
# false-alarm probability of the aggregate wrong-certificate check
FALSE_ALARM = 1e-6


def reference_pa_lower(k: int, n: int, alpha: float) -> float:
    """One-sided Clopper-Pearson lower bound from the beta quantile."""
    return 0.0 if k == 0 else float(beta.ppf(alpha, k, n - k + 1))


def radius_ceiling(n: int, alpha: float, sigma: float) -> float:
    """Largest radius n samples can certify: all n agree, p_A = alpha^(1/n)."""
    return sigma * float(ndtri(alpha ** (1.0 / n)))


def radius_tolerance(radius: float, sigma: float) -> float:
    """How far a radius moves when its p_A moves by PA_TOL."""
    return sigma * PA_TOL / float(norm.pdf(radius / sigma)) + 1e-12


def decode_radius(value):
    if value is None:
        return None
    return math.inf if value == "inf" else float(value)


def read_jsonl(path) -> list[dict]:
    """Records of a v1 JSONL file, without its schema header line."""
    with open(path, encoding="utf-8") as fh:
        objs = [json.loads(line) for line in fh if line.strip()]
    return [obj for obj in objs if "schema_version" not in obj]


def certificate_problems(rec: dict) -> list[str]:
    """Ways a stored certificate contradicts its own counts; empty if none."""
    n, alpha, sigma = int(rec["n"]), float(rec["alpha"]), float(rec["sigma"])
    counts = {int(c): int(v) for c, v in (rec.get("counts") or {}).items()}
    if sum(counts.values()) != n:
        return [f"counts sum to {sum(counts.values())}, not n={n}"]
    label = rec["predicted_label"]
    ref = reference_pa_lower(counts.get(label, 0), n, alpha)
    if rec["outcome"] == "abstain":
        if ref > 0.5 + PA_TOL:
            return [f"abstained although the reference bound {ref!r} clears 1/2"]
        return []
    problems = []
    pa_lower = float(rec["pa_lower"])
    radius = decode_radius(rec["radius"])
    if pa_lower > ref + PA_TOL:
        problems.append(f"pa_lower {pa_lower!r} exceeds the reference {ref!r}")
    if not pa_lower > 0.5:
        problems.append(f"certified with pa_lower {pa_lower!r} <= 1/2")
    expected = sigma * float(ndtri(pa_lower))
    if not abs(radius - expected) <= RADIUS_RTOL * max(sigma, abs(expected)):
        problems.append(f"radius {radius!r} != sigma * ndtri(pa_lower) = {expected!r}")
    ceiling = radius_ceiling(n, alpha, sigma)
    if radius > ceiling * (1.0 + RADIUS_RTOL):
        problems.append(f"radius {radius!r} exceeds the sample-budget ceiling {ceiling!r}")
    return problems


def wrong_allowance(count: int, alpha: float) -> int:
    """Most wrong answers among count that alpha explains, at FALSE_ALARM."""
    k = 0
    while binom.sf(k, count, alpha) > FALSE_ALARM:
        k += 1
    return k


def load_mlp_labeler(path):
    """Label function of a saved ``mlp`` model, parsed from the documented
    text format (header ``smoothcert-model 1 mlp dim hidden labels``, then
    W1, b1, W2, b2 row-major).  Ties go to the lowest label, as in argmax."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        params = np.array(fh.read().split(), dtype=np.float64)
    if header[:3] != ["smoothcert-model", "1", "mlp"]:
        raise ValueError(f"{path}: not a version-1 mlp model file")
    dim, hidden, labels = (int(v) for v in header[3:6])
    sizes = [hidden * dim, hidden, labels * hidden, labels]
    w1, b1, w2, b2 = np.split(params, np.cumsum(sizes)[:-1])
    w1, w2 = w1.reshape(hidden, dim), w2.reshape(labels, hidden)

    def labels_of(xs: np.ndarray) -> np.ndarray:
        return np.argmax(np.tanh(xs @ w1.T + b1) @ w2.T + b2, axis=1)

    return labels_of
