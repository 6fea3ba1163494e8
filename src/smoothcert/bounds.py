"""Certified L2 radii for Gaussian-smoothed classifiers.

Three competing guarantees take the same inputs (a lower bound on the top
class probability, an upper bound on the runner-up probability, and the noise
level sigma) and return a radius inside which the smoothed prediction cannot
change:

* ``tight_radius`` -- the Neyman-Pearson bound sigma/2 (Phi^-1(pa) - Phi^-1(pb)),
  which is exact: no larger set is certifiable from these probabilities alone.
* ``dp_radius`` -- the earlier differential-privacy (Gaussian mechanism) bound,
  maximized over its internal privacy parameter beta.
* ``renyi_radius`` -- the Renyi-divergence bound, maximized over the divergence
  order alpha > 1.

The two prior bounds are strictly smaller wherever pa < 1; they exist here so
the improvement is measurable, and as regression anchors for the ordering
tight >= renyi >= dp (renyi >= dp holds from pa of about 0.1 up; below it dp
can be the larger of the two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statfun import std_normal_quantile

_GRID_POINTS = 1024


@dataclass(frozen=True)
class BoundInputs:
    """Class-probability bounds and noise level feeding a radius formula.

    Invariants: 0 <= pb_upper <= pa_lower <= 1 and 0 < sigma < inf.
    """

    pa_lower: float
    pb_upper: float
    sigma: float

    def __post_init__(self):
        if not 0.0 <= self.pb_upper <= self.pa_lower <= 1.0:
            raise ValueError("need 0 <= pb_upper <= pa_lower <= 1")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")


def tight_radius(inputs: BoundInputs) -> float:
    """Exact certified radius sigma/2 (Phi^-1(pa_lower) - Phi^-1(pb_upper)).

    Returns 0.0 when the probability bounds coincide and math.inf when
    pa_lower = 1 or pb_upper = 0 (the guarantee is unbounded there).
    """
    pa, pb = inputs.pa_lower, inputs.pb_upper
    if pa == pb:
        return 0.0
    if pa == 1.0 or pb == 0.0:
        return math.inf
    return 0.5 * inputs.sigma * (std_normal_quantile(pa) - std_normal_quantile(pb))


def tight_radius_binary(pa_lower: float, sigma: float) -> float:
    """Two-class specialization sigma * Phi^-1(pa_lower), for pb = 1 - pa.

    Raises ValueError unless 1/2 < pa_lower < 1; certification must abstain
    rather than call this outside that range.
    """
    if not 0.5 < pa_lower < 1.0:
        raise ValueError("binary radius requires 1/2 < pa_lower < 1")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return sigma * std_normal_quantile(pa_lower)


def max_certifiable_radius(n: int, alpha: float, sigma: float) -> float:
    """Ceiling sigma * Phi^-1(alpha^(1/n)) on any radius reachable with n samples.

    Even if every one of n noisy evaluations agrees, the one-sided binomial
    lower bound cannot exceed alpha^(1/n); this converts that ceiling into a
    radius.  Raises ValueError when alpha^(1/n) <= 1/2 (nothing certifiable).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    p = math.exp(math.log(alpha) / n)
    if p <= 0.5:
        raise ValueError("alpha^(1/n) <= 1/2: no radius certifiable at this n")
    return sigma * std_normal_quantile(p)


def _log_grid_max(f_vec, lo: float, hi: float) -> float:
    """Max of f_vec on [lo, hi]: a coarse log grid brackets it, then scipy's
    bounded Brent refines the bracket; the result is never below the grid's best."""
    # imported here, not at module level: scipy.optimize would add about 190 ms
    # and 22 MB to every smoothcert start, and only the two baseline radii use it
    from scipy.optimize import minimize_scalar

    grid = np.geomspace(lo, hi, _GRID_POINTS)
    vals = f_vec(grid)
    best = int(np.nanargmax(vals))
    if not np.isfinite(vals[best]):
        return 0.0
    bracket = (grid[max(best - 1, 0)], grid[min(best + 1, _GRID_POINTS - 1)])
    found = minimize_scalar(lambda x: -float(f_vec(np.asarray([x]))[0]), bounds=bracket,
                            method="bounded", options={"xatol": 1e-9})
    return max(-float(found.fun), float(vals[best]))


def dp_radius(inputs: BoundInputs) -> float:
    """Differential-privacy certified radius, maximized over the parameter beta.

    Objective: sigma * beta / sqrt(2 log(1.25 (1 + e^beta) / (pa - e^(2 beta) pb)))
    over 0 < beta <= min(1, log(pa/pb)/2), intersected with the feasibility
    constraint pa - e^(2 beta) pb > 0 (minus a 1e-12 margin so the log argument
    stays positive).  Returns 0 when pa <= pb.
    """
    pa, pb, sigma = inputs.pa_lower, inputs.pb_upper, inputs.sigma
    if pa <= pb:
        return 0.0
    feasible = math.inf if pb == 0.0 else 0.5 * math.log(pa / pb)
    beta_max = min(1.0, feasible - 1e-12)
    if beta_max <= 0.0:
        return 0.0

    def objective(beta: np.ndarray) -> np.ndarray:
        margin = pa - np.exp(2.0 * beta) * pb
        out = np.full(beta.shape, -np.inf)
        ok = margin > 0.0
        out[ok] = sigma * beta[ok] / np.sqrt(
            2.0 * np.log(1.25 * (1.0 + np.exp(beta[ok])) / margin[ok]))
        return out

    return _log_grid_max(objective, beta_max * 1e-9, beta_max)


def renyi_radius(inputs: BoundInputs) -> float:
    """Renyi-divergence certified radius, maximized over the order alpha > 1.

    Objective: sigma * sqrt(-(2/alpha) log(1 - pa - pb + 2 M_alpha)) where
    M_alpha = (0.5 (pa^(1-alpha) + pb^(1-alpha)))^(1/(1-alpha)) is the power
    mean of order 1-alpha.  With r = pa/pb and u = alpha - 1 the mean is
    evaluated as M_alpha / pb - 1 = expm1(-log1p(expm1(-u log r) / 2) / u):
    nothing overflows (pb^(1-alpha) does at large orders, and a mean read as 0
    would certify more than the tight radius), and every step keeps its relative
    precision, so pa + pb - 2 M_alpha keeps its digits near ties, where it is
    of order (pa - pb)^2.  Searched over u on a logarithmic grid; orders with
    log argument outside (0, 1) certify nothing and are skipped.  Returns 0
    when pa = pb, and for pb = 0 the supremum sigma sqrt(-2 log(1 - pa)),
    approached as alpha -> 1 (math.inf when pa = 1).
    """
    pa, pb, sigma = inputs.pa_lower, inputs.pb_upper, inputs.sigma
    if pa == pb:
        return 0.0
    if pb == 0.0:
        return math.inf if pa == 1.0 else sigma * math.sqrt(-2.0 * math.log1p(-pa))
    log_ratio = math.log1p((pa - pb) / pb)

    def objective(u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # log_ratio = inf when pb is subnormal
            excess = np.expm1(-np.log1p(0.5 * np.expm1(-u * log_ratio)) / u)
        gap = (pa - pb) - 2.0 * pb * excess  # pa + pb - 2 M_alpha
        out = np.full(u.shape, -np.inf)
        ok = (gap > 0.0) & (gap < 1.0)
        out[ok] = sigma * np.sqrt(-(2.0 / (1.0 + u[ok])) * np.log1p(-gap[ok]))
        return out

    return _log_grid_max(objective, 1e-8, 1e4)
