"""Scalar statistical primitives: the normal quantile and exact binomial tails.

Everything downstream (certified radii, confidence bounds, abstention tests)
reduces to these functions:

* the normal quantile is scipy's ``ndtri``;
* the Clopper-Pearson lower bound is the beta quantile ``betaincinv``, rounded
  down until the binomial upper tail at the result is at most alpha, so
  floating-point error never puts the bound on the unsafe side;
* the two-sided p-value of the abstention test is the binomial CDF as a
  regularized incomplete beta function, ``betainc``, rounded up.

The normal quantile accepts floats or numpy arrays and broadcasts
elementwise.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, betaincinv, ndtri

# Relative margin below alpha that the Clopper-Pearson tail must reach, so the
# stopping test does not rely on the last digits of betainc (measured relative
# error up to 3.4e-14 against 40-digit sums for n up to 2e6).
_TAIL_MARGIN = 1e-12

# Relative margin by which the two-sided p-value is raised: the larger of
# 1.5e-11 and 2e-14 sqrt(n).  At x = 1/2, betainc erred on either side of
# 40-digit sums by up to 7.8e-15 sqrt(n) relative (5,300 random (k, n) with n
# from 1e3 to 1e8 and p-values down to 1e-300), e.g. 3.5e-11 at n near 2e7
# and 4.3e-11 at n near 5e7.
_PVALUE_MARGIN = 1.5e-11
_PVALUE_MARGIN_PER_ROOT_N = 2e-14

# Smallest two-sided p-value reported.  From n = 1075, where 2^-n underflows,
# betainc returns 0 for p-values up to 7.9e-254 (n = 1075, lo = 38, against
# 40-digit sums); just above that it is accurate again.
_PVALUE_FLOOR = 1e-250


def std_normal_quantile(p):
    """Inverse standard normal CDF, scipy's ``ndtri``.

    Raises ValueError for p outside the open interval (0, 1).
    """
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile requires 0 < p < 1")
    out = ndtri(arr)
    return float(out) if out.ndim == 0 else out


def binom_two_sided_pvalue(k: int, n: int, p0: float = 0.5) -> float:
    """Two-sided p-value for k successes out of n under p0 = 1/2, rounded up.

    By symmetry of Binomial(n, 1/2) this is P(|X - n/2| >= |k - n/2|) =
    2 P(X <= lo) with lo = min(k, n-k), clamped to 1.  P(X <= lo) is the
    regularized incomplete beta ``betainc(n - lo, lo + 1, 1/2)``, raised by a
    relative margin of max(1.5e-11, 2e-14 sqrt(n)) so the result is never
    below the exact p-value:
    too low a p-value could turn an abstention into a label.  The result is
    at least 1e-250, because betainc underflows to 0 early near n = 1100, so
    any alpha below that floor abstains.  Only the symmetric null is
    supported; two-sided conventions diverge for p0 != 1/2.
    """
    if not 0 <= k <= n or n < 1:
        raise ValueError("need 0 <= k <= n and n >= 1")
    if p0 != 0.5:
        raise ValueError("only the symmetric null p0 = 1/2 is supported")
    lower = min(k, n - k)
    margin = max(_PVALUE_MARGIN, _PVALUE_MARGIN_PER_ROOT_N * math.sqrt(n))
    pvalue = 2.0 * float(betainc(n - lower, lower + 1, 0.5)) * (1.0 + margin)
    return min(1.0, max(pvalue, _PVALUE_FLOOR))


def clopper_pearson_lower(k: int, n: int, alpha: float) -> float:
    """One-sided (1 - alpha) lower confidence limit for a binomial proportion.

    Clopper & Pearson (1934) give P(Binomial(n, p) >= k) = I_p(k, n - k + 1),
    so the limit is the beta quantile ``betaincinv(k, n - k + 1, alpha)``.
    That quantile lands on either side of the root, so p is rounded down, by
    a step that doubles from one ulp, until ``betainc`` puts the tail below
    alpha by a relative margin of 1e-12.  (scipy's ``bdtrc`` is not used for
    this check: at n near 1e6 it is off by up to 4e-9 relative.)  Guarantees
    P(result <= p_true) >= 1 - alpha over the sampling of k.  The k = 0 case
    returns 0 exactly; the k = n case solves p^n = alpha.
    """
    if not 0 <= k <= n or n < 1:
        raise ValueError("need 0 <= k <= n and n >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if k == 0:
        return 0.0

    p = float(betaincinv(k, n - k + 1, alpha))
    limit = alpha * (1.0 - _TAIL_MARGIN)
    step = math.ulp(p)
    while p > 0.0 and betainc(k, n - k + 1, p) > limit:
        p = max(p - step, 0.0)
        step *= 2.0
    return p
