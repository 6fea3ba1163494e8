"""Independent reference implementations used as test oracles.

Nothing here imports from smoothcert's numerical paths: the normal quantile
comes from mpmath (and scipy.stats.norm where machine precision suffices),
binomial quantities from exact big-integer rational arithmetic, and the 1-D
bound maximizations from brute-force dense grids, and softmax loss input
gradients from central differences of the loss.  Expected values
frozen in the tests were computed with these functions.  The one exception
is reference_train: it takes the initial weights and the augmentation noise
from smoothcert, and checks only the descent arithmetic that follows.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.special import logsumexp
from scipy.stats import norm as scipy_norm

mp.mp.dps = 40


def normal_quantile(p: float) -> float:
    """Inverse normal CDF by bisection on the mpmath CDF."""
    lo, hi = mp.mpf(-12), mp.mpf(12)
    target = mp.mpf(repr(p))
    for _ in range(140):
        mid = (lo + hi) / 2
        if mp.ncdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def exact_binom_cdf(k: int, n: int, p: Fraction) -> Fraction:
    """P(Binomial(n, p) <= k) as an exact rational, summed in integers."""
    num, den = p.numerator, p.denominator
    total = sum(math.comb(n, j) * num**j * (den - num)**(n - j) for j in range(k + 1))
    return Fraction(total, den**n)


def binom_upper_tail(k: int, n: int, p: float) -> mp.mpf:
    """P(Binomial(n, p) >= k) to 40 digits, summed term by term in mpmath
    over whichever side of k has fewer terms."""
    p = mp.mpf(p)
    upper = n - k < k
    side = range(k, n + 1) if upper else range(k)
    total = mp.fsum(mp.binomial(n, j) * p**j * (1 - p)**(n - j) for j in side)
    return total if upper else 1 - total


def exact_two_sided_pvalue(k: int, n: int) -> Fraction:
    """P(|X - n/2| >= |k - n/2|) for X ~ Binomial(n, 1/2), exactly."""
    lower = min(k, n - k)
    if 2 * lower == n:
        return Fraction(1)
    return min(Fraction(1), 2 * exact_binom_cdf(lower, n, Fraction(1, 2)))


def binom_two_sided_pvalue_mp(k: int, n: int) -> mp.mpf:
    """exact_two_sided_pvalue to 40 digits for large n: P(X <= lo) summed in
    mpmath from j = lo down, each term the last times j / (n - j + 1), until
    a term no longer moves the 40th digit."""
    lower = min(k, n - k)
    if 2 * lower == n:
        return mp.mpf(1)
    term = mp.binomial(n, lower) / mp.mpf(2) ** n
    total = mp.mpf(0)
    for j in range(lower, -1, -1):
        total += term
        if term < total * mp.mpf(10) ** -45:
            break
        term *= mp.mpf(j) / (n - j + 1)
    return min(mp.mpf(1), 2 * total)


def exact_clopper_pearson_lower(k: int, n: int, alpha: float, bits: int = 60) -> float:
    """Largest p with P(Binomial(n, p) >= k) <= alpha, via exact-tail bisection."""
    if k == 0:
        return 0.0
    alpha_frac = Fraction(alpha).limit_denominator(10**15)
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(bits):
        mid = (lo + hi) / 2
        tail = 1 - exact_binom_cdf(k - 1, n, mid)
        if tail <= alpha_frac:
            lo = mid
        else:
            hi = mid
    return float(lo)


def _softmax_copy(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def loss_input_gradients(model, xs: np.ndarray, label: int,
                         step: float = 1e-5) -> np.ndarray:
    """Softmax cross-entropy input gradients, one row per sample, by central
    differences of the loss computed from model.scores_batch alone: what the
    models' analytic loss_input_gradients must match."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))

    def loss(batch):
        scores = model.scores_batch(batch)
        return logsumexp(scores, axis=1) - scores[:, label]

    out = np.empty_like(xs)
    for j in range(xs.shape[1]):
        bump = np.zeros(xs.shape[1])
        bump[j] = step
        out[:, j] = (loss(xs + bump) - loss(xs - bump)) / (2.0 * step)
    return out


def dp_radius_grid(pa: float, pb: float, sigma: float, points: int = 100_000) -> float:
    """Dense log-grid maximization of the differential-privacy radius."""
    if pa <= pb:
        return 0.0
    feasible = math.inf if pb == 0.0 else 0.5 * math.log(pa / pb)
    beta_max = min(1.0, feasible - 1e-12)
    if beta_max <= 0.0:
        return 0.0
    beta = np.geomspace(beta_max * 1e-9, beta_max, points)
    margin = pa - np.exp(2.0 * beta) * pb
    ok = margin > 0.0
    vals = sigma * beta[ok] / np.sqrt(2.0 * np.log(1.25 * (1.0 + np.exp(beta[ok])) / margin[ok]))
    return float(vals.max())


def renyi_radius_grid(pa: float, pb: float, sigma: float, points: int = 100_000) -> float:
    """Dense log-grid maximization of the Renyi-divergence radius over alpha > 1.

    The power mean is factored as pb (0.5 (1 + (pa/pb)^(1-alpha)))^(1/(1-alpha)):
    pa/pb >= 1 raised to 1 - alpha < 0 cannot overflow, where pb^(1-alpha)
    does at large alpha.  This differs from smoothcert's log-space form, so the
    grid stays an independent check.  Needs pb > 0.
    """
    if pa == pb:
        return 0.0
    u = np.geomspace(1e-8, 1e4, points)
    alpha = 1.0 + u
    mean = pb * (0.5 * (1.0 + (pa / pb) ** (1.0 - alpha))) ** (1.0 / (1.0 - alpha))
    arg = 1.0 - pa - pb + 2.0 * mean
    ok = (arg > 0.0) & (arg < 1.0)
    if not np.any(ok):
        return 0.0
    vals = sigma * np.sqrt(-(2.0 / alpha[ok]) * np.log(arg[ok]))
    return float(vals.max())


def tight_radius_ref(pa: float, pb: float, sigma: float) -> float:
    """Tight radius from scipy's independent quantile implementation."""
    return 0.5 * sigma * float(scipy_norm.ppf(pa) - scipy_norm.ppf(pb))


def bernstein_ref(y: int, m: int, alpha: float, rho: float) -> float:
    """High-precision Bernstein lower bound via mpmath."""
    y_, m_, a, r = (mp.mpf(v) for v in (y, m, repr(alpha), repr(rho)))
    log_term = mp.log(1 / r)
    value = (y_ / m_ - a - mp.sqrt(2 * a * (1 - a) * log_term / m_)
             - log_term / (3 * m_)) / (1 - a)
    return float(max(mp.mpf(0), value))


def reference_train(examples, cfg) -> tuple[list[np.ndarray], list[float]]:
    """(parameters, loss_history) of train_with_noise, by a two-pass loop.

    Every mini-batch runs the forward pass twice, as smoothcert did before
    its single-pass step: once for the loss, and again for the gradient,
    each on freshly allocated arrays.  Parameters are [weights, biases] for
    logistic models and [w1, b1, w2, b2] for MLPs.
    """
    from smoothcert import training

    xs = np.asarray([np.asarray(e.features, dtype=np.float64) for e in examples])
    labels = np.asarray([e.label for e in examples], dtype=np.int64)
    n, dim = xs.shape
    root = training.NoiseStream(cfg.seed)
    model = training._init_model(cfg, dim, int(labels.max()) + 1,
                                 root.substream(training._INIT_STREAM_TAG))
    augment = root.substream(training._AUGMENT_STREAM_TAG)
    shuffler = np.random.default_rng(cfg.seed)
    mlp = cfg.model_kind == "mlp"
    if mlp:
        w1, b1, w2, b2 = (p.copy() for p in (model.w1, model.b1, model.w2, model.b2))
    else:
        w, c = model.weights.copy(), model.biases.copy()

    def scores(batch):
        if mlp:
            return np.tanh(batch @ w1.T + b1) @ w2.T + b2
        return batch @ w.T + c

    losses = []
    for epoch in range(cfg.epochs):
        noisy = xs
        if cfg.sigma_train > 0.0:
            noisy = xs + cfg.sigma_train * augment.standard_normals(epoch, 0, n, dim)
        order = shuffler.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            batch, batch_labels = noisy[idx], labels[idx]
            rows = np.arange(len(idx))
            picked = _softmax_copy(scores(batch))[rows, batch_labels]
            epoch_loss += float(-np.mean(np.log(np.maximum(picked, 1e-300)))) * len(idx)
            lr = cfg.learning_rate
            if mlp:
                h = np.tanh(batch @ w1.T + b1)
                coeffs = _softmax_copy(h @ w2.T + b2)
            else:
                coeffs = _softmax_copy(batch @ w.T + c)
            coeffs[rows, batch_labels] -= 1.0
            coeffs /= len(idx)
            if mlp:
                grad_h = (coeffs @ w2) * (1.0 - h * h)
                w2 -= lr * coeffs.T @ h
                b2 -= lr * coeffs.sum(axis=0)
                w1 -= lr * grad_h.T @ batch
                b1 -= lr * grad_h.sum(axis=0)
            else:
                w -= lr * coeffs.T @ batch
                c -= lr * coeffs.sum(axis=0)
        losses.append(epoch_loss / n)
    return ([w1, b1, w2, b2] if mlp else [w, c]), losses
