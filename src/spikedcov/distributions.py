"""Scalar distribution functions, the seeded generator and the elliptical
kurtosis floor."""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = [
    "Rng",
    "make_rng",
    "chi2_cdf",
    "chi2_quantile",
    "noncentral_chi2_cdf",
    "min_kappa",
]

# All randomness flows through numpy Generators (PCG64).  Substreams for
# parallel work are derived via SeedSequence, never by sharing a Generator.
Rng = np.random.Generator


# Largest noncentrality noncentral_chi2_cdf accepts.  Its series runs
# over about 50√(ncp/2) terms, 10⁵ at this bound, and the rounding of
# each log-weight grows as ncp·log(ncp): against scipy.stats.ncx2 the
# cdf is within 1e-9 up to ncp = 10⁶ and 3e-9 at 10⁷.
_MAX_NCP = 1e7


def make_rng(seed) -> Rng:
    """Deterministic generator from a seed (int or SeedSequence)."""
    return np.random.default_rng(seed)


def chi2_cdf(x: float, df: int) -> float:
    """Chi-square CDF via the regularized lower incomplete gamma function."""
    if df < 1:
        raise ValueError("df must be a positive integer")
    if x < 0:
        raise ValueError("x must be nonnegative")
    return float(special.gammainc(df / 2.0, x / 2.0))


def chi2_quantile(q: float, df: int) -> float:
    """Chi-square quantile; inverse of :func:`chi2_cdf` in its first argument."""
    if df < 1:
        raise ValueError("df must be a positive integer")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    return float(2.0 * special.gammaincinv(df / 2.0, q))


def noncentral_chi2_cdf(x: float, df: int, ncp: float) -> float:
    """Noncentral chi-square CDF.

    Poisson mixture: sum_k w_k chi2_cdf(x, df+2k) with w_k = e^{-λ} λ^k / k!
    and λ = ncp/2.  The sum starts at k₀ = ⌊λ − 40√λ⌋ (or 0): by the
    Chernoff bound w_k ≤ exp(−(λ−k)²/(2λ)) < e^{-800} below it, so every
    skipped weight rounds to 0.  From k ≥ λ on it stops once the Poisson
    mass left after term k, at most w_k r/(1−r) with r = λ/(k+1), or
    1 − Σ w_k, is below 1e-12.  Raises ValueError unless ncp is finite,
    nonnegative and at most ``_MAX_NCP``.
    """
    if df < 1:
        raise ValueError("df must be a positive integer")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if not 0.0 <= ncp <= _MAX_NCP:
        raise ValueError(f"ncp must be finite, nonnegative and at most {_MAX_NCP:g}, got {ncp}")
    if ncp == 0.0:
        return chi2_cdf(x, df)
    lam = ncp / 2.0
    log_lam = math.log(lam)
    total = 0.0
    mass = 0.0
    k = max(0, math.floor(lam - 40.0 * math.sqrt(lam)))
    # Weights are evaluated in log space, so e^{-λ} cannot underflow and
    # take every weight near the Poisson mode with it.
    while True:
        w = math.exp(-lam + k * log_lam - math.lgamma(k + 1))
        if w > 0.0:
            mass += w
            total += w * chi2_cdf(x, df + 2 * k)
        if k >= lam:
            r = lam / (k + 1)
            if 1.0 - mass < 1e-12 or w * r / (1.0 - r) < 1e-12:
                break
        k += 1
    return min(total, 1.0)


def min_kappa(p: int) -> float:
    """Lower bound -2/(p+2) of the elliptical kurtosis parameter."""
    return -2.0 / (p + 2)
