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

    Poisson mixture: sum_k e^{-ncp/2} (ncp/2)^k / k! * chi2_cdf(x, df+2k),
    truncated once the remaining Poisson tail mass is below 1e-12.
    """
    if df < 1:
        raise ValueError("df must be a positive integer")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if ncp < 0:
        raise ValueError("ncp must be nonnegative")
    if ncp == 0.0:
        return chi2_cdf(x, df)
    lam = ncp / 2.0
    log_lam = math.log(lam)
    total = 0.0
    mass = 0.0
    k = 0
    # Weights are evaluated in log space so large ncp cannot underflow the
    # k=0 term and stall the tail-mass criterion.
    while True:
        log_w = -lam + k * log_lam - math.lgamma(k + 1)
        w = math.exp(log_w)
        mass += w
        total += w * chi2_cdf(x, df + 2 * k)
        if 1.0 - mass < 1e-12 and k >= lam:
            break
        k += 1
        if k > 1_000_000:  # unreachable for sane ncp; guards nontermination
            raise RuntimeError("noncentral chi-square series failed to converge")
    return min(total, 1.0)


def min_kappa(p: int) -> float:
    """Lower bound -2/(p+2) of the elliptical kurtosis parameter."""
    return -2.0 / (p + 2)
