"""Scalar distribution functions and matrix-variate limit-law samplers."""

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
    "sample_goe",
    "sample_z_elliptical",
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


def sample_goe(p: int, rng: Rng) -> np.ndarray:
    """Symmetric Gaussian matrix Z = (G + Gᵀ)/√2, G iid standard normal.

    vec(Z) has covariance I_{p²} + K_p: diagonal entries have variance 2,
    off-diagonal entries variance 1.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    G = rng.standard_normal((p, p))
    return (G + G.T) / math.sqrt(2.0)


def min_kappa(p: int) -> float:
    """Lower bound -2/(p+2) of the elliptical kurtosis parameter."""
    return -2.0 / (p + 2)


def _vech_indices(p: int):
    return [(i, j) for j in range(p) for i in range(j, p)]


def _elliptical_vech_factor(p: int, kappa: float) -> np.ndarray:
    # Covariance of the lower-triangle coordinates of Z_f:
    #   Var(Z_ii) = 2 + 3κ, Cov(Z_ii, Z_jj) = κ (i ≠ j),
    #   Var(Z_ij) = 1 + κ (i < j), all other covariances zero.
    idx = _vech_indices(p)
    d = len(idx)
    C = np.zeros((d, d))
    for a, (i, j) in enumerate(idx):
        for b, (k, l) in enumerate(idx):
            if i == j and k == l:
                C[a, b] = 2.0 + 3.0 * kappa if i == k else kappa
            elif i != j and k != l:
                C[a, b] = 1.0 + kappa if (i, j) == (k, l) else 0.0
    lam, Q = np.linalg.eigh(C)
    if np.min(lam) < -1e-8:
        raise ValueError("elliptical covariance is not positive semidefinite")
    return Q * np.sqrt(np.clip(lam, 0.0, None))


def sample_z_elliptical(p: int, kappa: float, rng: Rng) -> np.ndarray:
    """Elliptical limit matrix Z_f.

    vec(Z_f) has covariance (1+κ)(I_{p²}+K_p) + κ (vec I_p)(vec I_p)ᵀ.
    For κ ≥ 0 the direct construction √(1+κ)·Z + √κ·g·I_p is used; for
    -2/(p+2) ≤ κ < 0 the matrix is assembled from a square root of the
    target covariance restricted to lower-triangle coordinates.
    """
    if kappa < min_kappa(p) - 1e-12:
        raise ValueError(f"kappa must be at least -2/(p+2) = {min_kappa(p):.6f}")
    if kappa == 0.0:
        return sample_goe(p, rng)
    if kappa > 0.0:
        Z = sample_goe(p, rng)
        g = float(rng.standard_normal())
        return math.sqrt(1.0 + kappa) * Z + math.sqrt(kappa) * g * np.eye(p)
    F = _elliptical_vech_factor(p, kappa)
    y = F @ rng.standard_normal(F.shape[1])
    Z = np.zeros((p, p))
    for val, (i, j) in zip(y, _vech_indices(p)):
        Z[i, j] = val
        Z[j, i] = val
    return Z
