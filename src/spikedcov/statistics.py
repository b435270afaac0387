"""Finite-sample test statistics and decisions.

Given a hypothesized direction theta0 for the j-th principal component,
two tests of H0: θ_j = theta0 are provided, both asymptotically
chi-square with p−1 degrees of freedom under suitable conditions:

* ``anderson_statistic`` — the likelihood-ratio-type statistic
  n (λ̂_j θ₀ᵀS⁻¹θ₀ + λ̂_j⁻¹ θ₀ᵀSθ₀ − 2), computed from the sample
  spectrum; valid only when the spike is strongly identified.
* ``hpv_statistic`` — the Le Cam-style statistic built from Gram-Schmidt
  complements of theta0; retains its chi-square null law across all spike
  regimes, including vanishing spikes.

Pseudo-Gaussian (kurtosis-corrected) versions extend validity to
elliptical distributions with finite fourth moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import _chi2_cdf_sf, chi2_quantile
from .linalg import (
    DegeneracyError,
    EigenSystem,
    _check_unit,
    gram_schmidt_complement,
    sym_eigen,
)

__all__ = [
    "SampleSummary",
    "TestOutcome",
    "summarize",
    "summary_from_covariance",
    "anderson_statistic",
    "hpv_statistic",
    "kurtosis_from_summary",
    "pseudo_gaussian",
    "q_delta",
    "oracle_statistic",
    "decide",
]


@dataclass(frozen=True)
class SampleSummary:
    """Sufficient statistics of a sample: size, mean, covariance (divisor n),
    and the eigendecomposition of the covariance.

    ``centred`` is the pair (X, X − mean) of the data matrix ``summarize``
    was given and its centred copy, which ``kurtosis_from_summary`` reuses
    for that same X; ``None`` in a summary built from a covariance.
    """

    n: int
    mean: np.ndarray
    cov: np.ndarray
    eigen: EigenSystem
    centred: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    @property
    def p(self) -> int:
        return self.cov.shape[0]


@dataclass(frozen=True)
class TestOutcome:
    """Decision record: statistic, degrees of freedom, p-value, level, flag.

    ``reject`` is equivalent to ``statistic > chi2_quantile(1-alpha, df)``
    and to ``pvalue < alpha`` (boundary cases consistent to 1e-12).
    """

    statistic: float
    df: int
    pvalue: float
    alpha: float
    reject: bool


def summarize(X: np.ndarray) -> SampleSummary:
    """Mean, covariance (divisor n) and eigensystem of an n×p data matrix.

    The mean adds the rows in order.  For a C-ordered X of p ≥ 2 columns,
    which every grid draw and :func:`~spikedcov.data.load_csv` give, so
    does ``X.mean(axis=0)``, bit for bit.  numpy sums a single column, or
    the columns of an F-ordered X, pairwise, so there the two differ in
    the last bits.

    Raises
    ------
    ValueError
        If entries are not finite, a column sum overflows, or n < p+1.
    DegeneracyError
        If the covariance is numerically singular: its largest eigenvalue
        is not positive (constant data), or its smallest is below
        1e-12 · largest.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d data matrix")
    n, p = X.shape
    colsum = np.einsum("ij->j", X)
    # A non-finite entry makes its column sum non-finite, so only then is
    # X itself scanned; a finite X there has a sum that overflowed.
    if not np.isfinite(colsum).all():
        if not np.isfinite(X).all():
            raise ValueError("data matrix contains non-finite entries")
        raise ValueError("column sums of the data overflow float64")
    if n < p + 1:
        raise ValueError(f"need n >= p+1 observations, got n={n}, p={p}")
    mean = colsum / n
    Xc = X - mean
    # Exactly symmetric: numpy forms Xcᵀ Xc with BLAS syrk and mirrors one
    # triangle into the other, and its non-BLAS loop adds the same
    # products in the same order for S_kl and S_lk.
    S = (Xc.T @ Xc) / n
    return SampleSummary(n=n, mean=mean, cov=S, eigen=_nonsingular_eigen(S), centred=(X, Xc))


def summary_from_covariance(S: np.ndarray, n: int) -> SampleSummary:
    """Build a SampleSummary directly from a covariance matrix.

    Useful when only the covariance is available (published matrices,
    precomputed summaries).  The mean is set to zero; it plays no role in
    any statistic here.  A singular S raises DegeneracyError, by the rule
    :func:`summarize` applies.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    eigen = _nonsingular_eigen(S)
    S = np.asarray(S, dtype=float)
    return SampleSummary(n=n, mean=np.zeros(S.shape[0]), cov=S, eigen=eigen)


def _nonsingular_eigen(S: np.ndarray) -> EigenSystem:
    """The eigensystem of the covariance S, which must be numerically
    nonsingular: λ̂₁ > 0 and λ̂_p ≥ 1e-12 · λ̂₁, so that every λ̂ is positive.
    A zero S, which constant data give, is singular too."""
    eigen = sym_eigen(S)
    lam = eigen.values
    if not (lam[0] > 0.0 and lam[-1] >= 1e-12 * lam[0]):
        raise DegeneracyError(
            "covariance is numerically singular "
            f"(eigenvalues from {lam[0]:.3e} down to {lam[-1]:.3e})"
        )
    return eigen


def _check_j(s: SampleSummary, j: int) -> int:
    if not 1 <= j <= s.p:
        raise ValueError(f"eigenvector index j must be in 1..{s.p}")
    lam = s.eigen.values
    k = j - 1
    if (k > 0 and lam[k] == lam[k - 1]) or (k < s.p - 1 and lam[k] == lam[k + 1]):
        raise DegeneracyError(
            f"eigenvalue {j} is exactly tied with a neighbour; "
            "the targeted eigenvector is not identified"
        )
    return j


def anderson_statistic(s: SampleSummary, theta0: np.ndarray, j: int = 1) -> float:
    """Likelihood-ratio-type statistic for H0: θ_j = theta0.

    Q = n (λ̂_j θ₀ᵀS⁻¹θ₀ + λ̂_j⁻¹ θ₀ᵀSθ₀ − 2), chi-square(p−1) under H0
    when the spike does not vanish asymptotically.  With a = V̂ᵀθ₀ the
    coordinates of θ₀ in the sample eigenbasis, it is evaluated as

        Q = n Σ_{k≠j} a_k² (λ̂_j − λ̂_k)² / (λ̂_j λ̂_k),

    whose weights vanish as the eigengap closes.  Every term is
    nonnegative, so Q never rounds below zero, even where the form above
    cancels (theta0 near the j-th sample eigenvector).
    """
    theta0 = _check_unit(theta0, "theta0", s.p)
    j = _check_j(s, j)
    lam = s.eigen.values
    lam_j = lam[j - 1]
    a = theta0 @ s.eigen.vectors
    # The k = j term is exactly 0.
    return s.n * float((a * a) @ ((lam - lam_j) ** 2 / (lam * lam_j)))


def hpv_statistic(s: SampleSummary, theta0: np.ndarray, j: int = 1) -> float:
    """Gram-Schmidt-based statistic for H0: θ_j = theta0.

    The frame is obtained by replacing the j-th sample eigenvector with
    theta0 and orthogonalizing the remaining eigenvectors against it (in
    their eigenvalue order); with θ̃_k the member built from the k-th
    eigenvector,

        Q = (n / λ̂_j) · Σ_{k≠j} λ̂_k⁻¹ (θ̃_kᵀ S theta0)².

    Chi-square(p−1) under H0 in every spike regime.
    """
    theta0 = _check_unit(theta0, "theta0", s.p)
    j = _check_j(s, j)
    lam, V = s.eigen.values, s.eigen.vectors
    if j == 1:
        others = slice(1, None)
    else:
        others = np.arange(1, s.p)
        others[: j - 1] -= 1  # 0, ..., j-2, j, ..., p-1
    frame = gram_schmidt_complement(theta0, V[:, others].T)
    proj = frame @ (s.cov @ theta0)
    return s.n / lam[j - 1] * float((proj * proj / lam[others]).sum())


def kurtosis_from_summary(s: SampleSummary, X: np.ndarray) -> float:
    """κ̂ computed against an existing summary (avoids re-decomposing S).

    When ``X`` is the very array ``s`` summarised, its centred copy is
    reused rather than computed again, so ``X`` must not have been
    modified in place since ``summarize``.
    """
    X = np.asarray(X, dtype=float)
    if s.centred is not None and s.centred[0] is X:
        Xc = s.centred[1]
    else:
        Xc = X - s.mean
    # d_i² = Σ_k (Xc V)²_ik / λ_k, the spectral form of Xc S⁻¹ Xcᵀ's diagonal.
    W = Xc @ s.eigen.vectors
    W *= W
    d2 = W @ (1.0 / s.eigen.values)
    d2 *= d2
    return float(np.mean(d2) / (s.p * (s.p + 2)) - 1.0)


def pseudo_gaussian(statistic: float, kappa_hat: float) -> float:
    """Kurtosis-corrected statistic: statistic / (1 + κ̂)."""
    if 1.0 + kappa_hat <= 0.0:
        raise ValueError("pseudo-Gaussian correction requires 1 + kappa_hat > 0")
    return statistic / (1.0 + kappa_hat)


def q_delta(s: SampleSummary, theta0: np.ndarray, v: float, delta: int) -> float:
    """Locally optimal statistic (n/(1+δv)) θ₀ᵀS(I − θ₀θ₀ᵀ)Sθ₀.

    delta is 1 when the spike is constant (r_n ≡ 1) and 0 whenever it
    vanishes (r_n → 0); requires the spike strength v to be known.
    """
    theta0 = _check_unit(theta0, "theta0", s.p)
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    if v < 0:
        raise ValueError("v must be nonnegative")
    # (I − θ₀θ₀ᵀ)Sθ₀ as a vector, so that the value is a squared norm: the
    # scalar form ‖Sθ₀‖² − (θ₀ᵀSθ₀)² cancels near an eigenvector of S.
    St0 = s.cov @ theta0
    u = St0 - (theta0 @ St0) * theta0
    return s.n / (1.0 + delta * v) * float(u @ u)


def oracle_statistic(s: SampleSummary, theta0: np.ndarray, sigma_n: np.ndarray) -> float:
    """Oracle statistic n θ₀ᵀ(S−Σ_n)(I − ½θ₀θ₀ᵀ)(S−Σ_n)θ₀.

    Requires the true null covariance Σ_n; compare against chi-square
    with p (not p−1) degrees of freedom.
    """
    theta0 = _check_unit(theta0, "theta0", s.p)
    sigma_n = np.asarray(sigma_n, dtype=float)
    if sigma_n.shape != s.cov.shape:
        raise ValueError("sigma_n must match the sample covariance shape")
    u = (s.cov - sigma_n) @ theta0
    return s.n * float(u @ u - 0.5 * (theta0 @ u) ** 2)


def decide(statistic: float, df: int, alpha: float) -> TestOutcome:
    """P-value and rejection decision against the chi-square(df) law.

    Raises
    ------
    DegeneracyError
        If ``statistic`` is non-finite or negative.  Every statistic here
        is computed in a form that cannot round below zero, so a negative
        value is a defect, not rounding.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    stat = float(statistic)
    if not 0.0 <= stat < math.inf:  # False for nan too
        raise DegeneracyError(f"statistic {stat!r} is not a finite nonnegative value")
    pvalue = _chi2_cdf_sf(stat, df)[1]
    reject = stat > chi2_quantile(1.0 - alpha, df)
    return TestOutcome(statistic=stat, df=df, pvalue=pvalue, alpha=alpha, reject=reject)
