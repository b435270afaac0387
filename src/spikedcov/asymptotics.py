"""Limiting-law machinery for the weak-identifiability regimes.

When the spike r_n v shrinks at or below the 1/√n contiguity rate, the
Anderson statistic no longer converges to chi-square(p−1); its limit is
the random-matrix functional

    Q_A  →  Σ_{j=2}^p (ℓ₁(v) − ℓ_j(v))² (w_{j1}(v))²,

built from the spectrum and eigenvector frame of the limit matrix Z_f
with a rank-one shift v.  This module draws Z_f (Gaussian and elliptical,
one construction for every κ), samples that law, estimates the resulting
type-I risks, evaluates the joint eigenvalue density, and provides the
noncentrality parameters and power curves of the local analysis.  The
risk estimator never computes the law's value: one Cholesky
factorization per draw decides whether it exceeds the critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .distributions import Rng, chi2_quantile, min_kappa, noncentral_chi2_cdf
from .linalg import _check_unit
from .statistics import SampleSummary

__all__ = [
    "LocalExperiment",
    "RiskEstimate",
    "sample_z_elliptical",
    "qa_limit_sample",
    "type1_risk_iii",
    "eigen_limit_sample",
    "joint_eigenvalue_density",
    "ncp_regime12",
    "ncp_hpv_iii",
    "ncp_oracle_iii",
    "asymptotic_power",
    "local_experiment",
]

REGIMES = ("i", "ii", "iii", "iv")

# Matrices per block of the risk estimator: 2048 up to p = 10, then as
# many as fill 1.6 MB per stacked array.  The generator fills a block's
# normals in order, so the block bounds memory and keeps the stream; it
# is also the batch of every elementwise pass in _limit_law_hits.
_BLOCK = 2048


@dataclass(frozen=True)
class LocalExperiment:
    """Central sequence and Fisher information of the local experiment."""

    delta: int
    central: np.ndarray
    info: np.ndarray


def _check_kappa(p: int, kappa: float) -> None:
    if not (math.isfinite(kappa) and kappa >= min_kappa(p) - 1e-12):
        raise ValueError(
            f"kappa must be finite and at least -2/(p+2) = {min_kappa(p):.6f}, got {kappa}"
        )


def _check_v(v: float) -> None:
    if not (math.isfinite(v) and v >= 0.0):
        raise ValueError(f"v must be finite and nonnegative, got {v}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")


def _elliptical_block(p: int, kappa: float, m: int, rng: Rng) -> np.ndarray:
    """m independent draws of Z_f as an (m, p, p) stack; see
    :func:`sample_z_elliptical`.

    With Y = √(1+κ)·(G + Gᵀ)/√2, Var Y_ii = 2(1+κ) and the diagonal shift
    c·mean(diag Y) adds κ to every Cov(Z_ii, Z_jj), since
    (2(1+κ)/p)((1+c)² − 1) = κ; Var Z_ij = 1+κ is left as it is.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    _check_kappa(p, kappa)
    G = rng.standard_normal((m, p, p))
    Z = G + G.swapaxes(1, 2)
    # At κ = 0 this divides by √2 itself, as the plain GOE does, so the
    # Gaussian stream keeps its bits.
    Z /= math.sqrt(2.0 / (1.0 + kappa))
    # The radicand is ≥ 0 exactly when κ ≥ −2/(p+2); the clamp absorbs
    # the rounding slack that _check_kappa allows below the floor.
    c = math.sqrt(max(1.0 + p * kappa / (2.0 * (1.0 + kappa)), 0.0)) - 1.0
    diag = Z.reshape(m, p * p)[:, :: p + 1]
    diag += (c / p) * diag.sum(axis=1, keepdims=True)
    return Z


def sample_z_elliptical(p: int, kappa: float, rng: Rng) -> np.ndarray:
    """Elliptical limit matrix Z_f, symmetric p×p.

    vec(Z_f) has covariance (1+κ)(I_{p²}+K_p) + κ (vec I_p)(vec I_p)ᵀ:
    Var Z_ii = 2+3κ, Cov(Z_ii, Z_jj) = κ, Var Z_ij = 1+κ.  One O(p²)
    construction holds for every κ ≥ −2/(p+2): with G iid standard
    normal p×p and Y = √(1+κ)·(G + Gᵀ)/√2,

        Z_f = Y + c·mean(diag Y)·I,   c = √(1 + pκ/(2(1+κ))) − 1.

    At κ = 0 the scale is 1 and c = 0, so Z_f is the Gaussian orthogonal
    ensemble (G + Gᵀ)/√2 bit for bit.  The draw uses the generator
    exactly as one draw of the block risk estimators does.  Raises
    ValueError when κ is non-finite or below −2/(p+2).
    """
    return _elliptical_block(p, kappa, 1, rng)[0]


def qa_limit_sample(p: int, v: float, kappa: float = 0.0, *, rng: Rng) -> float:
    """One draw from the limiting null law of the Anderson statistic.

    With Z = Z_f + diag(v, 0, ..., 0), returns Σ_{j≥2} (ℓ₁−ℓ_j)² w_{j1}²,
    divided by (1+κ) so that the elliptical version matches the limit of
    the kurtosis-corrected statistic.  v = 0 gives the strict-contiguity
    (vanishing spike) law.  The sum equals ‖(Z − ℓ₁I)e₁‖², so only the
    top eigenvalue ℓ₁ is computed, by ``np.linalg.eigvalsh``.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    _check_v(v)
    return float(_qa_limit_block(p, v, kappa, 1, rng)[0])


def _qa_limit_block(p: int, v: float, kappa: float, m: int, rng: Rng) -> np.ndarray:
    """m draws of :func:`qa_limit_sample`, equal to m successive calls.

    Expanding e₁ in the eigenvectors w_j of Z gives
    (Z − ℓ₁I)e₁ = Σ_j (ℓ_j − ℓ₁) w_{j1} w_j, so ‖(Z − ℓ₁I)e₁‖² is the
    limit-law sum Σ_{j≥2} (ℓ₁ − ℓ_j)² w_{j1}² without the eigenvectors.
    """
    Z = _elliptical_block(p, kappa, m, rng)
    Z[:, 0, 0] += v
    col = Z[:, :, 0].copy()
    col[:, 0] -= np.linalg.eigvalsh(Z)[:, -1]
    return (col * col).sum(axis=1) / (1.0 + kappa)


def _limit_law_hits(Z: np.ndarray, c: float) -> np.ndarray:
    """Whether ‖(Z − ℓ₁I)e₁‖² exceeds c > 0, for each symmetric matrix of
    an (m, p, p) stack, p ≥ 2, decided without ℓ₁.  A value of exactly c
    gives a zero pivot below and counts as a hit.

    With r² = Σ_{i≥2} Z_{i1}², ‖(Z − ℓ₁I)e₁‖² = (ℓ₁ − Z₁₁)² + r², and
    ℓ₁ ≥ Z₁₁.  So a draw is a hit iff r² ≥ c, or else iff ℓ₁ exceeds
    t = Z₁₁ + √(c − r²), that is iff A = tI − Z is not positive definite.
    The pivots d_j of A's square-root-free Cholesky factorization
    A = LDLᵀ decide that: a hit is a pivot ≤ 0.  A₁₁ is set to √(c − r²)
    itself, so that t − Z₁₁ does not cancel, and to 0 where r² ≥ c, so
    that the first pivot decides those draws.

    The batch goes on the last, contiguous axis, so every step is an
    elementwise pass over rows of m values, and no LAPACK routine runs.
    Column j of L comes from the columns before it (left-looking):
    d_j L_ij = A_ij − Σ_{k<j} L_ik d_k L_jk for i ≥ j.
    """
    m, p, _ = Z.shape
    A = np.negative(Z.transpose(1, 2, 0), out=np.empty((p, p, m)))
    r2 = np.einsum("ib,ib->b", A[1:, 0], A[1:, 0])
    s = np.sqrt(np.maximum(c - r2, 0.0))
    # A = tI − Z with the batch last.  Only its lower triangle is read,
    # and its diagonal ends up holding D.
    diag = A.reshape(p * p, m)[:: p + 1]
    diag += Z[:, 0, 0] + s
    diag[0] = s
    hit = np.zeros(m, dtype=bool)
    for j in range(p):
        col = A[j:, j]
        if j:
            col = col - np.einsum("ikb,kb->ib", A[j:, :j], A[j, :j] * diag[:j])
        d = col[0]
        positive = d > 0.0
        hit |= ~positive
        # A draw with a pivot ≤ 0 is decided: a zero column keeps it out of
        # the pivots after it, and keeps their arithmetic in range.
        inv = np.divide(1.0, d, out=np.zeros(m), where=positive)
        diag[j] = d
        np.multiply(col[1:], inv, out=A[j + 1 :, j])
    return hit


class RiskEstimate(NamedTuple):
    """Monte Carlo estimate of a rejection probability."""

    risk: float
    se: float
    M: int


def type1_risk_iii(
    p: int, v: float, alpha: float, M: int, rng: Rng, *, kappa: float = 0.0
) -> RiskEstimate:
    """Approximate asymptotic type-I risk of the Anderson test on the
    contiguity boundary (r_n = 1/√n, spike strength v), with binomial SE.
    v = 0 gives the risk below the contiguity rate (vanishing spike).

    The optional ``kappa`` switches to the elliptical limit law of the
    kurtosis-corrected statistic, drawn through :func:`sample_z_elliptical`'s
    construction in blocks; it raises ValueError when κ is non-finite or
    below −2/(p+2).  A negative or non-finite v, or alpha outside (0, 1),
    raises ValueError too.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if M < 1:
        raise ValueError("M must be at least 1")
    _check_v(v)
    _check_alpha(alpha)
    # A draw of qa_limit_sample exceeds crit iff its ‖(Z − ℓ₁I)e₁‖²
    # exceeds crit·(1+κ).
    c = chi2_quantile(1.0 - alpha, p - 1) * (1.0 + kappa)
    block = max(1, min(_BLOCK, _BLOCK * 100 // (p * p)))
    hits = 0
    for done in range(0, M, block):
        Z = _elliptical_block(p, kappa, min(block, M - done), rng)
        Z[:, 0, 0] += v
        hits += int(np.count_nonzero(_limit_law_hits(Z, c)))
    risk = hits / M
    return RiskEstimate(risk=risk, se=math.sqrt(risk * (1.0 - risk) / M), M=M)


def eigen_limit_sample(
    p: int,
    v: float,
    regime: str,
    kappa: float = 0.0,
    *,
    rng: Rng,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """One draw of the limiting eigenvalue vector (and, on the boundary
    and below, the eigenvector frame) of √n r_n-scale spectral fluctuations.

    Regimes: "i" (constant spike), "ii" (shrinking, above 1/√n), "iii"
    (boundary r_n = 1/√n), "iv" (below; v is ignored).  Returns
    ``(values, frame)``: ``values`` descend after the first entry, and
    ``frame`` is a (p, p) array whose row j is the eigenvector w_j of
    Z_f + v e₁e₁ᵀ, signed so that w_{j1} > 0 (almost surely).  In regimes i/ii the first
    eigenvalue limit is a normal scalar and ``frame`` is None.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}")
    if p < 2:
        raise ValueError("p must be at least 2")
    _check_v(v)
    Zf = sample_z_elliptical(p, kappa, rng)
    if regime in ("i", "ii"):
        scale = (1.0 + v) if regime == "i" else 1.0
        l1 = scale * Zf[0, 0]
        trailing = np.linalg.eigvalsh(Zf[1:, 1:])[::-1]
        return np.concatenate(([l1], trailing)), None
    A = Zf.copy()
    A[0, 0] += v
    lam, V = np.linalg.eigh(A)
    lam_desc = lam[::-1]
    V = V[:, ::-1]
    frame = (V * np.where(V[0, :] < 0, -1.0, 1.0)).T
    if regime == "iii":
        # First eigenvalue limit comes from the complementary shift
        # Z_f − diag(0, v, ..., v) = A − v·I, so it is ℓ₁(A) − v.
        values = lam_desc.copy()
        values[0] -= v
        return values, frame
    return lam_desc, frame


def joint_eigenvalue_density(ell: np.ndarray, kappa: float = 0.0) -> float:
    """Unnormalized joint density of the limiting eigenvalues (regime iv).

    exp(−[Σℓ² − (κ/((p+2)κ+2)) (Σℓ)²] / (4(1+κ))) · Π_{k<j} (ℓ_k − ℓ_j),
    which at κ = 0 is exp(−¼ Σℓ²) · Π_{k<j} (ℓ_k − ℓ_j) to the last bit.
    Normalizing constants are intentionally omitted.  Raises ValueError
    when κ is non-finite or below −2/(p+2).
    """
    ell = np.asarray(ell, dtype=float)
    if ell.ndim != 1 or ell.shape[0] < 1:
        raise ValueError("ell must be a nonempty vector")
    if np.any(np.diff(ell) > 0):
        raise ValueError("eigenvalues must be sorted in descending order")
    p = ell.shape[0]
    _check_kappa(p, kappa)
    vandermonde = 1.0
    for k in range(p - 1):
        vandermonde *= float(np.prod(ell[k] - ell[k + 1 :]))
    s1 = float(np.sum(ell))
    s2 = float(np.sum(ell**2))
    expo = -(s2 - kappa / ((p + 2) * kappa + 2.0) * s1**2) / (4.0 * (1.0 + kappa))
    return float(np.exp(expo) * vandermonde)


def ncp_regime12(v: float, delta: int, tau_norm: float) -> float:
    """Noncentrality parameter of the optimal tests above the boundary:
    (v²/(1+δv)) ‖τ‖²."""
    _check_v(v)
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    if not 0.0 <= tau_norm < math.inf:
        raise ValueError(f"tau_norm must be finite and nonnegative, got {tau_norm}")
    return v**2 / (1.0 + delta * v) * tau_norm**2


def _tau_squared(tau_norm: float) -> float:
    if not 0.0 <= tau_norm <= math.sqrt(2.0) + 1e-12:
        raise ValueError("tau_norm must lie in [0, sqrt(2)] (hemisphere restriction)")
    # min() keeps t exactly 2 at the hemisphere boundary, where squaring
    # the float sqrt(2) would overshoot and leak a spurious residual.
    return min(tau_norm**2, 2.0)


def ncp_hpv_iii(v: float, tau_norm: float) -> float:
    """Boundary-regime noncentrality of the Gram-Schmidt test:
    (v²/16) t (4−t) (2−t)² with t = ‖τ‖².  Vanishes at t = 2
    (orthogonal alternatives are asymptotically invisible)."""
    _check_v(v)
    t = _tau_squared(tau_norm)
    return v**2 / 16.0 * t * (4.0 - t) * (2.0 - t) ** 2


def ncp_oracle_iii(v: float, tau_norm: float) -> float:
    """Boundary-regime noncentrality of the oracle test:
    (v²/16) t (4−t) (4 − 2t + t²/2) with t = ‖τ‖²."""
    _check_v(v)
    t = _tau_squared(tau_norm)
    return v**2 / 16.0 * t * (4.0 - t) * (4.0 - 2.0 * t + 0.5 * t**2)


def asymptotic_power(df: int, ncp: float, alpha: float) -> float:
    """Power of a chi-square(df) test at level alpha under noncentrality ncp.
    Raises ValueError when alpha lies outside (0, 1)."""
    _check_alpha(alpha)
    crit = chi2_quantile(1.0 - alpha, df)
    return 1.0 - noncentral_chi2_cdf(crit, df, ncp)


def local_experiment(
    s: SampleSummary,
    theta0: np.ndarray,
    v: float,
    delta: int,
    sigma_n: np.ndarray,
) -> LocalExperiment:
    """Central sequence and information matrix of the local experiment.

    Δ_{n,δ} = (√n v/(1+δv)) (I − θ₀θ₀ᵀ)(S − Σ_n)θ₀ and
    Γ_δ = (v²/(1+δv)) (I − θ₀θ₀ᵀ).  The quadratic form ΔᵀΓ⁻Δ (pseudo-
    inverse on the orthocomplement) reproduces the q_delta statistic.
    Raises ValueError unless theta0 is a unit vector of length p.
    """
    theta0 = _check_unit(theta0, "theta0", s.p)
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    sigma_n = np.asarray(sigma_n, dtype=float)
    P_comp = np.eye(s.p) - np.outer(theta0, theta0)
    central = (math.sqrt(s.n) * v / (1.0 + delta * v)) * (P_comp @ ((s.cov - sigma_n) @ theta0))
    info = v**2 / (1.0 + delta * v) * P_comp
    return LocalExperiment(delta=delta, central=central, info=info)
