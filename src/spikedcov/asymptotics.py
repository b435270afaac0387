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
samplers draw Z_f in blocks with the batch on the last axis, as the
lower triangles of a (p, p, m) array, the layout ``eigvalsh`` reads.  The
risk estimator draws no Z_f: the law is that of a tridiagonal matrix
with independent entries (the β = 1 model of Dumitriu and Edelman), and
one O(p) Sturm recurrence per draw decides whether its value exceeds the
critical value, without computing it.
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

# Draws per block of the risk estimator, at every p.  A block's diagonal
# and squared subdiagonal are (p, _BLOCK) and (p − 1, _BLOCK) arrays, 16p
# bytes per draw in all (0.33 MB at p = 10, 1.6 MB at p = 50), and the
# recurrence's passes are rows of _BLOCK values.  The cost per draw is
# flat from 1024 to 16384 draws (BENCH_limit_law_tridiagonal.json).  The
# block fixes the order in which the generator's values reach the draws,
# so it depends on nothing a caller passes, and M only cuts the last one.
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


def _diagonal_shift(p: int, kappa: float) -> float:
    """c = √(1 + pκ/(2(1+κ))) − 1 of Z_f's shift c·mean(diag Y)·I."""
    # The radicand is ≥ 0 exactly when κ ≥ −2/(p+2); the clamp absorbs
    # the rounding slack that _check_kappa allows below the floor.
    return math.sqrt(max(1.0 + p * kappa / (2.0 * (1.0 + kappa)), 0.0)) - 1.0


def _elliptical_block(p: int, kappa: float, m: int, rng: Rng) -> np.ndarray:
    """m independent draws of Z_f as a C-ordered (p, p, m) array, the
    batch last: draw b is ``Z[:, :, b]``, and only its lower triangle
    (i ≥ j) is written.  See :func:`sample_z_elliptical`.

    The normals G fill an (m, p, p) array in the generator's order, and
    Z_ij = (G_ij + G_ji)/√(2/(1+κ)) is written row by row from G's
    batch-last view; no full or batch-first Z is formed.

    With Y = √(1+κ)·(G + Gᵀ)/√2, Var Y_ii = 2(1+κ) and the diagonal shift
    c·mean(diag Y) adds κ to every Cov(Z_ii, Z_jj), since
    (2(1+κ)/p)((1+c)² − 1) = κ; Var Z_ij = 1+κ is left as it is.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    _check_kappa(p, kappa)
    G = rng.standard_normal((m, p, p)).transpose(1, 2, 0)
    Z = np.empty((p, p, m))
    # At κ = 0 this divides by √2 itself, as the plain GOE does, so the
    # Gaussian stream keeps its bits.
    scale = math.sqrt(2.0 / (1.0 + kappa))
    for i in range(p):
        row = np.add(G[i, : i + 1], G[: i + 1, i], out=Z[i, : i + 1])
        row /= scale
    c = _diagonal_shift(p, kappa)
    # c = 0 at κ = 0, where the shift would add zeros.
    if c != 0.0:
        diag = Z.reshape(p * p, m)[:: p + 1]
        # Σᵢ Zᵢᵢ summed along a row of the batch-first (m, p) copy: numpy
        # sums a row pairwise and a column in order, which differ in the
        # last bits from p = 8 on.
        diag += (c / p) * diag.T.copy().sum(axis=1)
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
    exactly as one draw of :func:`qa_limit_sample`'s blocks does.  Raises
    ValueError when κ is non-finite or below −2/(p+2).
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    _check_kappa(p, kappa)
    G = rng.standard_normal((p, p))
    Z = G + G.T
    Z /= math.sqrt(2.0 / (1.0 + kappa))
    c = _diagonal_shift(p, kappa)
    if c != 0.0:
        diag = Z.reshape(p * p)[:: p + 1]
        # Summed over a contiguous copy, as the block sums each draw's.
        diag += (c / p) * diag.copy().sum()
    return Z


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
    ``eigvalsh`` reads only the lower triangle, the one the block holds.
    """
    Z = _elliptical_block(p, kappa, m, rng)
    Z[0, 0] += v
    # Column 0 as rows of the batch-first (m, p) array, summed along them
    # as every draw's own vector.
    col = Z[:, 0].T.copy()
    col[:, 0] -= np.linalg.eigvalsh(Z.transpose(2, 0, 1))[:, -1]
    return (col * col).sum(axis=1) / (1.0 + kappa)


def _tridiagonal_block(p: int, m: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """m draws of the Gaussian (κ = 0) limit matrix's tridiagonal model,
    batch last: the (p, m) diagonal d and the (p − 1, m) squared
    subdiagonal e2, row 0 of which is r² = Σ_{i≥2} Z_{i1}².

    A Householder reduction that fixes e₁ takes the GOE Z to a
    tridiagonal T with Z's eigenvalues and T₁₁ = Z₁₁, T₂₁² = r², and T's
    entries are independent: T_kk ~ N(0, 2) and T_{k+1,k}² ~ χ²_{p−k}
    (Dumitriu and Edelman, "Matrix models for beta ensembles", J. Math.
    Phys. 43 (2002), at β = 1).  The block takes pm normals, then p − 1
    chi-squares per draw.
    """
    d = rng.standard_normal((p, m))
    d *= math.sqrt(2.0)
    e2 = rng.chisquare(np.arange(p - 1, 0, -1.0)[:, None], (p - 1, m))
    return d, e2


def _tridiagonal_hits(d: np.ndarray, e2: np.ndarray, c: float) -> np.ndarray:
    """Whether ‖(T − ℓ₁I)e₁‖² ≥ c > 0, for each symmetric tridiagonal T
    of a block laid out as :func:`_tridiagonal_block` returns it, p ≥ 2,
    decided without ℓ₁.  d is overwritten with the pivots.

    ‖(T − ℓ₁I)e₁‖² = (ℓ₁ − d₀)² + r² with r² = e2₀, and ℓ₁ ≥ d₀.  So a draw
    is a hit iff r² ≥ c, or else iff ℓ₁ ≥ t = d₀ + s with s = √(c − r²),
    that is iff T − tI is not negative definite.  The pivots of its LDLᵀ
    factorization, e₀ = −s and e_k = (d_k − t) − e2_{k−1}/e_{k−1}, decide
    that (Sturm): a hit is a pivot ≥ 0.  The first pivot is −s itself, so
    d₀ − t does not cancel, and −0 where r² ≥ c, so that it decides
    those draws; a value of exactly c is a hit.  A decided draw's inverse
    pivot is 0, which keeps the pivots after it in range.
    """
    s = np.sqrt(np.maximum(c - e2[0], 0.0))
    d -= d[0] + s
    d[0] = -s
    q = np.empty(d.shape[1])
    for k in range(1, d.shape[0]):
        q.fill(0.0)
        np.divide(e2[k - 1], d[k - 1], out=q, where=d[k - 1] < 0.0)
        d[k] -= q
    return ~(d < 0.0).all(axis=0)


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
    kurtosis-corrected statistic; it raises ValueError when κ is
    non-finite or below −2/(p+2).  A negative or non-finite v, or alpha
    outside (0, 1), raises ValueError too.

    Each draw is decided on the tridiagonal model of Z_f + v e₁e₁ᵀ
    (:func:`_tridiagonal_block`) by :func:`_tridiagonal_hits`.  κ enters
    only through v: Z_f is √(1+κ) times a GOE plus a multiple of I, the
    shift moves ℓ₁ and Z₁₁ alike, and the law's division by 1+κ undoes
    the scale, so the risk at (v, κ) is the Gaussian risk at v/√(1+κ).
    The result is fixed by (p, v, κ, alpha, M, rng).
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if M < 1:
        raise ValueError("M must be at least 1")
    _check_v(v)
    _check_alpha(alpha)
    _check_kappa(p, kappa)
    v = v / math.sqrt(1.0 + kappa)
    c = chi2_quantile(1.0 - alpha, p - 1)
    hits = 0
    for done in range(0, M, _BLOCK):
        d, e2 = _tridiagonal_block(p, min(_BLOCK, M - done), rng)
        d[0] += v
        hits += int(np.count_nonzero(_tridiagonal_hits(d, e2, c)))
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
