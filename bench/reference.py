"""Reference values computed without the program.

Each function here works from a raw data matrix (or from its own random
draws) with plain numpy/scipy calls, so that the program's outputs can
be checked against an independent computation:

* Q_A by its defining formula, with S⁻¹θ⁰ from ``np.linalg.solve``;
* Q_H with the frame taken as a QR completion of [θ⁰, the other sample
  eigenvectors in eigenvalue order];
* κ̂ from Mahalanobis distances computed with ``np.linalg.solve``;
* the Anderson limit-law risk from GOE draws and ``np.linalg.eigh``.
"""

from __future__ import annotations

import numpy as np
from scipy import stats


def covariance(X: np.ndarray) -> np.ndarray:
    """Sample covariance with divisor n."""
    Xc = X - X.mean(axis=0)
    return Xc.T @ Xc / X.shape[0]


def spectrum(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in descending order and their eigenvectors as columns."""
    lam, V = np.linalg.eigh(S)
    return lam[::-1], V[:, ::-1]


def anderson(X: np.ndarray, theta0: np.ndarray, j: int) -> float:
    """Q_A = n (λ̂_j θ⁰ᵀS⁻¹θ⁰ + θ⁰ᵀSθ⁰ / λ̂_j − 2)."""
    n = X.shape[0]
    S = covariance(X)
    lam_j = spectrum(S)[0][j - 1]
    return n * (lam_j * theta0 @ np.linalg.solve(S, theta0) + theta0 @ S @ theta0 / lam_j - 2.0)


def _hpv_from_frame(n, S, theta0, vectors, weights, lam_j) -> float:
    frame, _ = np.linalg.qr(np.column_stack([theta0, vectors]))
    St0 = S @ theta0
    return n / lam_j * float(np.sum((frame[:, 1:].T @ St0) ** 2 / weights))


def hpv(X: np.ndarray, theta0: np.ndarray, j: int) -> float:
    """Q_H = (n/λ̂_j) Σ_{k≠j} λ̂_k⁻¹ (θ̃_kᵀSθ⁰)², {θ̃_k} the QR completion of
    [θ⁰, v̂_k for k ≠ j]."""
    S = covariance(X)
    lam, V = spectrum(S)
    others = [k for k in range(len(lam)) if k != j - 1]
    return _hpv_from_frame(X.shape[0], S, theta0, V[:, others], lam[others], lam[j - 1])


def hpv_off_by_one(X: np.ndarray, theta0: np.ndarray, j: int) -> float:
    """A known-wrong Q_H: the frame is built from v̂₂, …, v̂_p (dropping v̂₁
    instead of v̂_j) but weighted with the λ̂_k, k ≠ j.  For j ≥ 2 the
    tested eigenvector sits inside its own complement."""
    S = covariance(X)
    lam, V = spectrum(S)
    others = [k for k in range(len(lam)) if k != j - 1]
    return _hpv_from_frame(X.shape[0], S, theta0, V[:, 1:], lam[others], lam[j - 1])


def kurtosis(X: np.ndarray) -> float:
    """κ̂ = Σ d_i⁴ / (n p (p+2)) − 1, d_i² = (x_i − x̄)ᵀS⁻¹(x_i − x̄)."""
    n, p = X.shape
    Xc = X - X.mean(axis=0)
    d2 = np.einsum("ij,ji->i", Xc, np.linalg.solve(covariance(X), Xc.T))
    return float(np.sum(d2**2) / (n * p * (p + 2)) - 1.0)


def limit_risks(
    p: int, v: float, alphas, M: int, rng: np.random.Generator, block: int = 20_000
) -> list[tuple[float, float]]:
    """(risk, se) at each level of the Anderson limit law
    Σ_{j≥2} (ℓ₁ − ℓ_j)² w_{j1}² over the spectrum of Z + diag(v, 0, …, 0),
    Z = (G + Gᵀ)/√2, from the same M draws made ``block`` at a time."""
    crits = stats.chi2.ppf(1.0 - np.asarray(alphas), p - 1)
    hits = np.zeros(len(crits), dtype=int)
    for start in range(0, M, block):
        G = rng.standard_normal((min(block, M - start), p, p))
        Z = (G + G.transpose(0, 2, 1)) / np.sqrt(2.0)
        Z[:, 0, 0] += v
        lam, W = np.linalg.eigh(Z)
        q = np.sum((lam[:, -1:] - lam[:, :-1]) ** 2 * W[:, 0, :-1] ** 2, axis=1)
        hits += np.count_nonzero(q[:, None] > crits, axis=0)
    risks = hits / M
    return [(float(r), float(np.sqrt(r * (1.0 - r) / M))) for r in risks]


def spiked_gaussian(rng, n: int, p: int, spike: float) -> np.ndarray:
    """n × p Gaussian rows with covariance I + spike·e₁e₁ᵀ."""
    X = rng.standard_normal((n, p))
    X[:, 0] *= np.sqrt(1.0 + spike)
    return X


def spiked_student_t(rng, n: int, p: int, spike: float, nu: float) -> np.ndarray:
    """Student-t(ν) rows with covariance I + spike·e₁e₁ᵀ."""
    w = rng.chisquare(nu, size=n)
    return spiked_gaussian(rng, n, p, spike) * np.sqrt((nu - 2.0) / w)[:, None]
