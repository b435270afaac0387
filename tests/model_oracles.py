"""Closed-form population quantities of the spiked model, used by the
tests as the truth that sampled covariances and κ̂ are compared with, and
the Anderson limit law drawn from its definition on the dense Z_f."""

import numpy as np

from spikedcov.asymptotics import sample_z_elliptical


def covariance_at(model, n: int) -> np.ndarray:
    """Population covariance sigma²(I + r_n v θ₁θ₁ᵀ) at sample size n."""
    r = model.rate.at(n)
    th = model.theta1
    return model.sigma**2 * (np.eye(model.p) + r * model.v * np.outer(th, th))


def kurtosis_of(family, p: int) -> float:
    """Elliptical kurtosis κ_p(f): 0 for Gaussian, 2/(ν−4) for Student-t(ν).

    Both values agree with quadrature of the defining radial moment ratio
    p·μ_{p-1}·μ_{p+3} / ((p+2)·μ_{p+1}²) − 1 (see
    ``test_kurtosis_matches_radial_moment_quadrature``) and do not depend
    on p for these families.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if family.kind == "gaussian":
        return 0.0
    if family.kind == "student-t":
        return 2.0 / (family.nu - 4.0)
    raise ValueError(f"unknown radial family {family.kind!r}")


def dense_limit_law(p: int, v: float, kappa: float, m: int, rng) -> np.ndarray:
    """m draws of the Anderson statistic's limit law, each
    ‖(Z − ℓ₁I)e₁‖²/(1+κ) = Σ_{j≥2} (ℓ₁ − ℓ_j)² w_{j1}²/(1+κ) of
    Z = Z_f + v e₁e₁ᵀ, with Z_f from ``sample_z_elliptical`` and ℓ₁ from
    ``eigvalsh``."""
    Z = np.array([sample_z_elliptical(p, kappa, rng) for _ in range(m)])
    Z[:, 0, 0] += v
    col = Z[:, :, 0].copy()
    col[:, 0] -= np.linalg.eigvalsh(Z)[:, -1]
    return (col * col).sum(axis=1) / (1.0 + kappa)
