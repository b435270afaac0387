"""Closed-form population quantities of the spiked model, used by the
tests as the truth that sampled covariances and κ̂ are compared with."""

import numpy as np


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
