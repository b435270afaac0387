"""Spiked covariance population models and data generation.

The population covariance is sigma² (I_p + r_n v θ₁θ₁ᵀ): a single
eigenvalue sigma²(1 + r_n v) above the common baseline sigma².  The spike
rate r_n controls identifiability of θ₁ as n grows:

* r_n ≡ const        — classical regime, θ₁ fully identified;
* r_n → 0, √n r_n → ∞ — shrinking but still identified;
* r_n = 1/√n          — contiguity boundary;
* r_n = o(1/√n)       — θ₁ asymptotically unidentified.

The exponent grid r_n = n^{-ell/6}, ell = 0..5, walks through all four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import Rng
from .linalg import _check_unit

__all__ = ["SpikeRate", "RadialFamily", "SpikedModel", "sample"]


@dataclass(frozen=True)
class SpikeRate:
    """Rule n ↦ r_n.  Construct via :meth:`exponent` or :meth:`constant`."""

    kind: str
    ell: Optional[int] = None
    value: Optional[float] = None

    @classmethod
    def exponent(cls, ell: int) -> "SpikeRate":
        """r_n = n^(-ell/6) for ell in {0, ..., 5}."""
        if ell not in range(6):
            raise ValueError("exponent ell must be an integer in {0,...,5}")
        return cls(kind="exponent", ell=ell)

    @classmethod
    def constant(cls, value: float = 1.0) -> "SpikeRate":
        if not (value > 0 and math.isfinite(value)):
            raise ValueError("constant rate must be positive and finite")
        return cls(kind="constant", value=value)

    def at(self, n: int) -> float:
        if n < 1:
            raise ValueError("n must be positive")
        if self.kind == "exponent":
            return float(n) ** (-self.ell / 6.0)
        return self.value


@dataclass(frozen=True)
class RadialFamily:
    """Radial law of an elliptical distribution: Gaussian or Student-t(ν), ν>4.

    ν > 4 keeps fourth moments finite, which every kurtosis-based procedure
    here requires.
    """

    kind: str
    nu: Optional[float] = None

    @classmethod
    def gaussian(cls) -> "RadialFamily":
        return cls(kind="gaussian")

    @classmethod
    def student_t(cls, nu: float) -> "RadialFamily":
        if not nu > 4:
            raise ValueError("Student-t radial families require nu > 4")
        return cls(kind="student-t", nu=float(nu))

    @property
    def label(self) -> str:
        return "gaussian" if self.kind == "gaussian" else f"t{self.nu:g}"


@dataclass(frozen=True)
class SpikedModel:
    """Population model: dimension p, scale sigma, spike strength v,
    spike rate rule, spike direction theta1, location mu.

    ``theta1`` and ``mu`` are kept as read-only copies, so that what
    :func:`sample` reads from them once, at construction, stays true.
    """

    p: int
    sigma: float
    v: float
    rate: SpikeRate
    theta1: np.ndarray
    mu: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not 0 < self.v < math.inf:
            raise ValueError("v must be positive and finite")
        theta1 = _check_unit(self.theta1, "theta1", self.p).copy()
        mu = np.zeros(self.p) if self.mu is None else np.array(self.mu, dtype=float)
        if mu.shape != (self.p,):
            raise ValueError("mu must have length p")
        theta1.flags.writeable = mu.flags.writeable = False
        object.__setattr__(self, "theta1", theta1)
        object.__setattr__(self, "mu", mu)
        # (k, θ₁ₖ) for each column k that the spike moves, and whether mu
        # shifts the draw; not fields, so they take no part in eq or repr.
        spike_columns = tuple((int(k), float(theta1[k])) for k in np.flatnonzero(theta1))
        object.__setattr__(self, "_spike_columns", spike_columns)
        object.__setattr__(self, "_shifted", bool(mu.any()))


def sample(model: SpikedModel, n: int, family: RadialFamily, rng: Rng) -> np.ndarray:
    """Draw an n×p sample with mean mu and covariance sigma²(I + r_n v θ₁θ₁ᵀ).

    The square root of the covariance has the closed form
    sigma (I + (√(1+r v) − 1) θ₁θ₁ᵀ), so no general matrix root is needed.
    Student-t draws are rescaled by √((ν−2)/ν) so the model covariance is
    the exact covariance (not merely the scatter matrix).
    The generator is consumed in a fixed order (Gaussian block first, then
    the chi-square mixing draws) to keep streams reproducible.
    Only the columns where θ₁ is non-zero receive the spike, and the
    scale and shift are skipped when sigma = 1 and mu = 0; adding a zero
    or scaling by one would leave every value as it is.  Any n ≥ 1 is
    drawn: n ≥ p + 1 is the rule of ``summarize``, which needs it.
    """
    r = model.rate.at(n)
    spike = math.sqrt(1.0 + r * model.v) - 1.0
    X = rng.standard_normal((n, model.p))
    columns = model._spike_columns
    # Column k gains u·(spike·θ₁ₖ) with u = Xθ₁.  With one non-zero
    # entry k, u is X[:, k]·θ₁ₖ exactly, so the n×p product is skipped.
    if len(columns) == 1:
        ((k, t),) = columns
        col = X[:, k]
        col += col * t * (spike * t)
    else:
        u = X @ model.theta1
        shift = np.empty(n)
        for k, t in columns:
            np.multiply(u, spike * t, out=shift)
            X[:, k] += shift
    if model.sigma != 1.0:
        X *= model.sigma
    if family.kind == "student-t":
        nu = family.nu
        w = rng.chisquare(nu, size=n)
        X *= (math.sqrt((nu - 2.0) / nu) / np.sqrt(w / nu))[:, None]
    elif family.kind != "gaussian":
        raise ValueError(f"unknown radial family {family.kind!r}")
    if model._shifted:
        X += model.mu
    return X
