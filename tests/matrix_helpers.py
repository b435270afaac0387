"""vec and commutation-matrix utilities used by the tests to state
covariance identities of matrix-valued draws (Cov(vec Z) = I + K_p)."""

import numpy as np


def commutation_matrix(p: int) -> np.ndarray:
    """The p²×p² permutation K_p with K_p vec(A) = vec(Aᵀ) for all p×p A."""
    if p < 1:
        raise ValueError("p must be at least 1")
    K = np.zeros((p * p, p * p))
    for i in range(p):
        for j in range(p):
            # vec(A)[j*p + i] = A[i, j] maps to vec(Aᵀ)[i*p + j].
            K[i * p + j, j * p + i] = 1.0
    return K


def vec(A: np.ndarray) -> np.ndarray:
    """Stack the columns of ``A`` into a single vector."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("vec expects a matrix")
    return A.reshape(-1, order="F")
