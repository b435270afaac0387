"""Dense small-matrix kernels.

Symmetric eigendecomposition with a deterministic sign convention and
Gram-Schmidt complements of a hypothesized direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegeneracyError",
    "EigenSystem",
    "sym_eigen",
    "gram_schmidt_complement",
]

# Relative tolerance below which a matrix is accepted as symmetric.
SYMMETRY_RTOL = 1e-12


class DegeneracyError(ValueError):
    """Raised when an input is too degenerate for the requested operation
    (rank-deficient sample covariance, eigenvalue ties, collapsed
    Gram-Schmidt projections)."""


def _as_square(A: np.ndarray, name: str = "A") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    return A


def _require_symmetric(A: np.ndarray) -> np.ndarray:
    A = _as_square(A)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 1.0)
    if float(np.max(np.abs(A - A.T))) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return A


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a symmetric matrix.

    Attributes
    ----------
    values : ndarray, shape (p,)
        Eigenvalues in non-increasing order.
    vectors : ndarray, shape (p, p)
        Orthonormal matrix whose column ``j`` is the unit eigenvector of
        ``values[j]``.  In every column the entry of largest absolute
        value is positive (ties broken by lowest row index), which makes
        the decomposition deterministic.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def p(self) -> int:
        return self.values.shape[0]

    def inverse_apply(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A^{-1} x`` through the spectral factorization."""
        lam = self.values
        if np.min(lam) <= 0.0:
            raise DegeneracyError("matrix is singular; inverse is undefined")
        return self.vectors @ ((self.vectors.T @ x) / lam)


def _apply_sign_convention(V: np.ndarray) -> np.ndarray:
    # np.argmax returns the first index attaining the maximum, which is
    # exactly the "lowest row index" tie-break.
    k = np.argmax(np.abs(V), axis=0)
    return V * np.where(V[k, np.arange(V.shape[1])] < 0.0, -1.0, 1.0)


def sym_eigen(A: np.ndarray) -> EigenSystem:
    """Eigendecompose a symmetric matrix.

    Parameters
    ----------
    A : array_like, shape (p, p)
        Symmetric matrix (validated to relative tolerance 1e-12).

    Returns
    -------
    EigenSystem
        Values in descending order, deterministic eigenvector signs.

    Raises
    ------
    ValueError
        If ``A`` is not square, not finite, or not symmetric.
    """
    A = _require_symmetric(A)
    lam, V = np.linalg.eigh(A)
    order = np.argsort(lam)[::-1]  # descending, stable for exact ties
    lam = lam[order]
    V = _apply_sign_convention(V[:, order])
    return EigenSystem(values=lam, vectors=V)


def gram_schmidt_complement(theta0: np.ndarray, eigvecs) -> np.ndarray:
    """Orthonormal complement frame of ``theta0`` built from eigenvectors.

    The frame is the Gram-Schmidt orthonormalization of the sequence
    ``(theta0, v_2, ..., v_p)`` with ``theta0`` held fixed: each input
    vector is projected onto the orthocomplement of the span of
    ``theta0`` and the previously produced members, then normalized.  It
    is computed as one Householder QR factorization ``[theta0, v_2, ...,
    v_p] = QR`` whose columns are signed so that ``diag(R) > 0``; that
    makes ``Q`` the Gram-Schmidt frame of the same sequence.  ``|R_kk|``
    is the norm of input ``k`` after the earlier members are projected
    out, so a collapsed projection shows as a vanishing ``R_kk``.

    Parameters
    ----------
    theta0 : array_like, shape (p,)
        Unit vector (norm 1 within 1e-10).
    eigvecs : sequence of p-1 vectors, or array of shape (p-1, p)
        Typically the sample eigenvectors ordered by descending eigenvalue.

    Returns
    -------
    ndarray, shape (p-1, p)
        Rows are the ``p-1`` unit vectors completing ``theta0`` to an
        orthonormal basis, in input order.

    Raises
    ------
    DegeneracyError
        If some input vector lies (numerically) in the span of the frame
        built so far (``|R_kk| < 1e-12``); the message identifies the
        first offending position.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if abs(np.linalg.norm(theta0) - 1.0) > 1e-10:
        raise ValueError("theta0 must be a unit vector (within 1e-10)")
    p = theta0.shape[0]
    vecs = np.asarray(eigvecs, dtype=float)
    if len(vecs) != p - 1:
        raise ValueError(f"expected {p - 1} vectors, got {len(vecs)}")
    if vecs.shape != (p - 1, p):
        raise ValueError(f"every vector must have length p={p}")
    Q, R = np.linalg.qr(np.column_stack([theta0, vecs.T]))
    r = np.diag(R)
    collapsed = np.flatnonzero(np.abs(r[1:]) < 1e-12)
    if collapsed.size:
        raise DegeneracyError(
            f"Gram-Schmidt degenerate at frame position j={collapsed[0] + 2}: "
            "input vector lies in the span of the current frame"
        )
    return (Q[:, 1:] * np.where(r[1:] < 0.0, -1.0, 1.0)).T

