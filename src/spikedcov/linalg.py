"""Dense small-matrix kernels.

Symmetric eigendecomposition with a deterministic sign convention and
Gram-Schmidt complements of a hypothesized direction.

The complement frame is one Householder QR, factored by LAPACK's
``dgeqrf`` and expanded by ``dorgqr`` through ``scipy.linalg.lapack``,
with each routine's workspace queried first as ``np.linalg.qr`` does.
``np.linalg.qr`` runs the same two routines but costs about 25 µs of
fixed overhead per call, more than the factorization itself at p = 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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


def _check_unit(theta: np.ndarray, name: str, p: int | None = None) -> np.ndarray:
    """``theta`` as a float vector, checked to have shape (p,) (any
    length when p is None) and norm 1 within 1e-10; ValueError otherwise."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or p not in (None, theta.shape[0]):
        raise ValueError(f"{name} must be a vector" + ("" if p is None else f" of length p={p}"))
    if not abs(np.linalg.norm(theta) - 1.0) <= 1e-10:
        raise ValueError(f"{name} must be a unit vector (within 1e-10)")
    return theta


def _as_square(A: np.ndarray, name: str = "A") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    return A


def _require_symmetric(A: np.ndarray) -> np.ndarray:
    A = _as_square(A)
    # max|A| is nan when an entry is nan and inf when one is ±inf.
    amax = float(np.max(np.abs(A))) if A.size else 0.0
    if not amax < math.inf:
        raise ValueError("matrix entries must be finite")
    if float(np.max(np.abs(A - A.T))) > SYMMETRY_RTOL * max(1.0, amax):
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


def _lapack_ok(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info={info}")


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

    The factorization is LAPACK's ``dgeqrf`` on one Fortran-ordered
    p×p array, read for ``diag(R)`` on its diagonal, then ``dorgqr`` in
    place for ``Q``.  Each routine's workspace is queried first
    (``lwork=-1``), as ``np.linalg.qr`` does: with the wrappers' default
    ``lwork``, LAPACK blocks differently once p passes its crossover
    (p ≥ 130 with this OpenBLAS), and ``Q`` would differ from
    ``np.linalg.qr``'s in the last bits.  The same two routines through
    ``np.linalg.qr`` cost about 25 µs more per call.

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
    theta0 = _check_unit(theta0, "theta0")
    p = theta0.shape[0]
    vecs = np.asarray(eigvecs, dtype=float)
    if len(vecs) != p - 1:
        raise ValueError(f"expected {p - 1} vectors, got {len(vecs)}")
    if vecs.shape != (p - 1, p):
        raise ValueError(f"every vector must have length p={p}")
    A = np.empty((p, p), order="F")
    A[:, 0] = theta0
    A[:, 1:] = vecs.T
    work, info = lapack.dgeqrf_lwork(p, p)
    _lapack_ok("dgeqrf workspace query", info)
    qr, tau, _, info = lapack.dgeqrf(A, lwork=int(work), overwrite_a=1)
    _lapack_ok("dgeqrf", info)
    r = qr.diagonal()[1:].copy()  # dorgqr overwrites the factored array
    collapsed = np.flatnonzero(np.abs(r) < 1e-12)
    if collapsed.size:
        raise DegeneracyError(
            f"Gram-Schmidt degenerate at frame position j={collapsed[0] + 2}: "
            "input vector lies in the span of the current frame"
        )
    work, info = lapack.dorgqr(qr, tau, lwork=-1, overwrite_a=1)[1:]
    _lapack_ok("dorgqr workspace query", info)
    Q, _, info = lapack.dorgqr(qr, tau, lwork=int(work[0]), overwrite_a=1)
    _lapack_ok("dorgqr", info)
    return (Q[:, 1:] * np.where(r < 0.0, -1.0, 1.0)).T
