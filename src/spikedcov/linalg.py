"""Dense small-matrix kernels.

Symmetric eigendecomposition with a deterministic sign convention and
Gram-Schmidt complements of a hypothesized direction.

The complement frame is one Householder QR, factored by LAPACK's
``dgeqrf`` and expanded by ``dorgqr`` through ``scipy.linalg.lapack``,
with each routine's workspace queried as ``np.linalg.qr`` does, but once
per p rather than on every call.
``np.linalg.qr`` runs the same two routines but costs about 25 µs of
fixed overhead per call, more than the factorization itself at p = 10.
Loading ``scipy.linalg`` takes about 0.2 s and maps scipy's own
OpenBLAS, so only the frame imports it, through :func:`_lapack`.
"""

from __future__ import annotations

import functools
import math
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


def _check_unit(theta: np.ndarray, name: str, p: int | None = None) -> np.ndarray:
    """``theta`` as a float vector, checked to have shape (p,) (any
    length when p is None) and norm 1 within 1e-10; ValueError otherwise."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or p not in (None, theta.shape[0]):
        raise ValueError(f"{name} must be a vector" + ("" if p is None else f" of length p={p}"))
    # np.linalg.norm's own arithmetic; a nan or ±inf entry fails the test.
    if not abs(math.sqrt(theta @ theta) - 1.0) <= 1e-10:
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
    amax = float(abs(A).max()) if A.size else 0.0
    if not amax < math.inf:
        raise ValueError("matrix entries must be finite")
    if (A == A.T).all():  # exactly symmetric, as summarize's S always is
        return A
    if float(abs(A - A.T).max()) > SYMMETRY_RTOL * max(1.0, amax):
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
        lam, V = self.values, self.vectors
        if lam.min() <= 0.0:
            raise DegeneracyError("matrix is singular; inverse is undefined")
        return V @ ((V.T @ x) / lam)


def _apply_sign_convention(V: np.ndarray) -> np.ndarray:
    """``V`` with each column signed so that its entry of largest absolute
    value is positive, as a new Fortran-ordered array.

    argmax returns the first index attaining the maximum, which is exactly
    the "lowest row index" tie-break.  That entry of a unit column is
    nonzero, so its ``copysign`` is -1 exactly when it is negative.
    """
    k = abs(V).argmax(axis=0)
    return np.multiply(V, np.copysign(1.0, V[k, np.arange(V.shape[1])]), order="F")


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
    # eigh's values ascend, so reversing them gives the order that
    # argsort(lam)[::-1] gave, exact ties included.  The vectors stay
    # Fortran-ordered as that fancy index made them: BLAS products with
    # them (inverse_apply, X @ V) round differently in another layout.
    return EigenSystem(values=lam[::-1].copy(), vectors=_apply_sign_convention(V[:, ::-1]))


def _lapack():
    """scipy's LAPACK wrappers, imported on first use.

    They bring scipy's own OpenBLAS, which a grid must load before it
    caps the thread count of every loaded OpenBLAS, so the harness calls
    this too before it runs replicates that build the frame.
    """
    from scipy.linalg import lapack

    return lapack


def _lapack_ok(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info={info}")


@functools.lru_cache(maxsize=256)
def _qr_workspaces(p: int) -> tuple[int, int]:
    """The ``lwork`` that ``dgeqrf`` and ``dorgqr`` ask for on a p×p
    factorization.  It depends only on p and on the loaded LAPACK, so it
    is queried (``lwork=-1``) once per p."""
    lapack = _lapack()
    work, info = lapack.dgeqrf_lwork(p, p)
    _lapack_ok("dgeqrf workspace query", info)
    geqrf_lwork = int(work)
    work, info = lapack.dorgqr(np.empty((p, p), order="F"), np.empty(p), lwork=-1)[1:]
    _lapack_ok("dorgqr workspace query", info)
    return geqrf_lwork, int(work[0])


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
    place for ``Q``.  Each routine's workspace is the one a query
    (``lwork=-1``) returns, as in ``np.linalg.qr``: with the wrappers'
    default ``lwork``, LAPACK blocks differently once p passes its
    crossover (p ≥ 130 with this OpenBLAS), and ``Q`` would differ from
    ``np.linalg.qr``'s in the last bits.  The queries are made once per p
    (:func:`_qr_workspaces`), since their answers depend only on p and
    the loaded LAPACK.  The same two routines through ``np.linalg.qr``
    cost about 25 µs more per call.

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
    lapack = _lapack()
    geqrf_lwork, orgqr_lwork = _qr_workspaces(p)
    A = np.empty((p, p), order="F")
    A[:, 0] = theta0
    A[:, 1:] = vecs.T
    qr, tau, _, info = lapack.dgeqrf(A, lwork=geqrf_lwork, overwrite_a=1)
    _lapack_ok("dgeqrf", info)
    r = qr.diagonal()[1:].copy()  # dorgqr overwrites the factored array
    small = abs(r) < 1e-12
    if small.any():
        raise DegeneracyError(
            f"Gram-Schmidt degenerate at frame position j={small.argmax() + 2}: "
            "input vector lies in the span of the current frame"
        )
    Q, _, info = lapack.dorgqr(qr, tau, lwork=orgqr_lwork, overwrite_a=1)
    _lapack_ok("dorgqr", info)
    # No entry of r is zero here, so copysign gives -1 exactly where r < 0.
    return (Q[:, 1:] * np.copysign(1.0, r)).T
