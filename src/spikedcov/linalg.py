"""Dense small-matrix kernels.

Symmetric eigendecomposition with a deterministic sign convention and
the Gram-Schmidt complement of a hypothesized direction that
``statistics.hpv_statistic`` builds Q_H from.

The complement frame is one Householder QR, factored by LAPACK's
``dgeqrf`` and expanded by ``dorgqr``, both called through
``numpy.linalg.lapack_lite``.  That module runs numpy's own LAPACK, the
one ``np.linalg.qr`` runs, at numpy's integer width
(``lapack_lite._ilp64``), so the frame has ``np.linalg.qr``'s bits.
numpy lists it as private but present, and its own tests call both
routines through it; ``tests/test_linalg.py`` pins the frame's bits to
``np.linalg.qr``'s, and Tier-1 turns a ``DeprecationWarning`` raised in
spikedcov into an error.  It is used instead of ``np.linalg.qr``, whose
wrapper costs about 25 µs per call, more than the factorization itself
at p = 10, and instead of scipy's LAPACK wrappers, which take about
0.2 s to import and map a second OpenBLAS.  Each routine's workspace is
queried once per p, where ``np.linalg.qr`` queries it on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

__all__ = [
    "DegeneracyError",
    "EigenSystem",
    "sym_eigen",
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


def _require_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be a square matrix, got shape {A.shape}")
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
    # them (θ₀ᵀV in Q_A, X @ V in κ̂) round differently in another layout.
    return EigenSystem(values=lam[::-1].copy(), vectors=_apply_sign_convention(V[:, ::-1]))


def _lapack_ok(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info={info}")


@functools.lru_cache(maxsize=256)
def _qr_workspaces(p: int) -> tuple[int, int]:
    """The ``lwork`` that ``dgeqrf`` and ``dorgqr`` ask for on a p×p
    factorization.  It depends only on p and on the loaded LAPACK, so it
    is queried (``lwork=-1``) once per p."""
    a, tau, work = np.empty((p, p)), np.empty(p), np.empty(1)
    info = lapack_lite.dgeqrf(p, p, a, p, tau, work, -1, 0)["info"]
    _lapack_ok("dgeqrf workspace query", info)
    geqrf_lwork = int(work[0])
    info = lapack_lite.dorgqr(p, p, p, a, p, tau, work, -1, 0)["info"]
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

    The factorization is LAPACK's ``dgeqrf`` from
    ``numpy.linalg.lapack_lite``, on one C-ordered p×p array whose rows
    are ``theta0, v_2, ..., v_p``: LAPACK reads it as the Fortran matrix
    with those columns.  ``diag(R)`` is read off its diagonal, then
    ``dorgqr`` overwrites it with ``Q``, whose columns are its rows, so
    no transpose is made.  Each routine's workspace is the one a query
    (``lwork=-1``) returns, as in ``np.linalg.qr``: with another
    ``lwork``, LAPACK blocks differently once p passes its crossover
    (p ≥ 130 with this OpenBLAS), and ``Q`` would differ from
    ``np.linalg.qr``'s in the last bits.  The queries are made once per p
    (:func:`_qr_workspaces`), since their answers depend only on p and
    the loaded LAPACK.  The same two routines through ``np.linalg.qr``
    give the same bits but cost about 25 µs more per call.

    Parameters
    ----------
    theta0 : ndarray, shape (p,)
        Unit vector.  Not checked here: ``hpv_statistic``, the only
        caller, has checked it.
    eigvecs : sequence of p-1 vectors of length p, or array of shape (p-1, p)
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
    p = len(theta0)
    geqrf_lwork, orgqr_lwork = _qr_workspaces(p)
    A = np.empty((p, p))  # read by LAPACK as [theta0, v_2, ..., v_p]
    A[0] = theta0
    A[1:] = eigvecs
    tau, work = np.empty(p), np.empty(max(geqrf_lwork, orgqr_lwork))
    _lapack_ok("dgeqrf", lapack_lite.dgeqrf(p, p, A, p, tau, work, geqrf_lwork, 0)["info"])
    r = A.diagonal()[1:].copy()  # dorgqr overwrites the factored array
    small = abs(r) < 1e-12
    if small.any():
        raise DegeneracyError(
            f"Gram-Schmidt degenerate at frame position j={small.argmax() + 2}: "
            "input vector lies in the span of the current frame"
        )
    _lapack_ok("dorgqr", lapack_lite.dorgqr(p, p, p, A, p, tau, work, orgqr_lwork, 0)["info"])
    # Column k of Q is row k of A.  No entry of r is zero here, so
    # copysign gives -1 exactly where r < 0.
    return A[1:] * np.copysign(1.0, r)[:, None]
