"""Linear algebra kernel tests.

Ground truths: numpy.linalg.eigh for the LAPACK-backed path, the cyclic
Jacobi sweep (below) as an independent cross-check, the 2x2
characteristic polynomial in closed form, and a modified Gram-Schmidt
loop (below) as the reference for the QR-built complement frame, and
``np.linalg.qr`` of the same columns as the reference for its bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedcov.linalg import (
    DegeneracyError,
    EigenSystem,
    _apply_sign_convention,
    _check_unit,
    _require_symmetric,
    gram_schmidt_complement,
    sym_eigen,
)
from spikedcov.statistics import hpv_statistic, summarize

from matrix_helpers import commutation_matrix, vec


def jacobi_eigen(A: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60) -> EigenSystem:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    A self-contained rotation-based routine, an independent cross-check
    of :func:`sym_eigen` with the same output contract.
    Convergence is declared when the off-diagonal Frobenius norm drops
    below ``tol * ||A||_F``.
    """
    A = _require_symmetric(A)
    p = A.shape[0]
    B = A.copy()
    V = np.eye(p)
    norm_a = float(np.linalg.norm(A)) or 1.0
    for _ in range(max_sweeps):
        # Off-diagonal Frobenius norm, summed directly: the subtraction
        # ||B||^2 - ||diag||^2 cancels catastrophically near convergence
        # and would floor around sqrt(eps)*||A|| instead of reaching tol.
        off = float(np.linalg.norm(B - np.diag(np.diag(B))))
        if off < tol * norm_a:
            break
        for i in range(p - 1):
            for j in range(i + 1, p):
                diff = B[j, j] - B[i, i]
                if abs(B[i, j]) <= 1e-300 * abs(diff):
                    # entry already dead at this scale; rotating would
                    # overflow the angle computation for nothing
                    B[i, j] = B[j, i] = 0.0
                    continue
                # Classical two-sided Jacobi rotation annihilating B[i, j].
                theta = 0.5 * diff / B[i, j]
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                idx = [i, j]
                B[idx, :] = rot.T @ B[idx, :]
                B[:, idx] = B[:, idx] @ rot
                V[:, idx] = V[:, idx] @ rot
    else:
        raise RuntimeError("Jacobi iteration failed to converge")
    lam = np.diag(B).copy()
    order = np.argsort(lam)[::-1]
    return EigenSystem(values=lam[order], vectors=_apply_sign_convention(V[:, order]))


def reference_sign_convention(V: np.ndarray) -> np.ndarray:
    """Column-by-column form of the eigenvector sign convention."""
    V = V.copy()
    for j in range(V.shape[1]):
        k = int(np.argmax(np.abs(V[:, j])))
        if V[k, j] < 0.0:
            V[:, j] = -V[:, j]
    return V


def reference_gram_schmidt(theta0, vecs):
    """Modified Gram-Schmidt with one re-orthogonalization pass: each
    input is projected off theta0 and the members built so far, then
    normalized.  Raises DegeneracyError naming the position (theta0 is
    position 1) of the first input whose residual norm is below 1e-12."""
    basis = [np.asarray(theta0, dtype=float)]
    out = []
    for pos, v in enumerate(vecs, start=2):
        u = np.array(v, dtype=float)
        for _ in range(2):
            for b in basis:
                u -= (b @ u) * b
        nrm = float(np.linalg.norm(u))
        if nrm < 1e-12:
            raise DegeneracyError(f"Gram-Schmidt degenerate at frame position j={pos}")
        u /= nrm
        basis.append(u)
        out.append(u)
    return np.array(out)


def numpy_qr_frame(theta0, vecs):
    """The frame as ``np.linalg.qr`` of ``[theta0, v_2, ..., v_p]`` gives
    it, columns signed so that diag(R) > 0; raises DegeneracyError naming
    the first position with |R_kk| < 1e-12."""
    Q, R = np.linalg.qr(np.column_stack([theta0, np.asarray(vecs, dtype=float).T]))
    r = np.diag(R)
    collapsed = np.flatnonzero(np.abs(r[1:]) < 1e-12)
    if collapsed.size:
        raise DegeneracyError(f"Gram-Schmidt degenerate at frame position j={collapsed[0] + 2}")
    return (Q[:, 1:] * np.where(r[1:] < 0.0, -1.0, 1.0)).T


def random_symmetric(p, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, p))
    return (A + A.T) / 2.0


class TestSymEigen:
    def test_identity(self):
        es = sym_eigen(np.eye(4))
        np.testing.assert_allclose(es.values, np.ones(4))

    def test_diagonal_sorted_descending(self):
        es = sym_eigen(np.diag([3.0, 1.0, 7.0]))
        np.testing.assert_allclose(es.values, [7.0, 3.0, 1.0])

    def test_reconstruction(self):
        A = random_symmetric(8, 11)
        es = sym_eigen(A)
        R = es.vectors @ np.diag(es.values) @ es.vectors.T
        np.testing.assert_allclose(R, A, atol=1e-12)

    def test_matches_numpy_values(self):
        A = random_symmetric(10, 5)
        ours = sym_eigen(A).values
        theirs = np.sort(np.linalg.eigvalsh(A))[::-1]
        np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_two_by_two_closed_form(self):
        # characteristic polynomial of [[a, b], [b, c]]
        a, b, c = 2.0, -0.7, 1.3
        es = sym_eigen(np.array([[a, b], [b, c]]))
        disc = np.sqrt((a - c) ** 2 + 4 * b * b)
        np.testing.assert_allclose(es.values, [(a + c + disc) / 2, (a + c - disc) / 2])

    def test_sign_convention(self):
        # largest-magnitude component of every eigenvector is positive
        A = random_symmetric(7, 3)
        es = sym_eigen(A)
        for k in range(7):
            col = es.vectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_sign_convention_deterministic_under_flip(self):
        A = random_symmetric(6, 9)
        es1 = sym_eigen(A)
        es2 = sym_eigen(A.copy())
        np.testing.assert_array_equal(es1.vectors, es2.vectors)

    def test_sign_convention_matches_column_loop(self):
        rng = np.random.default_rng(5)
        tied = np.array(
            [
                [0.5, -0.5, 0.0, -0.5],
                [-0.5, 0.5, -0.0, 0.5],
                [0.5, 0.5, 1.0, -0.5],
                [-0.5, -0.5, 0.0, 0.5],
            ]
        )
        for V in (rng.standard_normal((7, 7)), rng.standard_normal((3, 5)), tied):
            got = _apply_sign_convention(V)
            assert got.tobytes() == reference_sign_convention(V).tobytes()

    @staticmethod
    def argsort_form(A):
        """sym_eigen as written with argsort: eigh's output reordered by
        argsort(values)[::-1] through two fancy indexes, then signed."""
        lam, V = np.linalg.eigh(_require_symmetric(A))
        order = np.argsort(lam)[::-1]
        V = V[:, order]
        k = np.argmax(np.abs(V), axis=0)
        return lam[order], V * np.where(V[k, np.arange(V.shape[1])] < 0.0, -1.0, 1.0)

    @pytest.mark.parametrize("p", [3, 10, 30])
    def test_matches_argsort_form_bit_for_bit(self, p):
        # The memory order of the vectors is pinned with their values:
        # BLAS products with them (θ₀ᵀV in Q_A, and X @ V in κ̂) round
        # differently once they are C-ordered, which moved the last bits
        # of Q_A and κ̂ in a prototype whose CSVs stayed byte-identical.
        rng = np.random.default_rng(p)
        ties = rng.permutation(np.repeat([3.0, 2.0, 1.0], p)[:p])
        P = np.eye(p)[rng.permutation(p)]
        cases = [random_symmetric(p, seed) for seed in range(20)]
        cases += [np.diag(ties), P @ np.diag(ties) @ P.T, np.eye(p)]
        for A in cases:
            got = sym_eigen(A)
            lam, V = self.argsort_form(A)
            assert got.values.tobytes() == lam.tobytes()
            assert got.vectors.tobytes() == V.tobytes()
            assert got.vectors.flags.f_contiguous and V.flags.f_contiguous
        assert np.any(np.diff(self.argsort_form(np.diag(ties))[0]) == 0.0)

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            sym_eigen(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        for i, j in ((0, 0), (0, 1), (2, 2)):
            A = np.eye(3)
            A[i, j] = A[j, i] = bad
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                _require_symmetric(A)

    def test_asymmetry_message(self):
        A = np.array([[1.0, 1e-9], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^matrix is not symmetric within tolerance$"):
            _require_symmetric(A)
        # relative to max(1, max|A|): 1e-9 off is rounding at scale 1e4
        A = np.array([[1e4, 1e-9], [0.0, 1.0]])
        assert _require_symmetric(A) is not None

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sym_eigen(np.ones((2, 3)))


def test_jacobi_agrees_with_lapack():
    """Independent O(p^3)-per-sweep rotation method confirms the LAPACK path."""
    for seed in range(4):
        A = random_symmetric(6, 100 + seed)
        j = jacobi_eigen(A)
        e = sym_eigen(A)
        np.testing.assert_allclose(j.values, e.values, atol=1e-10)
        # vectors agree up to the shared sign convention
        np.testing.assert_allclose(np.abs(j.vectors.T @ e.vectors), np.eye(6), atol=1e-8)
        np.testing.assert_allclose(j.vectors, e.vectors, atol=1e-8)


def test_jacobi_reconstruction():
    A = random_symmetric(5, 42)
    es = jacobi_eigen(A)
    np.testing.assert_allclose(es.vectors @ np.diag(es.values) @ es.vectors.T, A, atol=1e-11)


class TestGramSchmidtComplement:
    def setup_method(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((6, 6))
        self.V = np.linalg.qr(B)[0]  # orthonormal columns
        theta = rng.standard_normal(6)
        self.theta0 = theta / np.linalg.norm(theta)

    def test_output_orthonormal_and_orthogonal_to_anchor(self):
        frame = gram_schmidt_complement(self.theta0, [self.V[:, k] for k in range(1, 6)])
        assert len(frame) == 5
        M = np.column_stack([self.theta0, *frame])
        np.testing.assert_allclose(M.T @ M, np.eye(6), atol=1e-12)

    def test_spans_same_space(self):
        cols = [self.V[:, k] for k in range(1, 6)]
        frame = gram_schmidt_complement(self.theta0, cols)
        # span{theta0, frame} == span{theta0, cols}: project each input onto
        # the output basis and check nothing is lost.
        B = np.column_stack([self.theta0, *frame])
        for c in cols:
            np.testing.assert_allclose(B @ (B.T @ c), c, atol=1e-10)

    def test_collinear_anchor_degenerate(self):
        # replacing the first eigenvector by theta0 = that eigenvector makes
        # the second input collinear with the anchor's residual span
        with pytest.raises(DegeneracyError) as exc:
            gram_schmidt_complement(self.V[:, 1], [self.V[:, k] for k in range(1, 6)])
        assert "2" in str(exc.value)  # names the offending position


class TestGramSchmidtOracle:
    """The QR-built frame against the reference Gram-Schmidt loop."""

    @staticmethod
    def unit_vector(p, rng):
        theta = rng.standard_normal(p)
        return theta / np.linalg.norm(theta)

    @pytest.mark.parametrize("p", [2, 10, 100])
    def test_orthonormal_inputs_match_reference(self, p):
        rng = np.random.default_rng(p)
        V = np.linalg.qr(rng.standard_normal((p, p)))[0]
        for drop in sorted({0, 1, p - 1}):
            theta0 = self.unit_vector(p, rng)
            cols = [V[:, k] for k in range(p) if k != drop]
            frame = gram_schmidt_complement(theta0, cols)
            assert frame.shape == (p - 1, p)
            np.testing.assert_allclose(frame, reference_gram_schmidt(theta0, cols), atol=1e-12)

    @pytest.mark.parametrize("p", [2, 10, 100])
    def test_non_orthonormal_inputs_match_reference(self, p):
        rng = np.random.default_rng(1000 + p)
        theta0 = self.unit_vector(p, rng)
        cols = list(rng.standard_normal((p - 1, p)))
        frame = gram_schmidt_complement(theta0, cols)
        np.testing.assert_allclose(frame, reference_gram_schmidt(theta0, cols), atol=1e-12)

    def test_frame_is_sequence_of_members(self):
        rng = np.random.default_rng(3)
        theta0 = self.unit_vector(5, rng)
        cols = list(np.linalg.qr(rng.standard_normal((5, 5)))[0].T[1:])
        frame = gram_schmidt_complement(theta0, cols)
        assert len(frame) == 4
        B = np.column_stack([theta0, *frame])
        np.testing.assert_allclose(B.T @ B, np.eye(5), atol=1e-12)
        for member, ref in zip(frame, reference_gram_schmidt(theta0, cols)):
            np.testing.assert_allclose(member, ref, atol=1e-12)

    def test_collinear_middle_input_names_its_position(self):
        rng = np.random.default_rng(4)
        theta0 = self.unit_vector(6, rng)
        cols = list(rng.standard_normal((5, 6)))
        # position 4 (the third input) in the span of theta0 and inputs 2, 3
        cols[2] = 0.3 * theta0 - 1.7 * cols[0] + 0.6 * cols[1]
        for build in (gram_schmidt_complement, reference_gram_schmidt):
            with pytest.raises(DegeneracyError, match="j=4"):
                build(theta0, cols)

    @pytest.mark.parametrize("p", [2, 10, 100])
    def test_hpv_statistic_matches_reference_frame(self, p):
        # Q_H evaluated term by term on the reference frame, as the
        # statistic was computed before the frame came from QR
        rng = np.random.default_rng(2000 + p)
        X = rng.standard_normal((200, p))
        X[:, 0] *= 2.0
        s = summarize(X)
        for theta0 in (self.unit_vector(p, rng), np.eye(p)[0]):
            for j in sorted({1, 2, p}):
                others = [k for k in range(p) if k != j - 1]
                frame = reference_gram_schmidt(theta0, [s.eigen.vectors[:, k] for k in others])
                St0 = s.cov @ theta0
                acc = 0.0
                for k, member in zip(others, frame):
                    acc += (member @ St0) ** 2 / s.eigen.values[k]
                expected = s.n / s.eigen.values[j - 1] * acc
                assert hpv_statistic(s, theta0, j) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 10, 50, 130])
    def test_matches_numpy_qr(self, p):
        # the LAPACK calls give np.linalg.qr's frame, from an array or a
        # list of vectors alike
        rng = np.random.default_rng(3000 + p)
        V = np.linalg.qr(rng.standard_normal((p, p)))[0]
        for theta0, vecs in (
            (self.unit_vector(p, rng), V[:, 1:].T),
            (V[:, 0], V[:, 1:].T),
            (self.unit_vector(p, rng), rng.standard_normal((p - 1, p))),
        ):
            expected = numpy_qr_frame(theta0, vecs)
            for given in (vecs, list(vecs)):
                got = gram_schmidt_complement(theta0, given)
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("position", [2, 3, 6])
    def test_degenerate_position_matches_numpy_qr(self, position):
        rng = np.random.default_rng(5 + position)
        theta0 = self.unit_vector(6, rng)
        cols = list(rng.standard_normal((5, 6)))
        cols[position - 2] = 0.4 * theta0 + sum(0.7 * c for c in cols[: position - 2])
        for build in (gram_schmidt_complement, numpy_qr_frame):
            with pytest.raises(DegeneracyError, match=f"j={position}"):
                build(theta0, cols)


class TestCheckUnit:
    """The one unit-vector rule behind θ⁰ and θ₁ in every module."""

    def test_accepts_unit_vectors_unchanged(self):
        theta = np.array([0.6, 0.8, 0.0])
        for p in (None, 3):
            np.testing.assert_array_equal(_check_unit(theta, "theta0", p), theta)
        assert _check_unit([0, 1], "theta0").dtype == float

    @pytest.mark.parametrize(
        "theta, p, message",
        [
            ([1.0, 0.0], 3, "theta0 must be a vector of length p=3"),
            ([[1.0, 0.0]], None, "theta0 must be a vector$"),
            (1.0, None, "theta0 must be a vector$"),
            ([1.0, 1e-4], 2, "theta0 must be a unit vector"),
            ([np.nan, 0.0], 2, "theta0 must be a unit vector"),
            ([np.inf, 0.0], None, "theta0 must be a unit vector"),
        ],
    )
    def test_rejects(self, theta, p, message):
        with pytest.raises(ValueError, match=message):
            _check_unit(theta, "theta0", p)


def test_commutation_matrix_transposes_vec():
    rng = np.random.default_rng(1)
    for p in (2, 3, 5):
        K = commutation_matrix(p)
        A = rng.standard_normal((p, p))
        np.testing.assert_allclose(K @ vec(A), vec(A.T))
        np.testing.assert_allclose(K @ K, np.eye(p * p))


def test_vec_is_column_major():
    A = np.array([[1.0, 3.0], [2.0, 4.0]])
    np.testing.assert_array_equal(vec(A), [1.0, 2.0, 3.0, 4.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_property_eigen_invariants(p, seed):
    """For any symmetric input: descending values, orthonormal vectors,
    exact reconstruction."""
    A = random_symmetric(p, seed)
    es = sym_eigen(A)
    assert np.all(np.diff(es.values) <= 1e-12)
    np.testing.assert_allclose(es.vectors.T @ es.vectors, np.eye(p), atol=1e-12)
    np.testing.assert_allclose(es.vectors @ np.diag(es.values) @ es.vectors.T, A, atol=1e-11)
