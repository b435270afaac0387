"""Sample summaries and the test statistics.

The hand-computable oracle: rows e1, e2, e3, origin give mean (1/4,1/4,1/4)
and covariance (1/16)*(4I - J).  Dual-form and invariance checks mirror the
numerical guarantees the statistics are supposed to satisfy.
"""

import math

import numpy as np
import pytest

from spikedcov.distributions import make_rng
from spikedcov.linalg import DegeneracyError, gram_schmidt_complement
from spikedcov.statistics import (
    anderson_statistic,
    decide,
    hpv_statistic,
    kurtosis_estimate,
    kurtosis_from_summary,
    oracle_statistic,
    pseudo_gaussian,
    q_delta,
    summarize,
    summary_from_covariance,
)


def random_summary(n, p, seed, spike=None):
    rng = make_rng(seed)
    X = rng.standard_normal((n, p))
    if spike is not None:
        X[:, 0] *= math.sqrt(1.0 + spike)
    return summarize(X), X


def unit(p, i=0):
    e = np.zeros(p)
    e[i] = 1.0
    return e


class TestSummarize:
    def test_hand_oracle(self):
        X = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0],
            ]
        )
        s = summarize(X)
        np.testing.assert_allclose(s.mean, [0.25, 0.25, 0.25])
        expected = (4.0 * np.eye(3) - np.ones((3, 3))) / 16.0
        np.testing.assert_allclose(s.cov, expected, atol=1e-15)
        # spectrum of (1/16)(4I - J): 4/16 twice, 1/16 once
        np.testing.assert_allclose(s.eigen.values, [0.25, 0.25, 0.0625], atol=1e-15)
        assert s.n == 4 and s.p == 3

    def test_divisor_is_n(self):
        X = np.array([[0.0], [2.0]])
        s = summarize(X)
        assert s.cov[0, 0] == pytest.approx(1.0)  # ((-1)^2 + 1^2)/2

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="n >= p\\+1"):
            summarize(np.eye(3))

    @pytest.mark.parametrize(
        "bad", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)], ids=str
    )
    def test_non_finite(self, bad):
        # A column holding +inf and -inf sums to nan, which numpy's sum
        # reports as an invalid value; one holding either sums to ±inf.
        X = make_rng(4).standard_normal((6, 2))
        X[1 : 1 + len(bad), 1] = bad
        message = "^data matrix contains non-finite entries$"
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=message):
                summarize(X)
            # Checked before the row count.
            with pytest.raises(ValueError, match=message):
                summarize(X[:2])

    def test_column_sum_overflow(self):
        # Finite entries whose column sum overflows are named as such,
        # not blamed on the covariance they would give.
        X = make_rng(4).standard_normal((6, 2))
        X[:, 0] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^column sums of the data overflow float64$"):
                summarize(X)

    def test_mean_matches_numpy_mean_bit_for_bit(self):
        rng = make_rng(5)
        for n, p in ((4, 3), (200, 10), (100_000, 2), (1001, 7)):
            X = 3.0 * rng.standard_normal((n, p)) + np.linspace(-5.0, 5.0, p)
            assert np.array_equal(summarize(X).mean, X.mean(axis=0))

    def test_rank_deficient(self):
        rng = make_rng(3)
        base = rng.standard_normal((6, 1))
        X = np.hstack([base, 2.0 * base, -base])  # rank one
        with pytest.raises(DegeneracyError):
            summarize(X)

    def test_from_covariance(self):
        S = np.diag([3.0, 2.0, 1.0])
        s = summary_from_covariance(S, 50)
        assert s.n == 50
        np.testing.assert_array_equal(s.eigen.values, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(s.mean, np.zeros(3))


class TestAnderson:
    def test_dual_spectral_form(self):
        """n(lam_j t0'S^-1 t0 + lam_j^-1 t0'S t0 - 2) must equal the spectral
        sum (n/lam_j) sum_k lam_k^-1 (lam_j - lam_k)^2 (theta_k' t0)^2."""
        rng = make_rng(12)
        worst = 0.0
        for trial in range(200):
            p = int(rng.integers(2, 8))
            B = rng.standard_normal((p + 4, p))
            s = summarize(B)
            theta = rng.standard_normal(p)
            theta /= np.linalg.norm(theta)
            j = int(rng.integers(1, p + 1))
            direct = anderson_statistic(s, theta, j)
            lam = s.eigen.values
            V = s.eigen.vectors
            lj = lam[j - 1]
            dual = 0.0
            for k in range(p):
                if k == j - 1:
                    continue
                dual += (lj - lam[k]) ** 2 / lam[k] * float(V[:, k] @ theta) ** 2
            dual *= s.n / lj
            worst = max(worst, abs(direct - dual))
        assert worst <= 1e-8, worst

    def test_exact_eigenvector_gives_zero(self):
        s, _ = random_summary(100, 4, 13)
        theta = s.eigen.vectors[:, 2]
        q = anderson_statistic(s, theta, 3)
        out = decide(q, 3, 0.05)
        assert abs(q) < 1e-9
        assert out.pvalue == pytest.approx(1.0, abs=1e-9)
        assert not out.reject

    def test_small_angle_matches_closed_form(self):
        # Σ = diag(2, 1, 1) and θ₀ at angle φ from e₁ in the (e₁, e₂)
        # plane: Q = n sin²φ (2 − 1)² / (2·1).  The form
        # n(λ̂₁θ₀ᵀS⁻¹θ₀ + θ₀ᵀSθ₀/λ̂₁ − 2) cancels to a relative 9e-5 here.
        n, phi = 100_000, 1e-6
        s = summary_from_covariance(np.diag([2.0, 1.0, 1.0]), n)
        theta = np.array([math.cos(phi), math.sin(phi), 0.0])
        expected = n * math.sin(phi) ** 2 / 2.0
        assert anderson_statistic(s, theta, 1) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_never_negative_near_sample_eigenvector(self):
        rng = make_rng(20)
        for seed in range(300):
            s, _ = random_summary(400, 5, 1000 + seed)
            j = int(rng.integers(1, 6))
            theta = s.eigen.vectors[:, j - 1] + 1e-9 * rng.standard_normal(5)
            theta /= np.linalg.norm(theta)
            assert anderson_statistic(s, theta, j) >= 0.0

    def test_index_validation(self):
        s, _ = random_summary(50, 3, 14)
        for j in (0, 4, -1):
            with pytest.raises(ValueError):
                anderson_statistic(s, unit(3), j)

    def test_tied_eigenvalue_degenerate(self):
        s = summary_from_covariance(np.diag([2.0, 1.0, 1.0]), 40)
        with pytest.raises(DegeneracyError, match="tied"):
            anderson_statistic(s, unit(3), 2)

    @pytest.mark.parametrize("statistic", [anderson_statistic, hpv_statistic])
    @pytest.mark.parametrize(
        "theta0, message",
        [
            ([1.0, 1.0, 0.0], "unit"),
            ([2.0, 0.0, 0.0], "unit"),
            ([1.0, 0.0], "length p=3"),
        ],
    )
    def test_theta0_must_be_unit(self, statistic, theta0, message):
        s, _ = random_summary(50, 3, 15)
        with pytest.raises(ValueError, match=message):
            statistic(s, np.array(theta0), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_theta0_rejected(self, bad):
        # abs(norm - 1) > tol is False for nan: the check must not let it by
        s, _ = random_summary(50, 3, 15)
        theta0 = np.array([bad, 0.0, 0.0])
        for statistic in (
            lambda: anderson_statistic(s, theta0, 1),
            lambda: hpv_statistic(s, theta0, 1),
            lambda: q_delta(s, theta0, 1.0, 0),
            lambda: oracle_statistic(s, theta0, np.eye(3)),
        ):
            with pytest.raises(ValueError, match="unit"):
                statistic()


class TestHPV:
    def test_uses_anchored_frame(self):
        # the statistic must equal a direct evaluation from the
        # gram_schmidt_complement frame
        s, _ = random_summary(80, 5, 16)
        theta = np.full(5, 1.0 / math.sqrt(5.0))
        j = 2
        frame = gram_schmidt_complement(
            theta, [s.eigen.vectors[:, k] for k in range(5) if k != j - 1]
        )
        lam = s.eigen.values
        others = [k for k in range(5) if k != j - 1]
        direct = sum(
            float(w @ (s.cov @ theta)) ** 2 / lam[k] for w, k in zip(frame, others)
        )
        direct *= s.n / lam[j - 1]
        assert hpv_statistic(s, theta, j) == pytest.approx(direct, rel=1e-12)

    def test_exact_eigenvector_gives_zero(self):
        s, _ = random_summary(100, 4, 17)
        theta = s.eigen.vectors[:, 0]
        assert hpv_statistic(s, theta, 1) == pytest.approx(0.0, abs=1e-12)

    def test_sign_of_theta0_irrelevant(self):
        s, _ = random_summary(60, 4, 18)
        theta = np.array([0.5, 0.5, 0.5, 0.5])
        a = hpv_statistic(s, theta, 1)
        b = hpv_statistic(s, -theta, 1)
        assert a == pytest.approx(b, abs=1e-9)


class TestInvariances:
    """The guarantees: translation, positive scaling and sign flips of the
    data leave both statistics unchanged to 1e-9."""

    def setup_method(self):
        rng = make_rng(19)
        self.X = rng.standard_normal((120, 4)) @ np.diag([2.0, 1.0, 0.7, 0.4])
        theta = rng.standard_normal(4)
        self.theta = theta / np.linalg.norm(theta)

    def _both(self, X):
        s = summarize(X)
        return anderson_statistic(s, self.theta, 1), hpv_statistic(s, self.theta, 1)

    def test_translation(self):
        a0, h0 = self._both(self.X)
        a1, h1 = self._both(self.X + np.array([100.0, -40.0, 7.5, 0.1]))
        assert abs(a1 - a0) <= 1e-9 * max(1.0, abs(a0))
        assert abs(h1 - h0) <= 1e-9 * max(1.0, abs(h0))

    def test_scaling(self):
        a0, h0 = self._both(self.X)
        for c in (1e-3, 5.0, 1e4):
            a1, h1 = self._both(c * self.X)
            assert abs(a1 - a0) <= 1e-9 * max(1.0, abs(a0))
            assert abs(h1 - h0) <= 1e-9 * max(1.0, abs(h0))

    def test_sign_flip(self):
        a0, h0 = self._both(self.X)
        a1, h1 = self._both(-self.X)
        assert abs(a1 - a0) <= 1e-9
        assert abs(h1 - h0) <= 1e-9


class TestKurtosis:
    def test_one_dimensional_two_point_oracle(self):
        # X = {-1, +1}: d_i^2 = 1 for both points, so
        # kappa_hat = 1/(1*3) * 1 - 1 = -2/3 exactly
        X = np.array([[-1.0], [1.0]])
        assert kurtosis_estimate(X) == pytest.approx(-2.0 / 3.0, abs=1e-14)

    def test_gaussian_near_zero(self):
        X = make_rng(20).standard_normal((60_000, 5))
        assert abs(kurtosis_estimate(X)) < 0.03

    def test_student_t9(self):
        from spikedcov.model import RadialFamily, SpikedModel, SpikeRate, sample

        m = SpikedModel(p=5, sigma=1.0, v=1.0, rate=SpikeRate.constant(1.0), theta1=unit(5))
        X = sample(m, 200_000, RadialFamily.student_t(9), make_rng(21))
        assert kurtosis_estimate(X) == pytest.approx(0.4, abs=0.05)

    def test_affine_invariance(self):
        rng = make_rng(22)
        X = rng.standard_normal((500, 3))
        A = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        k0 = kurtosis_estimate(X)
        k1 = kurtosis_estimate(X @ A + np.array([1.0, 2.0, 3.0]))
        assert k0 == pytest.approx(k1, abs=1e-9)

    @pytest.mark.parametrize("nu", [None, 6.0])
    def test_from_summary_matches_reference_bit_for_bit(self, nu):
        from spikedcov.model import RadialFamily, SpikedModel, SpikeRate, sample

        family = RadialFamily.gaussian() if nu is None else RadialFamily.student_t(nu)
        theta = np.arange(1.0, 11.0)
        m = SpikedModel(
            p=10,
            sigma=1.7,
            v=2.5,
            rate=SpikeRate.exponent(2),
            theta1=theta / np.linalg.norm(theta),
            mu=np.linspace(-3.0, 2.0, 10),
        )
        for seed in range(3):
            X = sample(m, 2000, family, make_rng(seed))
            s = summarize(X)
            # κ̂ as fresh-array expressions: W = (X − X̄)V, d² = W² λ̂⁻¹.
            W = (X - s.mean) @ s.eigen.vectors
            d2 = (W * W) @ (1.0 / s.eigen.values)
            ref = float(np.mean(d2**2) / (10 * 12) - 1.0)
            assert kurtosis_from_summary(s, X) == ref
            # The row sum of W²/λ̂ (divided, and added in another order) agrees to rounding.
            d2_rows = (W * W / s.eigen.values).sum(axis=1)
            np.testing.assert_allclose(d2, d2_rows, rtol=1e-13, atol=0)

    @staticmethod
    def fresh_kappa(s, Y):
        # κ̂ of Y against s as fresh-array expressions, Y centred anew.
        W = (Y - s.mean) @ s.eigen.vectors
        d2 = (W * W) @ (1.0 / s.eigen.values)
        return float(np.mean(d2**2) / (s.p * (s.p + 2)) - 1.0)

    def test_from_summary_of_another_array(self):
        rng = make_rng(26)
        X = rng.standard_normal((400, 4))
        Y = rng.standard_t(6, (400, 4))
        s = summarize(X)
        # Y has X's shape but is not the array s summarised, so s's
        # centred copy of X must not stand in for it.
        assert kurtosis_from_summary(s, Y) == self.fresh_kappa(s, Y)
        assert kurtosis_from_summary(s, Y) != kurtosis_from_summary(s, X)
        # An equal copy of X is another array too, with the same κ̂.
        assert kurtosis_from_summary(s, X.copy()) == kurtosis_from_summary(s, X)

    def test_from_covariance_summary(self):
        Y = make_rng(27).standard_normal((300, 3)) + 2.0
        s = summary_from_covariance(np.diag([3.0, 2.0, 1.0]), 300)
        assert s.centred is None
        assert kurtosis_from_summary(s, Y) == self.fresh_kappa(s, Y)

    def test_pseudo_gaussian(self):
        assert pseudo_gaussian(6.0, 0.5) == pytest.approx(4.0)
        assert pseudo_gaussian(6.0, 0.0) == 6.0
        with pytest.raises(ValueError):
            pseudo_gaussian(6.0, -1.0)


class TestQDeltaAndOracle:
    def test_q_delta_projector_algebra(self):
        s, _ = random_summary(70, 4, 23)
        theta = unit(4)
        for delta, v in [(0, 1.0), (1, 0.5), (1, 2.0)]:
            P = np.eye(4) - np.outer(theta, theta)
            expected = s.n / (1.0 + delta * v) * float(
                theta @ s.cov @ P @ s.cov @ theta
            )
            assert q_delta(s, theta, v, delta) == pytest.approx(expected, rel=1e-12)

    def test_q_delta_never_negative_near_sample_eigenvector(self):
        # θ₀ᵀS(I − θ₀θ₀ᵀ)Sθ₀ is a squared norm; the difference
        # ‖Sθ₀‖² − (θ₀ᵀSθ₀)² cancels here and rounds below zero
        rng = make_rng(20)
        for seed in range(300):
            s, _ = random_summary(400, 5, 1000 + seed)
            j = int(rng.integers(1, 6))
            theta = s.eigen.vectors[:, j - 1] + 1e-9 * rng.standard_normal(5)
            theta /= np.linalg.norm(theta)
            for delta, v in [(0, 1.0), (1, 2.0)]:
                assert q_delta(s, theta, v, delta) >= 0.0

    def test_q_delta_validation(self):
        s, _ = random_summary(70, 3, 24)
        with pytest.raises(ValueError):
            q_delta(s, unit(3), 1.0, 2)
        with pytest.raises(ValueError):
            q_delta(s, unit(3), -0.5, 1)

    def test_oracle_sherman_morrison(self):
        # (I + theta theta')^{-1} = I - theta theta'/2: the oracle's
        # weighting matrix is this exact inverse
        s, _ = random_summary(90, 3, 25)
        theta = np.array([2.0, -1.0, 2.0]) / 3.0
        sigma_n = np.eye(3) + 0.2 * np.outer(theta, theta)
        u = (s.cov - sigma_n) @ theta
        W = np.linalg.inv(np.eye(3) + np.outer(theta, theta))
        expected = s.n * float(u @ W @ u)
        assert oracle_statistic(s, theta, sigma_n) == pytest.approx(expected, rel=1e-12)

    def test_oracle_zero_at_truth(self):
        S = np.eye(3) + 0.3 * np.outer(unit(3), unit(3))
        s = summary_from_covariance(S, 100)
        assert oracle_statistic(s, unit(3), S) == pytest.approx(0.0, abs=1e-20)


class TestDecide:
    def test_pvalue_reject_consistency(self):
        for stat in (0.5, 3.0, 3.842, 10.0):
            out = decide(stat, 1, 0.05)
            assert out.reject == (out.pvalue < 0.05)

    @pytest.mark.parametrize("stat", [80.0, 90.0, 120.0])
    def test_small_pvalue_keeps_relative_precision(self, stat):
        # 1 − P(stat) loses these to cancellation, and reads 0 at 120.
        from scipy.stats import chi2

        assert decide(stat, 9, 0.05).pvalue == pytest.approx(chi2.sf(stat, 9), rel=1e-12, abs=0.0)

    def test_negative_rounding_clamped(self):
        out = decide(-1e-15, 2, 0.05)
        assert out.statistic == 0.0
        assert out.pvalue == 1.0

    def test_alpha_validation(self):
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                decide(1.0, 1, alpha)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5.0, -1e-6])
    def test_bad_statistic_raises(self, bad):
        # a non-finite or clearly negative statistic is degenerate, never
        # an acceptance with p-value 1 or nan
        with pytest.raises(DegeneracyError):
            decide(bad, 3, 0.05)

    def test_anderson_at_exact_eigenvector_decides(self):
        # the collapsed statistic rounds to within the tolerance of 0 at
        # every j, also at large n
        s, _ = random_summary(20_000, 5, 19)
        for j in range(1, 6):
            out = decide(anderson_statistic(s, s.eigen.vectors[:, j - 1], j), 4, 0.05)
            assert out.statistic < 1e-8
            assert not out.reject


def test_hpv_tracks_q_delta_for_large_n():
    """The data-driven statistic converges to the locally optimal one
    under a constant spike (delta = 1): the 95th percentile of
    |Q_hpv - Q_delta| over 500 null replicates shrinks by an order of
    magnitude between n = 1e3 and n = 1e5."""
    from spikedcov.model import RadialFamily, SpikedModel, SpikeRate, sample

    theta = unit(3)
    v = 1.0
    gaps = {}
    for n in (1_000, 100_000):
        rng = make_rng(26)
        model = SpikedModel(p=3, sigma=1.0, v=v, rate=SpikeRate.exponent(0), theta1=theta)
        diffs = []
        for _ in range(500):
            X = sample(model, n, RadialFamily.gaussian(), rng)
            s = summarize(X)
            diffs.append(abs(hpv_statistic(s, theta, 1) - q_delta(s, theta, v, 1)))
        gaps[n] = float(np.percentile(diffs, 95))
    assert gaps[100_000] < gaps[1_000] / 5.0, gaps
