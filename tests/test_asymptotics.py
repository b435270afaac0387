"""Limiting-distribution samplers, noncentrality formulas, power curves.

Distributional oracles used here:

* the 2x2 limit matrix has eigenvalue gap G with P(G <= g) = 1 - exp(-g^2/8)
  (G^2 = (Z11-Z22)^2 + 4 Z12^2 is 4*chi2_2 under the sampler normalization);
* the unnormalized p = 2 joint eigenvalue density integrates to 4*sqrt(2*pi),
  matching the closed form (1/(4 sqrt(2 pi))) (l1-l2) exp(-(l1^2+l2^2)/4);
* scipy.stats.ncx2 for the power curve.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from spikedcov import asymptotics
from spikedcov.asymptotics import (
    EigenvectorFrame,
    asymptotic_power,
    eigen_limit_sample,
    joint_eigenvalue_density,
    local_alternative,
    local_experiment,
    ncp_hpv_iii,
    ncp_oracle_iii,
    ncp_regime12,
    qa_limit_sample,
    sample_z_elliptical,
    type1_risk_iii,
    type1_risk_iv,
)
from spikedcov.distributions import make_rng, min_kappa
from spikedcov.model import RadialFamily, SpikedModel, SpikeRate, sample
from spikedcov.statistics import q_delta, summarize

SQRT2 = math.sqrt(2.0)


def unit(p, i=0):
    e = np.zeros(p)
    e[i] = 1.0
    return e


def _qa_from_spectrum(lam_desc: np.ndarray, first_components: np.ndarray) -> float:
    """Σ_{j≥2} (ℓ₁ − ℓ_j)² w_{j1}² from the full eigendecomposition."""
    l1 = lam_desc[0]
    return float(np.sum((l1 - lam_desc[1:]) ** 2 * first_components[1:] ** 2))


def _qa_from_eigh(Z: np.ndarray, kappa: float) -> float:
    lam, V = np.linalg.eigh(Z)
    return _qa_from_spectrum(lam[::-1], V[0, ::-1]) / (1.0 + kappa)


class TestLimitLawIdentity:
    """The samplers use Σ_{j≥2} (ℓ₁ − ℓ_j)² w_{j1}² = ‖(Z − ℓ₁I)e₁‖²,
    which needs only the top eigenvalue; the eigh form is the oracle."""

    CASES = [
        (p, v, kappa) for p in (2, 3, 10) for v in (0.0, 2.0, 8.0) for kappa in (0.0, 0.5, -0.1)
    ]

    def test_single_draw_matches_eigh_form(self):
        for p, v, kappa in self.CASES:
            for seed in range(5):
                got = qa_limit_sample(p, v, kappa, make_rng(seed))
                Z = sample_z_elliptical(p, kappa, make_rng(seed))
                Z[0, 0] += v
                assert got == pytest.approx(_qa_from_eigh(Z, kappa), rel=1e-12)

    def test_block_matches_eigh_form(self):
        for p, v, kappa in self.CASES:
            got = asymptotics._qa_limit_block(p, v, kappa, 200, make_rng(7))
            Z = asymptotics._elliptical_block(p, kappa, 200, make_rng(7))
            Z[:, 0, 0] += v
            ref = np.array([_qa_from_eigh(z, kappa) for z in Z])
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def _kernel_bound(Z: np.ndarray) -> np.ndarray:
    """8·ε·‖Z‖_F per matrix of a stack, without overflow or underflow."""
    scale = np.abs(Z).max(axis=(1, 2))
    scale[scale == 0.0] = 1.0
    Y = Z / scale[:, None, None]
    return 8.0 * np.finfo(float).eps * scale * np.sqrt((Y * Y).sum(axis=(1, 2)))


class TestTopEigenvalueKernel:
    """The batched ℓ₁ kernel behind the limit law, against LAPACK."""

    P_RANGE = range(2, asymptotics._KERNEL_MAX_P + 1)

    @pytest.mark.parametrize("p", P_RANGE)
    def test_matches_eigvalsh(self, p):
        for v in (0.0, 2.0, 8.0):
            # κ = −0.1 is below the floor −2/(p+2) from p = 19 on.
            for kappa in (0.0, 0.5, max(-0.1, min_kappa(p))):
                Z = asymptotics._elliptical_block(p, kappa, 300, make_rng(p))
                Z[:, 0, 0] += v
                got = asymptotics._top_eigenvalue_kernel(Z)
                err = np.abs(got - np.linalg.eigvalsh(Z)[:, -1])
                assert np.all(err <= _kernel_bound(Z)), (v, kappa, np.max(err / _kernel_bound(Z)))

    @pytest.mark.parametrize("p", [2, 3, 10, asymptotics._KERNEL_MAX_P])
    def test_structured_matrices(self, p):
        rng = np.random.default_rng(p)
        diagonal = np.diag(rng.standard_normal(p))
        # The top entry last, so the Sturm ratios before it stay nonzero.
        diagonal_top_last = np.diag(np.arange(p, dtype=float))
        exact = [
            (diagonal, diagonal.max()),
            (diagonal_top_last, p - 1.0),
            (2.5 * np.eye(p), 2.5),
            (-3.0 * np.eye(p), -3.0),
            (np.zeros((p, p)), 0.0),
        ]
        got = asymptotics._top_eigenvalue_kernel(np.array([Z for Z, _ in exact]))
        assert got.tolist() == [top for _, top in exact]

        G = rng.standard_normal((p, p))
        goe = (G + G.T) / SQRT2
        h = p // 2
        # Block-diagonal matrices reduce to a reducible tridiagonal; the
        # top block comes first in one and last in the other.
        upper_top, lower_top = goe.copy(), goe.copy()
        upper_top[:h, h:] = upper_top[h:, :h] = 0.0
        lower_top[:h, h:] = lower_top[h:, :h] = 0.0
        upper_top[:h, :h] += 10.0 * np.eye(h)
        lower_top[h:, h:] += 10.0 * np.eye(p - h)
        ones = np.ones((p, p))
        spike = np.zeros((p, p))
        spike[0, 0] = 4.0
        others = [upper_top, lower_top, ones, spike]
        others += [scale * goe for scale in (1e150, 1e-150, 1e300, 1e-300)]
        Z = np.array(others)
        err = np.abs(asymptotics._top_eigenvalue_kernel(Z) - np.linalg.eigvalsh(Z)[:, -1])
        assert np.all(err <= _kernel_bound(Z)), err / _kernel_bound(Z)

    @pytest.mark.parametrize("p", [2, 3, 10, asymptotics._KERNEL_MAX_P])
    def test_independent_of_batch_size(self, p):
        # With one matrix in the batch, numpy would sum along a matrix row
        # (then contiguous) pairwise and change its bits; the kernel's
        # sums run in a fixed order whatever the batch.
        Z = asymptotics._elliptical_block(p, 0.0, asymptotics._BLOCK, make_rng(40 + p))
        full = asymptotics._top_eigenvalue(Z)
        sub = asymptotics._SUB_BATCH
        for m in (1, 2, sub - 1, sub + 1):
            np.testing.assert_array_equal(asymptotics._top_eigenvalue(Z[:m]), full[:m])
        for i in (sub - 1, sub, asymptotics._BLOCK - 1):
            np.testing.assert_array_equal(asymptotics._top_eigenvalue(Z[i : i + 1]), full[i : i + 1])

    def test_block_equals_successive_draws(self):
        for p in (3, 10):
            block = asymptotics._qa_limit_block(p, 2.0, 0.0, 50, make_rng(41))
            rng = make_rng(41)
            one_by_one = [qa_limit_sample(p, 2.0, rng=rng) for _ in range(50)]
            assert block.tolist() == one_by_one

    def test_lapack_above_crossover(self):
        p = asymptotics._KERNEL_MAX_P + 1
        Z = asymptotics._elliptical_block(p, 0.0, 20, make_rng(42))
        np.testing.assert_array_equal(
            asymptotics._top_eigenvalue(Z), np.linalg.eigvalsh(Z)[:, -1]
        )


class TestQaLimitSampler:
    def test_requires_rng(self):
        with pytest.raises(ValueError):
            qa_limit_sample(2, 0.0)

    def test_p2_gap_law(self):
        # marginal check of the underlying matrix ensemble through the
        # statistic at v=0: the sampled values match 4*chi2_1 (KS, 1%)
        rng = make_rng(100)
        draws = np.array([qa_limit_sample(2, 0.0, rng=rng) for _ in range(20_000)])
        D, pval = stats.kstest(draws, lambda x: stats.chi2.cdf(x / 4.0, 1))
        assert pval > 0.01, (D, pval)

    def test_p3_mean(self):
        rng = make_rng(101)
        draws = np.array([qa_limit_sample(3, 0.0, rng=rng) for _ in range(60_000)])
        assert draws.mean() == pytest.approx(49.0 / 6.0, abs=0.25)

    def test_shift_reduces_risk(self):
        # a positive spike separates the first eigenvalue: the statistic
        # stochastically decreases, so tail risks fall with v
        rng = make_rng(102)
        est0 = type1_risk_iii(2, 0.0, 0.05, 30_000, rng)
        est4 = type1_risk_iii(2, 4.0, 0.05, 30_000, rng)
        assert est0.risk > est4.risk + 5 * (est0.se + est4.se)

    def test_elliptical_correction_restores_law(self):
        # dividing by (1+kappa) must give the same law as kappa = 0
        rng = make_rng(103)
        base = type1_risk_iii(2, 0.0, 0.05, 40_000, rng)
        ell = type1_risk_iii(2, 0.0, 0.05, 40_000, rng, kappa=1.0)
        assert ell.risk == pytest.approx(base.risk, abs=5 * (base.se + ell.se))


class TestRiskEstimators:
    def test_regime_iv_p2_anchor(self):
        est = type1_risk_iv(2, 0.05, 20_000, make_rng(104))
        assert est.risk == pytest.approx(0.327, abs=0.02)
        assert est.M == 20_000
        assert 0.0 < est.se < 0.01

    def test_alpha_monotonicity(self):
        # same stream, two thresholds: rejection counts must be nested
        r5 = type1_risk_iii(2, 0.0, 0.05, 20_000, make_rng(106))
        r1 = type1_risk_iii(2, 0.0, 0.01, 20_000, make_rng(106))
        assert r5.risk > r1.risk

    def test_invalid_M(self):
        with pytest.raises(ValueError):
            type1_risk_iii(2, 0.0, 0.05, 0, make_rng(0))

    def test_invalid_p(self):
        # p = 1 used to fail only in chi2_quantile, on its df
        with pytest.raises(ValueError, match="p must be at least 2"):
            type1_risk_iii(1, 0.0, 0.05, 100, make_rng(0))

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, min_kappa(3) - 1e-8])
    def test_invalid_kappa(self, kappa):
        with pytest.raises(ValueError, match=r"-2/\(p\+2\)"):
            type1_risk_iii(3, 0.0, 0.05, 100, make_rng(0), kappa=kappa)

    # v = inf used to give risk 0 with se 0 (every draw nan, and nan > crit
    # is False); v = nan used to fail in the eigensolver.
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda v: type1_risk_iii(3, v, 0.05, 100, make_rng(0)),
            lambda v: qa_limit_sample(3, v, rng=make_rng(0)),
            lambda v: eigen_limit_sample(3, v, "iii", rng=make_rng(0)),
        ],
        ids=["type1_risk_iii", "qa_limit_sample", "eigen_limit_sample"],
    )
    def test_invalid_v(self, draw, v):
        with pytest.raises(ValueError, match="v must be finite and nonnegative"):
            draw(v)


class TestEigenLimitSample:
    def test_regime_i_first_eigenvalue_variance(self):
        rng = make_rng(107)
        v = 1.5
        l1 = np.array([eigen_limit_sample(3, v, "i", rng=rng)[0][0] for _ in range(40_000)])
        assert l1.mean() == pytest.approx(0.0, abs=0.05)
        assert l1.var() == pytest.approx(2.0 * (1 + v) ** 2, rel=0.05)

    def test_regime_ii_variance_elliptical(self):
        rng = make_rng(108)
        kappa = 0.6
        l1 = np.array(
            [eigen_limit_sample(3, 1.0, "ii", kappa=kappa, rng=rng)[0][0] for _ in range(40_000)]
        )
        assert l1.var() == pytest.approx(2.0 + 3.0 * kappa, rel=0.05)

    def test_regimes_i_ii_have_no_frame(self):
        rng = make_rng(109)
        for regime in ("i", "ii"):
            values, frame = eigen_limit_sample(4, 1.0, regime, rng=rng)
            assert frame is None
            assert values.shape == (4,)
            # trailing block is sorted descending
            assert np.all(np.diff(values[1:]) <= 0)

    def test_regime_iii_shift_identity(self):
        # values[0] must be l1 of the shifted matrix minus v; with the
        # frame's own spectrum available this is directly checkable
        rng = make_rng(110)
        v = 2.0
        values, frame = eigen_limit_sample(3, v, "iii", rng=rng)
        assert frame is not None
        assert values[0] == pytest.approx(frame.values[0] - v)
        np.testing.assert_allclose(values[1:], frame.values[1:])

    def test_regime_iv_frame_properties(self):
        rng = make_rng(111)
        for _ in range(50):
            values, frame = eigen_limit_sample(4, 0.0, "iv", rng=rng)
            assert np.all(np.diff(values) <= 0)
            E = frame.frame
            np.testing.assert_allclose(E @ E.T, np.eye(4), atol=1e-10)
            assert np.all(E[:, 0] > 0)
            np.testing.assert_array_equal(values, frame.values)

    def test_regime_iv_gap_law(self):
        rng = make_rng(112)
        gaps = np.array(
            [np.diff(eigen_limit_sample(2, 0.0, "iv", rng=rng)[0])[0] * -1 for _ in range(20_000)]
        )
        D, pval = stats.kstest(gaps, lambda g: 1.0 - np.exp(-(g**2) / 8.0))
        assert pval > 0.01, (D, pval)

    def test_mean_square_gap_p2(self):
        # E (l1 - l2)^2 = Var(Z11 - Z22) + 4 Var(Z12) = 8
        rng = make_rng(113)
        gaps = np.array(
            [np.diff(eigen_limit_sample(2, 0.0, "iv", rng=rng)[0])[0] for _ in range(40_000)]
        )
        assert np.mean(gaps**2) == pytest.approx(8.0, rel=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            eigen_limit_sample(3, 1.0, "v", rng=make_rng(0))
        with pytest.raises(ValueError):
            eigen_limit_sample(1, 1.0, "i", rng=make_rng(0))
        with pytest.raises(ValueError):
            eigen_limit_sample(3, -1.0, "i", rng=make_rng(0))
        with pytest.raises(ValueError):
            eigen_limit_sample(3, 1.0, "iv")


class TestJointDensity:
    def test_p2_closed_form_normalization(self):
        # integrating the unnormalized density over l1 > l2 gives
        # 4*sqrt(2*pi); dividing by it recovers the closed form
        Z, err = integrate.dblquad(
            lambda l2, l1: joint_eigenvalue_density(np.array([l1, l2])),
            -12.0,
            12.0,
            lambda l1: -12.0,
            lambda l1: l1,
        )
        assert Z == pytest.approx(4.0 * math.sqrt(2.0 * math.pi), rel=1e-6)
        for pair in ([1.0, -0.5], [3.0, 2.0], [0.0, -4.0]):
            l1, l2 = pair
            closed = (l1 - l2) * math.exp(-(l1**2 + l2**2) / 4.0) / (4.0 * math.sqrt(2 * math.pi))
            assert joint_eigenvalue_density(np.array(pair)) / Z == pytest.approx(closed, rel=1e-6)

    @pytest.mark.parametrize(
        "ell", [[1.0, -0.5], [3.0, 2.0, -0.7], [2.5, 0.1, -0.3, -4.2], [0.9, 0.8, 0.7, 0.6, -1.3]]
    )
    def test_kappa_zero_is_the_gaussian_exponent_exactly(self, ell):
        # the general exponent at κ = 0 gives the bits of exp(−¼ Σℓ²)·Π
        ell = np.array(ell)
        vandermonde = 1.0
        for k in range(len(ell) - 1):
            vandermonde *= float(np.prod(ell[k] - ell[k + 1 :]))
        gaussian = float(np.exp(-0.25 * float(np.sum(ell**2))) * vandermonde)
        assert joint_eigenvalue_density(ell, 0.0) == gaussian

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -0.51])
    def test_invalid_kappa(self, kappa):
        with pytest.raises(ValueError, match=r"-2/\(p\+2\)"):
            joint_eigenvalue_density(np.array([1.0, -0.5]), kappa)

    def test_kappa_density_integrates_to_finite_mass(self):
        Z, err = integrate.dblquad(
            lambda l2, l1: joint_eigenvalue_density(np.array([l1, l2]), kappa=0.5),
            -20.0,
            20.0,
            lambda l1: -20.0,
            lambda l1: l1,
        )
        assert Z > 0 and err < 1e-6 * Z

    def test_histogram_matches_density_p2(self):
        # goodness of fit of the regime-iv sampler against the density on a
        # coarse 2-d grid (chi-square with generous dof allowance)
        rng = make_rng(114)
        M = 30_000
        draws = np.array([eigen_limit_sample(2, 0.0, "iv", rng=rng)[0] for _ in range(M)])
        edges = np.linspace(-4.0, 4.0, 9)
        H, _, _ = np.histogram2d(draws[:, 0], draws[:, 1], bins=(edges, edges))
        Z = 4.0 * math.sqrt(2.0 * math.pi)
        chi2_stat, dof = 0.0, 0
        for i in range(8):
            for jj in range(8):
                lo1, hi1, lo2, hi2 = edges[i], edges[i + 1], edges[jj], edges[jj + 1]
                if lo2 >= hi1:  # entirely above the diagonal: impossible cell
                    assert H[i, jj] == 0
                    continue
                # clip the inner range at l2 = l1 so the integrand stays smooth
                prob, _ = integrate.dblquad(
                    lambda l2, l1: joint_eigenvalue_density(np.array([l1, l2])) / Z,
                    lo1,
                    hi1,
                    lambda l1: min(lo2, l1),
                    lambda l1: min(hi2, l1),
                )
                if prob * M < 8:
                    continue
                chi2_stat += (H[i, jj] - prob * M) ** 2 / (prob * M)
                dof += 1
        # dof cells, no fitted parameters; 0.1% critical value
        assert chi2_stat < stats.chi2.ppf(0.999, dof), (chi2_stat, dof)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            joint_eigenvalue_density(np.array([0.0, 1.0]))


class TestNoncentralities:
    def test_regime12(self):
        assert ncp_regime12(2.0, 0, 0.5) == pytest.approx(1.0)
        assert ncp_regime12(2.0, 1, 0.5) == pytest.approx(4.0 * 0.25 / 3.0)
        assert ncp_regime12(1.0, 0, 0.0) == 0.0

    def test_boundary_zeros(self):
        assert ncp_hpv_iii(1.0, 0.0) == 0.0
        assert ncp_oracle_iii(1.0, 0.0) == 0.0
        # orthogonal alternative: the data-driven test has exactly no power
        assert ncp_hpv_iii(1.0, SQRT2) == 0.0
        # ... while the oracle keeps some
        assert ncp_oracle_iii(1.0, SQRT2) == pytest.approx(0.5)

    def test_oracle_dominates_hpv(self):
        # (4 - 2t + t^2/2) - (2-t)^2 = t(2 - t/2) >= 0 on [0, 2]
        for tau in np.linspace(0.0, SQRT2, 30):
            assert ncp_oracle_iii(1.3, tau) >= ncp_hpv_iii(1.3, tau) - 1e-15

    def test_same_small_tau_expansion(self):
        # both noncentralities behave like v^2 tau^2 as tau -> 0
        v, tau = 0.8, 1e-4
        lead = v**2 * tau**2
        assert ncp_hpv_iii(v, tau) == pytest.approx(lead, rel=1e-6)
        assert ncp_oracle_iii(v, tau) == pytest.approx(lead, rel=1e-6)

    def test_out_of_range_tau(self):
        with pytest.raises(ValueError):
            ncp_hpv_iii(1.0, SQRT2 + 1e-6)
        with pytest.raises(ValueError):
            ncp_oracle_iii(1.0, -0.1)

    def test_hpv_ncp_unimodal_with_interior_max(self):
        taus = np.linspace(0.0, SQRT2, 200)
        vals = [ncp_hpv_iii(1.0, t) for t in taus]
        k = int(np.argmax(vals))
        assert 0 < k < 199
        assert all(np.diff(vals[: k + 1]) >= -1e-12)
        assert all(np.diff(vals[k:]) <= 1e-12)


class TestAsymptoticPower:
    def test_zero_ncp_is_alpha(self):
        for df, alpha in [(1, 0.05), (9, 0.01)]:
            assert asymptotic_power(df, 0.0, alpha) == pytest.approx(alpha, abs=1e-10)

    def test_matches_scipy(self):
        for df, ncp, alpha in [(1, 2.0, 0.05), (9, 10.0, 0.01), (4, 0.3, 0.10)]:
            crit = stats.chi2.ppf(1 - alpha, df)
            expected = 1.0 - stats.ncx2.cdf(crit, df, ncp)
            assert asymptotic_power(df, ncp, alpha) == pytest.approx(expected, abs=1e-9)

    def test_increasing_in_ncp(self):
        powers = [asymptotic_power(3, ncp, 0.05) for ncp in np.linspace(0, 20, 40)]
        assert all(b > a for a, b in zip(powers, powers[1:]))


class TestLocalExperiment:
    def test_quadratic_form_reproduces_q_delta(self):
        # with theta0 an exact eigenvector of Sigma_n, Delta' Gamma^- Delta
        # equals the q_delta statistic for any sample
        rng = make_rng(115)
        theta = unit(4)
        v, delta = 1.2, 1
        sigma_n = np.eye(4) + 0.37 * np.outer(theta, theta)
        for _ in range(10):
            X = rng.standard_normal((60, 4))
            s = summarize(X)
            le = local_experiment(s, theta, v, delta, sigma_n)
            quad = float(le.central @ np.linalg.pinv(le.info) @ le.central)
            assert quad == pytest.approx(q_delta(s, theta, v, delta), rel=1e-9)

    def test_information_matrix_form(self):
        s = summarize(make_rng(116).standard_normal((50, 3)))
        theta = unit(3)
        le = local_experiment(s, theta, 2.0, 0, np.eye(3))
        np.testing.assert_allclose(le.info, 4.0 * (np.eye(3) - np.outer(theta, theta)))

    def test_central_sequence_covariance(self):
        # under a constant spike (delta = 1 matching), Cov(Delta) -> Gamma
        v = 1.0
        theta = unit(3)
        sigma = np.eye(3) + v * np.outer(theta, theta)
        model = SpikedModel(p=3, sigma=1.0, v=v, rate=SpikeRate.constant(1.0), theta1=theta)
        rng = make_rng(117)
        M, n = 4_000, 300
        deltas = np.empty((M, 3))
        for i in range(M):
            X = sample(model, n, RadialFamily.gaussian(), rng)
            deltas[i] = local_experiment(summarize(X), theta, v, 1, sigma).central
        cov = np.cov(deltas.T)
        gamma = v**2 / (1 + v) * (np.eye(3) - np.outer(theta, theta))
        assert np.max(np.abs(cov - gamma)) < 0.05, cov

    def test_local_alternative_admissibility(self):
        theta = unit(3)
        tau = np.array([0.0, 0.3, 0.4])  # orthogonal to theta, nu = 0 admissible
        la = local_alternative(theta, tau, 0.0)
        assert la.residual <= 1e-10
        # tilting tau towards theta violates the sphere constraint
        with pytest.raises(ValueError):
            local_alternative(theta, np.array([0.2, 0.3, 0.4]), 0.0)
        # ... unless nu compensates exactly: theta'tau = -(nu/2)||tau||^2
        tau2 = np.array([-0.145, 0.3, 0.4])
        nu = -2.0 * float(theta @ tau2) / float(tau2 @ tau2)
        la2 = local_alternative(theta, tau2, nu)
        assert la2.nu == pytest.approx(nu)

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            EigenvectorFrame(values=np.array([1.0, 2.0]), frame=np.eye(2))
        with pytest.raises(ValueError):
            EigenvectorFrame(values=np.array([2.0, 1.0]), frame=np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            EigenvectorFrame(values=np.array([2.0, 1.0]), frame=-np.eye(2))
