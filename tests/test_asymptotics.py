"""Limiting-distribution samplers, noncentrality formulas, power curves.

Distributional oracles used here:

* the 2x2 limit matrix has eigenvalue gap G with P(G <= g) = 1 - exp(-g^2/8)
  (G^2 = (Z11-Z22)^2 + 4 Z12^2 is 4*chi2_2 under the sampler normalization);
* the unnormalized p = 2 joint eigenvalue density integrates to 4*sqrt(2*pi),
  matching the closed form (1/(4 sqrt(2 pi))) (l1-l2) exp(-(l1^2+l2^2)/4);
* scipy.stats.ncx2 for the power curve.
"""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from spikedcov import asymptotics
from spikedcov.asymptotics import (
    asymptotic_power,
    eigen_limit_sample,
    joint_eigenvalue_density,
    local_experiment,
    ncp_hpv_iii,
    ncp_oracle_iii,
    ncp_regime12,
    qa_limit_sample,
    sample_z_elliptical,
    type1_risk_iii,
)
from spikedcov.distributions import chi2_quantile, make_rng, min_kappa
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
                got = qa_limit_sample(p, v, kappa, rng=make_rng(seed))
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

    def test_block_equals_successive_draws(self):
        for p, kappa in ((3, 0.0), (10, 0.0), (10, 0.5), (25, 0.0)):
            block = asymptotics._qa_limit_block(p, 2.0, kappa, 50, make_rng(41))
            rng = make_rng(41)
            one_by_one = [qa_limit_sample(p, 2.0, kappa, rng=rng) for _ in range(50)]
            assert block.tolist() == one_by_one, (p, kappa)


class TestLimitLawHits:
    """type1_risk_iii decides each draw by one Cholesky factorization of
    tI − Z (asymptotics._limit_law_hits); the value path, which takes ℓ₁
    from eigvalsh, is the oracle."""

    @pytest.mark.parametrize("p", [*range(2, 11), 24, 25, 30])
    def test_hits_match_the_value_path(self, p):
        M = 256
        for v in (0.0, 2.0, 8.0, 1e16, 1e300):
            for kappa in sorted({0.0, 0.5, max(-0.1, min_kappa(p))}):
                for seed in range(3):
                    Z = asymptotics._elliptical_block(p, kappa, M, make_rng(seed))
                    if v < 1e300:
                        values = asymptotics._qa_limit_block(p, v, kappa, M, make_rng(seed))
                    else:
                        # eigvalsh's ℓ₁ is accurate to ε‖Z‖ only, and at
                        # v = 1e300 the square of that error overflows.  There
                        # ℓ₁ − Z₁₁ is of order r²/v, so the value is r².
                        values = (Z[:, 1:, 0] ** 2).sum(axis=1) / (1.0 + kappa)
                    Z[:, 0, 0] += v
                    for alpha in (0.05, 0.01):
                        crit = chi2_quantile(1.0 - alpha, p - 1)
                        hits = asymptotics._limit_law_hits(Z, crit * (1.0 + kappa))
                        est = type1_risk_iii(p, v, alpha, M, make_rng(seed), kappa=kappa)
                        assert est.risk == np.count_nonzero(hits) / M
                        # Only a draw within rounding of crit may be decided
                        # differently; none is expected.
                        differ = hits != (values > crit)
                        assert np.all(np.abs(values[differ] - crit) <= 1e-10 * crit), (
                            v, kappa, seed, alpha, values[differ],
                        )

    def test_known_answers(self):
        # ‖(Z − ℓ₁I)e₁‖² against c = 4.
        p, c = 3, 4.0
        cases = []
        # r² ≥ c decides alone; at r² = c the value still exceeds c, since
        # ℓ₁ > Z₁₁ once the first column is off the diagonal.
        for z21, hit in ((3.0, True), (2.0, True), (1.0, False)):
            Z = np.zeros((p, p))
            Z[1, 0] = Z[0, 1] = z21
            cases.append((Z, hit))
        # Diagonal: the value is (max diag − Z₁₁)².
        for diag, hit in (((0.0, 1.0, 3.0), True), ((0.0, 1.0, 1.9), False),
                          ((5.0, 1.0, 3.0), False), ((-1e300, 0.0, 1e300), True)):
            cases.append((np.diag(diag), hit))
        # Rank one, Z = λxxᵀ with ‖x‖ = 1: ℓ₁ = max(λ, 0), and the value is
        # λ²(1 − x₁²) for λ > 0 and λ²x₁² for λ < 0.
        x = np.array([math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)])
        for lam, hit in ((3.0, True), (2.5, False), (-3.0, True), (-2.5, False)):
            cases.append((lam * np.outer(x, x), hit))
        Z = np.array([Z for Z, _ in cases])
        expected = [hit for _, hit in cases]
        assert asymptotics._limit_law_hits(Z, c).tolist() == expected
        for i, (Z1, hit) in enumerate(cases):
            assert asymptotics._limit_law_hits(Z1[None], c).tolist() == [hit], i

    @pytest.mark.parametrize("p", [2, 3, 10, 24])
    def test_structured_matrices(self, p):
        rng = np.random.default_rng(p)
        G = rng.standard_normal((p, p))
        goe = (G + G.T) / SQRT2
        h = p // 2
        # Block-diagonal: the first column lies in the top block in one and
        # in the lower block in the other.
        upper_top, lower_top = goe.copy(), goe.copy()
        upper_top[:h, h:] = upper_top[h:, :h] = 0.0
        lower_top[:h, h:] = lower_top[h:, :h] = 0.0
        upper_top[:h, :h] += 10.0 * np.eye(h)
        lower_top[h:, h:] += 10.0 * np.eye(p - h)
        diagonal = np.diag(rng.standard_normal(p))
        spike = np.zeros((p, p))
        spike[0, 0] = 4.0
        # ‖(Z − ℓ₁I)e₁‖² of each matrix; the all-ones matrix has ℓ₁ = p.
        cases = [
            (diagonal, (np.diag(diagonal).max() - diagonal[0, 0]) ** 2),
            (np.ones((p, p)), p * (p - 1.0)),
            (2.5 * np.eye(p), 0.0),
            (-3.0 * np.eye(p), 0.0),
            (np.zeros((p, p)), 0.0),
            (spike, 0.0),
        ]
        cases += [(Z, _qa_from_eigh(Z, 0.0)) for Z in (goe, upper_top, lower_top)]
        Z, c, expected = [], [], []
        for Zi, value in cases:
            # Clear of the value by 1%, or c = 1 where the value is 0.
            for ci, hit in ((0.99 * value, True), (1.01 * value, False)) if value else ((1.0, False),):
                Z.append(Zi)
                c.append(ci)
                expected.append(hit)
        got = [asymptotics._limit_law_hits(Zi[None], ci)[0] for Zi, ci in zip(Z, c)]
        assert got == expected
        # Z → 2ᵏZ and c → 4ᵏc scale every step by a power of two, which is
        # exact while nothing overflows or falls subnormal.
        for k in (-400, -1, 1, 400):
            scaled = [
                asymptotics._limit_law_hits(math.ldexp(1.0, k) * Zi[None], math.ldexp(ci, 2 * k))[0]
                for Zi, ci in zip(Z, c)
            ]
            assert scaled == expected, k

    @pytest.mark.parametrize("p", [2, 3, 10, 24])
    def test_independent_of_batch_size(self, p):
        m = 3000
        Z = asymptotics._elliptical_block(p, 0.0, m, make_rng(40 + p))
        Z[:, 0, 0] += 2.0
        for alpha in (0.5, 0.05, 0.01):
            c = chi2_quantile(1.0 - alpha, p - 1)
            full = asymptotics._limit_law_hits(Z, c)
            assert 0 < np.count_nonzero(full) < m, alpha
            for k in (1, 2, 2047, 2049):
                np.testing.assert_array_equal(asymptotics._limit_law_hits(Z[:k], c), full[:k])
            for i in (2047, 2048, m - 1):
                np.testing.assert_array_equal(
                    asymptotics._limit_law_hits(Z[i : i + 1], c), full[i : i + 1]
                )


class TestQaLimitSampler:
    def test_requires_rng(self):
        with pytest.raises(TypeError, match="rng"):
            qa_limit_sample(2, 0.0)

    def test_rng_is_keyword_only(self):
        # kappa is the last positional slot; a generator passed after it
        # is refused rather than taken for the rng
        with pytest.raises(TypeError):
            qa_limit_sample(2, 0.0, 0.0, make_rng(0))
        assert qa_limit_sample(2, 0.0, 0.0, rng=make_rng(0)) == qa_limit_sample(
            2, 0.0, rng=make_rng(0)
        )

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
        est = type1_risk_iii(2, 0.0, 0.05, 20_000, make_rng(104))
        assert est.risk == pytest.approx(0.327, abs=0.02)
        assert est.M == 20_000
        assert 0.0 < est.se < 0.01

    def test_alpha_monotonicity(self):
        # same stream, two thresholds: rejection counts must be nested
        r5 = type1_risk_iii(2, 0.0, 0.05, 20_000, make_rng(106))
        r1 = type1_risk_iii(2, 0.0, 0.01, 20_000, make_rng(106))
        assert r5.risk > r1.risk

    @pytest.mark.parametrize("p", [20, 30])
    def test_risk_does_not_depend_on_the_blocks(self, p):
        # At p = 20 and 30 the estimator draws 512 and 227 matrices per
        # block; the hits equal those of the same draws taken as one block.
        M, crit = 700, chi2_quantile(0.95, p - 1)
        est = type1_risk_iii(p, 1.0, 0.05, M, make_rng(113), kappa=0.5)
        draws = asymptotics._qa_limit_block(p, 1.0, 0.5, M, make_rng(113))
        assert est.risk == np.count_nonzero(draws > crit) / M

    def test_memory_is_bounded_at_large_p(self):
        # With M matrices in one stack, G and Z alone would take 2 × 14.7 MB.
        tracemalloc.start()
        try:
            type1_risk_iii(30, 0.0, 0.05, 2048, make_rng(114))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.1, 0.0, 1.0, 1.5])
    def test_invalid_alpha_names_alpha(self, alpha):
        for call in (
            lambda: type1_risk_iii(3, 0.0, alpha, 100, make_rng(0)),
            lambda: asymptotic_power(2, 1.0, alpha),
        ):
            with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
                call()

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
            # v = −1 used to give the noncentralities of v = 1
            lambda v: ncp_hpv_iii(v, 1.0),
            lambda v: ncp_oracle_iii(v, 1.0),
            lambda v: ncp_regime12(v, 0, 1.0),
        ],
        ids=[
            "type1_risk_iii",
            "qa_limit_sample",
            "eigen_limit_sample",
            "ncp_hpv_iii",
            "ncp_oracle_iii",
            "ncp_regime12",
        ],
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
        # values[0] must be l1 of the shifted matrix Z_f + v e1e1' minus v,
        # and the rest its trailing spectrum; the same seed redraws Z_f
        v = 2.0
        values, frame = eigen_limit_sample(3, v, "iii", rng=make_rng(110))
        assert frame is not None
        Z = sample_z_elliptical(3, 0.0, make_rng(110))
        Z[0, 0] += v
        ell = np.linalg.eigvalsh(Z)[::-1]
        assert values[0] == pytest.approx(ell[0] - v)
        np.testing.assert_allclose(values[1:], ell[1:])

    def test_regime_iii_frame_diagonalizes_shifted_matrix(self):
        # the frame belongs to Z_f + v e1e1', so its first value is
        # values[0] + v, undoing the complementary shift
        rng = make_rng(114)
        v = 1.5
        for _ in range(50):
            Z = sample_z_elliptical(4, 0.3, copy.deepcopy(rng))
            Z[0, 0] += v
            values, E = eigen_limit_sample(4, v, "iii", kappa=0.3, rng=rng)
            np.testing.assert_allclose(E @ E.T, np.eye(4), atol=1e-10)
            assert np.all(E[:, 0] > 0)
            shifted = values.copy()
            shifted[0] += v
            np.testing.assert_allclose(E @ Z @ E.T, np.diag(shifted), atol=1e-10)

    def test_regime_iv_frame_properties(self):
        rng = make_rng(111)
        for _ in range(50):
            # a copy of the generator redraws the same Z_f (v = 0 here)
            Z = sample_z_elliptical(4, 0.0, copy.deepcopy(rng))
            values, E = eigen_limit_sample(4, 0.0, "iv", rng=rng)
            assert E.shape == (4, 4)
            assert np.all(np.diff(values) <= 0)
            np.testing.assert_allclose(E @ E.T, np.eye(4), atol=1e-10)
            assert np.all(E[:, 0] > 0)
            # row j is the eigenvector of values[j]
            np.testing.assert_allclose(E @ Z @ E.T, np.diag(values), atol=1e-10)

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
        with pytest.raises(TypeError, match="rng"):
            eigen_limit_sample(3, 1.0, "iv")

    def test_rng_is_keyword_only(self):
        with pytest.raises(TypeError):
            eigen_limit_sample(3, 1.0, "iv", 0.0, make_rng(0))
        by_keyword = eigen_limit_sample(3, 1.0, "iv", 0.0, rng=make_rng(0))[0]
        default_kappa = eigen_limit_sample(3, 1.0, "iv", rng=make_rng(0))[0]
        np.testing.assert_array_equal(by_keyword, default_kappa)


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
        # nan and inf used to come back as the noncentrality
        for tau_norm in (math.nan, math.inf, -0.5):
            with pytest.raises(ValueError, match="tau_norm must be finite and nonnegative"):
                ncp_regime12(1.0, 0, tau_norm)

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

    @pytest.mark.parametrize("theta0", [[1.0, 1.0, 0.0], [math.nan, 0.0, 0.0], [1.0, 0.0]])
    def test_theta0_is_validated(self, theta0):
        # any theta0 used to be taken, of any norm or length
        s = summarize(make_rng(116).standard_normal((50, 3)))
        with pytest.raises(ValueError, match="unit|length"):
            local_experiment(s, np.array(theta0), 2.0, 0, np.eye(3))

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
