"""Distribution helpers: chi-square CDF/quantile, the noncentral series,
and the random-matrix samplers.

Oracles
-------
* chi-square: quadrature of the density, scipy.stats frozen values, and
  scipy.special's incomplete gamma functions live for df 1..400
* noncentral chi-square: scipy.stats.ncx2 (frozen values, and live up
  to ncp = 10^6) and a direct Monte Carlo construction ||Z + mu||^2
* samplers: analytic first/second moments of the Gaussian orthogonal
  ensemble and its elliptical extension
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special
from scipy import stats as scipy_stats

from spikedcov.asymptotics import sample_z_elliptical
from spikedcov.distributions import (
    _chi2_cdf_sf,
    _chi2_tails,
    chi2_cdf,
    chi2_quantile,
    make_rng,
    min_kappa,
    noncentral_chi2_cdf,
)

from matrix_helpers import commutation_matrix, vec

# frozen from scipy.stats.chi2 / scipy.stats.ncx2 (oracle run 2026-08-15)
CHI2_QUANTILES = [
    (0.95, 1, 3.841458820694124),
    (0.95, 9, 16.918977604620448),
    (0.99, 9, 21.665994333461924),
    (0.999, 1, 10.827566170662733),
    (0.5, 4, 3.3566939800333224),
]
CHI2_CDFS = [
    (1.0, 1, 0.6826894921370859),
    (2.5, 3, 0.5247089166569795),
    (16.918977604620448, 9, 0.95),
]
NCX2_CDFS = [
    (1, 0.5, 0.8, 0.519665938328635),
    (3, 4.0, 5.0, 0.3993341895370014),
    (9, 12.3, 20.0, 0.4808814549105328),
    (2, 25.0, 30.0, 0.6484459543631381),
]


class TestChi2:
    @pytest.mark.parametrize("q,df,expected", CHI2_QUANTILES)
    def test_quantile_frozen(self, q, df, expected):
        assert chi2_quantile(q, df) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("x,df,expected", CHI2_CDFS)
    def test_cdf_frozen(self, x, df, expected):
        assert chi2_cdf(x, df) == pytest.approx(expected, abs=1e-12)

    def test_against_quadrature(self):
        # integrate the chi-square(1) density directly and invert by brentq
        def density(t):
            return t ** (-0.5) * math.exp(-t / 2.0) / (math.sqrt(2.0) * math.gamma(0.5))

        x = 2.3
        mass, _ = integrate.quad(density, 0, x)
        assert chi2_cdf(x, 1) == pytest.approx(mass, abs=1e-9)
        root = optimize.brentq(lambda t: chi2_cdf(t, 1) - mass, 1e-12, 50.0)
        assert chi2_quantile(mass, 1) == pytest.approx(root, abs=1e-8)

    def test_cdf_edge_cases(self):
        assert chi2_cdf(0.0, 3) == 0.0
        assert _chi2_cdf_sf(0.0, 3) == (0.0, 1.0)
        assert _chi2_cdf_sf(math.inf, 3) == (1.0, 0.0)
        with pytest.raises(ValueError):
            chi2_cdf(-0.1, 3)
        for q in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                chi2_quantile(q, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 50), st.floats(0.001, 0.999))
    def test_round_trip_property(self, df, q):
        # cdf(quantile(q)) == q to 1e-9 across the usable range
        assert chi2_cdf(chi2_quantile(q, df), df) == pytest.approx(q, abs=1e-9)


class TestClosedForms:
    """The integer-df closed forms against scipy.special's incomplete
    gamma functions, which computed these values before."""

    def test_upper_tail_matches_scipy(self):
        for df in range(1, 401):
            xs = [df * f for f in (0.05, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0)]
            for x in xs + [0.3, 5.0, 60.0, 700.0]:
                expected = special.gammaincc(df / 2.0, x / 2.0)
                assert _chi2_tails(x, df)[1] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_quantiles_within_32_ulp_of_scipy(self):
        for df in range(1, 401):
            for q in (0.9, 0.95, 0.99, 0.999):
                expected = 2.0 * special.gammaincinv(df / 2.0, q)
                assert abs(chi2_quantile(q, df) - expected) <= 32 * math.ulp(expected), (df, q)

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 101, 400])
    def test_extreme_levels_solve(self, df):
        low = chi2_quantile(1e-300, df)
        assert 0.0 <= low < df
        high = chi2_quantile(1.0 - 2.0**-53, df)
        assert high == pytest.approx(2.0 * special.gammainccinv(df / 2.0, 2.0**-53), rel=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 3, 9, 400])
    def test_cdf_at_zero_is_exactly_zero(self, df):
        assert chi2_cdf(0.0, df) == 0.0
        assert noncentral_chi2_cdf(0.0, df, 5.0) == 0.0

    @pytest.mark.parametrize("df", [2.5, 0, -1, math.nan])
    def test_non_integer_df_rejected(self, df):
        for call in (
            lambda: chi2_cdf(1.0, df),
            lambda: chi2_quantile(0.5, df),
            lambda: noncentral_chi2_cdf(1.0, df, 2.0),
        ):
            with pytest.raises(ValueError, match="df must be a positive integer"):
                call()


class TestNoncentralChi2:
    @pytest.mark.parametrize("df,lam,x,expected", NCX2_CDFS)
    def test_frozen_scipy_values(self, df, lam, x, expected):
        assert noncentral_chi2_cdf(x, df, lam) == pytest.approx(expected, abs=1e-10)

    def test_reduces_to_central(self):
        for df in (1, 4, 9):
            for x in (0.5, 3.0, 12.0):
                assert noncentral_chi2_cdf(x, df, 0.0) == pytest.approx(
                    chi2_cdf(x, df), abs=1e-12
                )

    def test_monte_carlo_construction(self):
        # ||Z + mu||^2 with Z ~ N(0, I_3), ||mu||^2 = 4 is ncx2(df=3, ncp=4)
        rng = make_rng(2024)
        Z = rng.standard_normal((1_000_000, 3))
        Z[:, 0] += 2.0
        draws = (Z * Z).sum(axis=1)
        for x in (2.0, 7.0, 15.0):
            emp = float(np.mean(draws <= x))
            assert noncentral_chi2_cdf(x, 3, 4.0) == pytest.approx(emp, abs=2e-3)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 40.0, 50)
        vals = [noncentral_chi2_cdf(x, 5, 10.0) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0
        assert vals[-1] > 0.99

    def test_large_ncp_series_stays_normalized(self):
        # the Poisson-mixture series must not truncate early for ncp >> df
        assert noncentral_chi2_cdf(1e4, 2, 400.0) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < noncentral_chi2_cdf(390.0, 2, 400.0) < 1.0

    # From ncp ≈ 3e5 on, the rounding of the log-weights kept the summed
    # Poisson mass from coming within 1e-12 of 1: the series ran 10⁶ terms
    # and raised RuntimeError (at 3e5 and 5e5, not at 4e5).
    @pytest.mark.parametrize("ncp", [1e-300, 0.3, 30.0, 3e3, 3e5, 4e5, 5e5, 1e6, 1e7])
    @pytest.mark.parametrize("df", [1, 9])
    def test_matches_scipy_up_to_large_ncp(self, ncp, df):
        mean, sd = df + ncp, math.sqrt(2.0 * (df + 2.0 * ncp))
        for z in (-4.0, -1.0, 0.0, 1.0, 4.0):
            x = max(0.0, mean + z * sd)
            assert noncentral_chi2_cdf(x, df, ncp) == pytest.approx(
                scipy_stats.ncx2.cdf(x, df, ncp), abs=1e-8
            )

    # scipy.special took 63 and 169 ms here, each term a separate call.
    @pytest.mark.parametrize("ncp,seconds", [(1e6, 0.063), (1e7, 0.169)])
    def test_large_ncp_takes_at_most_twice_the_incomplete_gamma_time(self, ncp, seconds):
        worst = 0.0
        for df in (1, 9):
            for z in (-4.0, 0.0, 4.0):
                x = df + ncp + z * math.sqrt(2.0 * (df + 2.0 * ncp))
                best = math.inf
                for _ in range(3):
                    start = time.perf_counter()
                    noncentral_chi2_cdf(x, df, ncp)
                    best = min(best, time.perf_counter() - start)
                worst = max(worst, best)
        assert worst <= 2.0 * seconds

    @pytest.mark.parametrize("ncp", [math.nan, math.inf, -1.0, 2e7])
    def test_ncp_outside_its_range_rejected(self, ncp):
        with pytest.raises(ValueError, match="ncp must be finite, nonnegative"):
            noncentral_chi2_cdf(3.0, 2, ncp)


class TestGOESampler:
    def test_symmetry_exact(self):
        rng = make_rng(5)
        for _ in range(10):
            Z = sample_z_elliptical(4, 0.0, rng)
            np.testing.assert_array_equal(Z, Z.T)

    def test_second_moments(self):
        rng = make_rng(6)
        M = 200_000
        draws = np.array([sample_z_elliptical(2, 0.0, rng) for _ in range(M)])
        # Var(Z11) = 2, Var(Z12) = 1, everything mean zero
        assert abs(draws[:, 0, 0].mean()) < 0.02
        assert draws[:, 0, 0].var() == pytest.approx(2.0, abs=0.05)
        assert draws[:, 0, 1].var() == pytest.approx(1.0, abs=0.03)
        assert abs(np.mean(draws[:, 0, 0] * draws[:, 1, 1])) < 0.02

    def test_vec_covariance_is_identity_plus_commutation(self):
        # Cov(vec Z) = I_{p^2} + K_p for the GOE normalization used here
        p, M = 3, 150_000
        rng = make_rng(7)
        V = np.empty((M, p * p))
        for i in range(M):
            V[i] = vec(sample_z_elliptical(p, 0.0, rng))
        cov = np.cov(V.T)
        target = np.eye(p * p) + commutation_matrix(p)
        assert np.max(np.abs(cov - target)) < 0.06


def sample_z_v(p, v, rng):
    """Spiked-scaled GOE matrix Λ(v)^{1/2} Z Λ(v)^{1/2}, Λ(v) = diag(1+v, 1, ..., 1)."""
    d = np.ones(p)
    d[0] = math.sqrt(1.0 + v)
    return sample_z_elliptical(p, 0.0, rng) * np.outer(d, d)


def test_spiked_scaling_sample_z_v():
    rng = make_rng(8)
    v = 1.5
    M = 120_000
    d = np.array([sample_z_v(3, v, rng) for _ in range(M)])
    assert d[:, 0, 0].var() == pytest.approx(2.0 * (1 + v) ** 2, rel=0.03)
    assert d[:, 0, 1].var() == pytest.approx(1.0 + v, rel=0.03)
    assert d[:, 1, 2].var() == pytest.approx(1.0, rel=0.03)
    assert d[:, 2, 2].var() == pytest.approx(2.0, rel=0.03)


class TestEllipticalSampler:
    def test_kappa_zero_is_plain_goe(self):
        G = make_rng(99).standard_normal((4, 4))
        Z1 = (G + G.T) / math.sqrt(2.0)
        Z2 = sample_z_elliptical(4, 0.0, make_rng(99))
        np.testing.assert_array_equal(Z1, Z2)

    def test_positive_kappa_moments(self):
        kappa, M = 0.4, 150_000
        rng = make_rng(10)
        d = np.array([sample_z_elliptical(3, kappa, rng) for _ in range(M)])
        assert d[:, 0, 0].var() == pytest.approx(2.0 + 3.0 * kappa, rel=0.03)
        assert d[:, 0, 1].var() == pytest.approx(1.0 + kappa, rel=0.03)
        cross = np.mean(d[:, 0, 0] * d[:, 1, 1])
        assert cross == pytest.approx(kappa, abs=5 * math.sqrt(8.0 / M))

    def test_negative_kappa_moments(self):
        # below the Gaussian: valid down to -2/(p+2), the floor included
        M = 150_000
        for p, kappa, seed in ((3, -0.25, 11), (3, min_kappa(3), 13), (10, -0.15, 14)):
            assert kappa >= min_kappa(p)
            rng = make_rng(seed)
            d = np.array([sample_z_elliptical(p, kappa, rng) for _ in range(M)])
            assert d[:, 0, 0].var() == pytest.approx(2.0 + 3.0 * kappa, rel=0.05)
            cross = np.mean(d[:, 0, 0] * d[:, 1, 1])
            assert cross == pytest.approx(kappa, abs=5 * math.sqrt(8.0 / M))

    @pytest.mark.parametrize(
        "kappa", [min_kappa(3) - 0.01, min_kappa(3) - 1e-8, -math.inf, math.inf, math.nan]
    )
    def test_kappa_below_floor_rejected(self, kappa):
        # κ must be a finite number at or above the floor; a non-finite κ
        # would give NaN/inf matrices
        with pytest.raises(ValueError, match=r"-2/\(p\+2\)"):
            sample_z_elliptical(3, kappa, make_rng(0))

    def test_min_kappa_values(self):
        assert min_kappa(2) == pytest.approx(-0.5)
        assert min_kappa(10) == pytest.approx(-2.0 / 12.0)


def test_make_rng_deterministic():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    np.testing.assert_array_equal(a, b)
