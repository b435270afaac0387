"""Spiked covariance model: rates, radial families, sampling."""

import math

import numpy as np
import pytest
from scipy import integrate

from spikedcov.distributions import make_rng
from spikedcov.model import RadialFamily, SpikedModel, SpikeRate, sample
from spikedcov.statistics import summarize

from model_oracles import covariance_at, kurtosis_of


def unit(p, i=0):
    e = np.zeros(p)
    e[i] = 1.0
    return e


class TestSpikeRate:
    def test_exponent_values(self):
        n = 729  # 3^6, exact sixth roots
        for ell in range(6):
            assert SpikeRate.exponent(ell).at(n) == pytest.approx(n ** (-ell / 6.0), rel=1e-15)

    def test_exponent_zero_is_constant_one(self):
        r = SpikeRate.exponent(0)
        assert r.at(10) == 1.0 and r.at(10**6) == 1.0

    def test_exponent_out_of_range(self):
        for bad in (-1, 6, 17):
            with pytest.raises(ValueError):
                SpikeRate.exponent(bad)

    def test_constant(self):
        assert SpikeRate.constant(0.25).at(999) == 0.25

    def test_nonpositive_rate_rejected(self):
        for bad in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                SpikeRate.constant(bad)
        with pytest.raises(ValueError, match="n must be positive"):
            SpikeRate.constant(0.5).at(0)


class TestRadialFamily:
    def test_labels(self):
        assert RadialFamily.gaussian().label == "gaussian"
        assert RadialFamily.student_t(6).label == "t6"

    def test_student_needs_four_moments(self):
        # nu <= 4 has no finite kurtosis; the pseudo-Gaussian theory breaks
        for nu in (4.0, 3.0, 2.5):
            with pytest.raises(ValueError):
                RadialFamily.student_t(nu)

    def test_kurtosis_of(self):
        assert kurtosis_of(RadialFamily.gaussian(), 5) == 0.0
        assert kurtosis_of(RadialFamily.student_t(6), 5) == pytest.approx(1.0)
        assert kurtosis_of(RadialFamily.student_t(9), 3) == pytest.approx(0.4)

    def test_kurtosis_matches_radial_moment_quadrature(self):
        # kappa_p(f) = p mu_{p-1} mu_{p+3} / ((p+2) mu_{p+1}^2) - 1 with
        # mu_l the l-th moment of the radial profile
        # f_nu(r) = (1 + r^2/(nu-2))^(-(p+nu)/2); independent quadrature.
        for p, nu in [(2, 6.0), (5, 6.0), (3, 9.0)]:

            def mu(ell):
                val, _ = integrate.quad(
                    lambda r: r**ell * (1.0 + r * r / (nu - 2.0)) ** (-(p + nu) / 2.0),
                    0.0,
                    np.inf,
                )
                return val

            kappa = p * mu(p - 1) * mu(p + 3) / ((p + 2) * mu(p + 1) ** 2) - 1.0
            assert kurtosis_of(RadialFamily.student_t(nu), p) == pytest.approx(
                kappa, rel=1e-8
            ), f"p={p}, nu={nu}"


class TestSpikedModel:
    def test_covariance_closed_form(self):
        theta = np.array([0.6, 0.8, 0.0])
        m = SpikedModel(p=3, sigma=2.0, v=1.5, rate=SpikeRate.constant(1.0), theta1=theta)
        expected = 4.0 * (np.eye(3) + 1.5 * np.outer(theta, theta))
        np.testing.assert_allclose(covariance_at(m, 100), expected, atol=1e-14)

    def test_covariance_scales_with_rate(self):
        theta = unit(4)
        m = SpikedModel(p=4, sigma=1.0, v=2.0, rate=SpikeRate.exponent(3), theta1=theta)
        n = 10_000
        S = covariance_at(m, n)
        assert S[0, 0] == pytest.approx(1.0 + 2.0 * n**-0.5)
        assert S[1, 1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SpikedModel(p=1, sigma=1.0, v=1.0, rate=SpikeRate.constant(), theta1=np.ones(1))
        with pytest.raises(ValueError):
            SpikedModel(p=3, sigma=0.0, v=1.0, rate=SpikeRate.constant(), theta1=unit(3))
        with pytest.raises(ValueError):
            SpikedModel(p=3, sigma=1.0, v=-1.0, rate=SpikeRate.constant(), theta1=unit(3))
        with pytest.raises(ValueError):  # not a unit vector
            SpikedModel(p=3, sigma=1.0, v=1.0, rate=SpikeRate.constant(), theta1=np.ones(3))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="unit"):
                SpikedModel(
                    p=3, sigma=1.0, v=1.0, rate=SpikeRate.constant(), theta1=[bad, 0.0, 0.0]
                )

    def test_arrays_are_read_only_copies(self):
        # sample reads the spike's columns and whether mu is zero once, at
        # construction, so neither array may change afterwards.
        theta, mu = unit(3), np.zeros(3)
        model = SpikedModel(
            p=3, sigma=1.0, v=1.0, rate=SpikeRate.constant(), theta1=theta, mu=mu
        )
        theta[:] = 0.0, 1.0, 0.0
        mu[:] = 5.0
        np.testing.assert_array_equal(model.theta1, unit(3))
        np.testing.assert_array_equal(model.mu, np.zeros(3))
        for array in (model.theta1, model.mu):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0
        X = sample(model, 50, RadialFamily.gaussian(), make_rng(3))
        G = make_rng(3).standard_normal((50, 3))
        np.testing.assert_array_equal(X[:, 1:], G[:, 1:])

    @pytest.mark.parametrize("field", ["sigma", "v"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -np.inf])
    def test_scale_and_spike_must_be_positive_and_finite(self, field, bad):
        values = {"sigma": 1.0, "v": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SpikedModel(p=3, rate=SpikeRate.constant(), theta1=unit(3), **values)


def reference_sample(model, n, family, rng):
    """``sample`` written with fresh arrays: G + (Gθ₁)(spike·θ₁)ᵀ, scaled,
    radially mixed, then shifted by mu."""
    spike = math.sqrt(1.0 + model.rate.at(n) * model.v) - 1.0
    G = rng.standard_normal((n, model.p))
    X = G + np.outer(G @ model.theta1, spike * model.theta1)
    X *= model.sigma
    if family.kind == "student-t":
        nu = family.nu
        w = rng.chisquare(nu, size=n)
        X *= (math.sqrt((nu - 2.0) / nu) / np.sqrt(w / nu))[:, None]
    return X + model.mu


def scaled_shifted_model(p):
    theta = np.arange(1.0, p + 1.0)
    return SpikedModel(
        p=p,
        sigma=1.7,
        v=2.5,
        rate=SpikeRate.exponent(2),
        theta1=theta / np.linalg.norm(theta),
        mu=np.linspace(-3.0, 2.0, p),
    )


def unit_sigma_zero_mu_model(p, theta1):
    """sigma = 1, mu = 0: the shape of every harness cell."""
    return SpikedModel(p=p, sigma=1.0, v=1.0, rate=SpikeRate.exponent(3), theta1=theta1)


class TestSampling:
    @pytest.mark.parametrize("family", [RadialFamily.gaussian(), RadialFamily.student_t(6)])
    def test_matches_reference_bit_for_bit(self, family):
        angle = 7 * math.pi / 40.0  # a power cell's θ₁(k), k = 7
        for p, n in ((3, 50), (10, 2000)):
            two = np.zeros(p)
            two[:2] = math.cos(angle), math.sin(angle)
            negative = np.zeros(p)
            negative[[0, p - 1]] = 0.6, -0.8
            models = (
                scaled_shifted_model(p),
                unit_sigma_zero_mu_model(p, unit(p)),
                unit_sigma_zero_mu_model(p, two),
                unit_sigma_zero_mu_model(p, negative),
                unit_sigma_zero_mu_model(p, -unit(p, 1)),
                # One non-zero entry that is not ±1 (unit within 1e-10).
                unit_sigma_zero_mu_model(p, unit(p, p - 1) * (1.0 - 4e-11)),
            )
            for m in models:
                for seed in range(3):
                    X = sample(m, n, family, make_rng(seed))
                    ref = reference_sample(m, n, family, make_rng(seed))
                    assert X.tobytes() == ref.tobytes()

    def test_gaussian_moments(self):
        theta = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        m = SpikedModel(p=3, sigma=1.0, v=2.0, rate=SpikeRate.constant(1.0), theta1=theta)
        n = 400_000
        X = sample(m, n, RadialFamily.gaussian(), make_rng(21))
        S = (X - X.mean(axis=0)).T @ (X - X.mean(axis=0)) / n
        np.testing.assert_allclose(S, covariance_at(m, n), atol=0.03)
        np.testing.assert_allclose(X.mean(axis=0), np.zeros(3), atol=0.01)

    def test_mean_shift(self):
        m = SpikedModel(
            p=2,
            sigma=1.0,
            v=1.0,
            rate=SpikeRate.constant(1.0),
            theta1=unit(2),
            mu=np.array([5.0, -3.0]),
        )
        X = sample(m, 50_000, RadialFamily.gaussian(), make_rng(22))
        np.testing.assert_allclose(X.mean(axis=0), [5.0, -3.0], atol=0.05)

    def test_student_t_covariance_matches_gaussian_target(self):
        # the radial mixing is normalized so Cov(X) equals the model
        # covariance for every admissible family, not just the Gaussian
        theta = unit(3)
        m = SpikedModel(p=3, sigma=1.0, v=1.0, rate=SpikeRate.constant(1.0), theta1=theta)
        X = sample(m, 400_000, RadialFamily.student_t(6), make_rng(23))
        S = (X - X.mean(axis=0)).T @ (X - X.mean(axis=0)) / X.shape[0]
        np.testing.assert_allclose(S, covariance_at(m, 400_000), atol=0.05)

    def test_student_t_tails_are_heavier(self):
        m = SpikedModel(p=2, sigma=1.0, v=0.5, rate=SpikeRate.constant(1.0), theta1=unit(2))
        rng = make_rng(24)
        Xg = sample(m, 200_000, RadialFamily.gaussian(), rng)
        Xt = sample(m, 200_000, RadialFamily.student_t(5), rng)
        # fourth moment of the second (unspiked) coordinate: 3 vs 3(1 + 2/(nu-4))
        kg = np.mean(Xg[:, 1] ** 4)
        kt = np.mean(Xt[:, 1] ** 4)
        assert kg == pytest.approx(3.0, rel=0.05)
        assert kt > 4.0

    def test_deterministic_given_seed(self):
        m = SpikedModel(p=4, sigma=1.0, v=1.0, rate=SpikeRate.exponent(2), theta1=unit(4))
        X1 = sample(m, 100, RadialFamily.student_t(7), make_rng(77))
        X2 = sample(m, 100, RadialFamily.student_t(7), make_rng(77))
        np.testing.assert_array_equal(X1, X2)

    def test_sample_shape(self):
        m = SpikedModel(p=5, sigma=1.0, v=1.0, rate=SpikeRate.constant(1.0), theta1=unit(5))
        assert sample(m, 17, RadialFamily.gaussian(), make_rng(1)).shape == (17, 5)

    @pytest.mark.parametrize("n", [1, 5])
    def test_n_at_most_p_is_refused_by_summarize(self, n):
        # n >= p + 1 is summarize's rule; the sampler draws any n >= 1.
        m = SpikedModel(p=5, sigma=1.0, v=1.0, rate=SpikeRate.constant(1.0), theta1=unit(5))
        X = sample(m, n, RadialFamily.gaussian(), make_rng(1))
        assert X.shape == (n, 5)
        with pytest.raises(ValueError, match=r"need n >= p\+1"):
            summarize(X)
