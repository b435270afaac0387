"""Limiting-distribution samplers, noncentrality formulas, power curves.

Distributional oracles used here:

* the 2x2 limit matrix has eigenvalue gap G with P(G <= g) = 1 - exp(-g^2/8)
  (G^2 = (Z11-Z22)^2 + 4 Z12^2 is 4*chi2_2 under the sampler normalization);
* the unnormalized p = 2 joint eigenvalue density integrates to 4*sqrt(2*pi),
  matching the closed form (1/(4 sqrt(2 pi))) (l1-l2) exp(-(l1^2+l2^2)/4);
* scipy.stats.ncx2 for the power curve.
"""

import copy
import functools
import hashlib
import math
import re
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
from spikedcov.harness import ExperimentConfig
from spikedcov.model import RadialFamily, SpikedModel, SpikeRate, sample
from spikedcov.statistics import decide, q_delta, summarize

from model_oracles import dense_limit_law

SQRT2 = math.sqrt(2.0)


def unit(p, i=0):
    e = np.zeros(p)
    e[i] = 1.0
    return e


def _summary3():
    return summarize(make_rng(116).standard_normal((50, 3)))


def _qa_from_eigh(T: np.ndarray) -> float:
    """Σ_{j≥2} (ℓ₁ − ℓ_j)² w_{j1}² from the full eigendecomposition of the
    symmetric matrix whose lower triangle T holds."""
    lam, V = np.linalg.eigh(T)
    return float(np.sum((lam[-1] - lam[:-1]) ** 2 * V[0, :-1] ** 2))


def _limit_law_blocks(p, v, kappa, m, rng):
    """The (p, m) diagonal, v/√(1+κ) added to row 0, and (p − 1, m)
    squared subdiagonal of the tridiagonal matrices that
    asymptotics._qa_limit_block(p, v, kappa, m, rng) draws, block by block."""
    blocks = []
    for done in range(0, m, asymptotics._BLOCK):
        d, e2 = asymptotics._tridiagonal_block(p, min(asymptotics._BLOCK, m - done), rng)
        d[0] += v / math.sqrt(1.0 + kappa)
        blocks.append((d, e2))
    return tuple(np.concatenate(arrays, axis=1) for arrays in zip(*blocks))


@functools.lru_cache(maxsize=None)
def _dense_law(p: int, v: float, kappa: float, m: int, seed: int) -> np.ndarray:
    """dense_limit_law's m draws from make_rng(seed), drawn once for the
    tests that read them."""
    values = dense_limit_law(p, v, kappa, m, make_rng(seed))
    values.flags.writeable = False
    return values


def _dense_tridiagonal(d: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """The (m, p, p) stack of the lower triangles of the symmetric
    tridiagonal matrices with (p, m) diagonal d and (p − 1, m) squared
    subdiagonal e2, laid out as asymptotics._tridiagonal_block draws
    them; eigvalsh reads only that triangle."""
    p, m = d.shape
    T = np.zeros((m, p, p))
    i = np.arange(p)
    T[:, i, i] = d.T
    T[:, i[1:], i[:-1]] = np.sqrt(e2.T)
    return T


def _tridiagonal_hits(d, e2, c: float) -> np.ndarray:
    """asymptotics._tridiagonal_hits on a copy of d, which it overwrites;
    a division by zero, an overflow or a nan in the kernel raises."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        return asymptotics._tridiagonal_hits(np.array(d, dtype=float), np.asarray(e2, float), c)


class TestLimitLawIdentity:
    """The sampler's value on the tridiagonal model T, (ℓ₁ − T₁₁)² + r², is
    Σ_{j≥2} (ℓ₁ − ℓ_j)² w_{j1}² = ‖(T − ℓ₁I)e₁‖²; the eigh form on the
    dense T of the same block is the oracle."""

    CASES = [
        (p, v, kappa) for p in (2, 3, 10) for v in (0.0, 2.0, 8.0) for kappa in (0.0, 0.5, -0.1)
    ]

    def test_single_draw_matches_eigh_form(self):
        for p, v, kappa in self.CASES:
            for seed in range(5):
                got = qa_limit_sample(p, v, kappa, rng=make_rng(seed))
                d, e2 = _limit_law_blocks(p, v, kappa, 1, make_rng(seed))
                (T,) = _dense_tridiagonal(d, e2)
                assert got == pytest.approx(_qa_from_eigh(T), rel=1e-12)

    def test_block_matches_eigh_form(self):
        # 200 draws fit in one block; 2·_BLOCK + 7 span three, the last one
        # partial.
        for p, v, kappa, m in [*((*case, 200) for case in self.CASES), (3, 2.0, 0.5, 4103)]:
            got = asymptotics._qa_limit_block(p, v, kappa, m, make_rng(7))
            d, e2 = _limit_law_blocks(p, v, kappa, m, make_rng(7))
            ref = [_qa_from_eigh(T) for T in _dense_tridiagonal(d, e2)]
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("p", [2, 3, 10])
    def test_large_v_gives_r_squared(self, p):
        # At v ≥ 1e16, ℓ₁ − T₁₁ is of order r²/v and the value is r² to
        # rounding.  eigvalsh's ℓ₁ misses T₁₁ by up to ε‖T‖, an ulp of v,
        # whose square used to overflow to inf from v = 1e298 on.
        for v in (1e16, 1e298, 1e300, np.finfo(float).max):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                got = asymptotics._qa_limit_block(p, v, 0.0, 200, make_rng(60 + p))
                one = qa_limit_sample(p, v, rng=make_rng(60 + p))
            _, e2 = _limit_law_blocks(p, v, 0.0, 200, make_rng(60 + p))
            assert np.all(np.isfinite(got)), v
            np.testing.assert_allclose(got, e2[0], rtol=1e-15, atol=0.0, err_msg=str(v))
            _, e2 = _limit_law_blocks(p, v, 0.0, 1, make_rng(60 + p))
            assert one == pytest.approx(e2[0, 0], rel=1e-15), v

    @pytest.mark.parametrize("p", [2, 3, 10])
    def test_an_overshooting_top_eigenvalue_is_clipped(self, p, monkeypatch):
        # eigvalsh's ℓ₁ is accurate to about ε‖T‖ in either direction;
        # numpy's OpenBLAS LAPACK errs downwards at large v, where the clip
        # at 0 decides.  An ℓ₁ that errs upwards by 4ε‖T‖, to inf at the
        # top of the float range, is clipped to the bound on ℓ₁ − T₁₁, so
        # the value stays r².
        eigvalsh = np.linalg.eigvalsh

        def overshooting(a):
            w = eigvalsh(a)
            with np.errstate(over="ignore"):
                w[:, -1] += 4.0 * np.finfo(float).eps * np.abs(a).max(axis=(1, 2))
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", overshooting)
        for v in (1e16, 1e298, 1e300, np.finfo(float).max):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                got = asymptotics._qa_limit_block(p, v, 0.0, 200, make_rng(70 + p))
            _, e2 = _limit_law_blocks(p, v, 0.0, 200, make_rng(70 + p))
            np.testing.assert_allclose(got, e2[0], rtol=1e-15, atol=0.0, err_msg=str(v))


class TestTridiagonalHits:
    """type1_risk_iii decides each draw by a Sturm (LDLᵀ) recurrence on
    the limit matrix's tridiagonal model (asymptotics._tridiagonal_hits);
    the value (ℓ₁ − T₁₁)² + r², with ℓ₁ from eigvalsh on the dense T, is
    the oracle."""

    @pytest.mark.parametrize("p", [*range(2, 11), 24, 25, 30, 50])
    def test_hits_match_the_value_path(self, p):
        M = 256
        for v in (0.0, 2.0, 8.0, 1e16, 1e300):
            for seed in range(3):
                d, e2 = asymptotics._tridiagonal_block(p, M, make_rng(seed))
                d[0] += v
                if v < 1e300:
                    l1 = np.linalg.eigvalsh(_dense_tridiagonal(d, e2))[:, -1]
                    values = (l1 - d[0]) ** 2 + e2[0]
                else:
                    # eigvalsh's ℓ₁ is accurate to ε‖T‖ only, and at
                    # v = 1e300 the square of that error overflows.  There
                    # ℓ₁ − T₁₁ is of order r²/v, so the value is r².
                    values = e2[0]
                for alpha in (0.05, 0.01):
                    crit = chi2_quantile(1.0 - alpha, p - 1)
                    hits = _tridiagonal_hits(d, e2, crit)
                    # M fits in one block, so the estimator draws these.
                    est = type1_risk_iii(p, v, alpha, M, make_rng(seed))
                    assert est.risk == np.count_nonzero(hits) / M
                    # Only a draw within rounding of crit may be decided
                    # differently; none is expected.
                    differ = hits != (values > crit)
                    assert np.all(np.abs(values[differ] - crit) <= 1e-10 * crit), (
                        v, seed, alpha, values[differ],
                    )

    def test_known_answers(self):
        # ‖(T − ℓ₁I)e₁‖² against c = 4 at p = 3, one draw per case.
        c = 4.0
        cases = [
            # r² > c decides alone, and r² = c is a tie, which is a hit.
            # With d₁ = −1e300, ℓ₁ − d₀ ≈ r²/1e300 and the value is r².
            ((0.0, -1e300, 0.0), (9.0, 0.0), True),
            ((0.0, -1e300, 0.0), (4.0, 0.0), True),
            ((0.0, -1e300, 0.0), (math.nextafter(4.0, 0.0), 0.0), False),
            # With d = 0, ℓ₁ = r and the value is 2r².
            ((0.0, 0.0, 0.0), (math.nextafter(4.0, 0.0), 0.0), True),
            ((0.0, 0.0, 0.0), (1.9, 0.0), False),
            # Diagonal: the value is (max d − d₀)², a tie in the first.
            ((1.0, 3.0, 0.0), (0.0, 0.0), True),
            ((1.0, 0.0, 2.9), (0.0, 0.0), False),
            ((5.0, 1.0, 3.0), (0.0, 0.0), False),
            ((0.0, 1.0, 3.0), (0.0, 0.0), True),
            # Entries of ±1e300: the first pivot is −s, not d₀ − t, and a
            # decided draw's pivots after it stay in range.
            ((-1e300, 0.0, 1e300), (0.0, 0.0), True),
            ((1e300, 0.0, -1e300), (0.0, 0.0), False),
            ((1e300, 0.0, -1e300), (1.0, 1.0), False),
            ((1e300, 0.0, -1e300), (4.0, 1.0), True),
            ((-1e300, 0.0, 0.0), (1.0, 1.0), True),
            ((-1e300, 0.0, -1e300), (4.0, 1.0), True),
            # The second subdiagonal acts only through ℓ₁: with d = 0 and
            # e2 = (1, b²), ℓ₁ = √(1 + b²), so the value is 2 + b².
            ((0.0, 0.0, 0.0), (1.0, 2.5), True),
            ((0.0, 0.0, 0.0), (1.0, 1.5), False),
        ]
        d = np.array([case[0] for case in cases]).T
        e2 = np.array([case[1] for case in cases]).T
        expected = [case[2] for case in cases]
        assert _tridiagonal_hits(d, e2, c).tolist() == expected
        for i, hit in enumerate(expected):
            assert _tridiagonal_hits(d[:, i : i + 1], e2[:, i : i + 1], c).tolist() == [hit], i

    def test_two_by_two_closed_form(self):
        # At p = 2, ℓ₁ − d₀ = (δ + √(δ² + 4r²))/2 with δ = d₁ − d₀.
        rng = np.random.default_rng(3)
        d = 3.0 * rng.standard_normal((2, 4000))
        e2 = rng.chisquare(1.0, (1, 4000))
        delta = d[1] - d[0]
        values = ((delta + np.sqrt(delta**2 + 4.0 * e2[0])) / 2.0) ** 2 + e2[0]
        for c in (1.0, 3.84, 6.63):
            hits = _tridiagonal_hits(d, e2, c)
            assert 0 < np.count_nonzero(hits) < hits.size
            clear = np.abs(values - c) > 1e-12 * c
            np.testing.assert_array_equal(hits[clear], (values > c)[clear])

    def test_powers_of_two_scale_exactly(self):
        # d → 2ᵏd, e2 → 4ᵏe2 and c → 4ᵏc scale every pivot by 2ᵏ, which
        # is exact while nothing overflows or falls subnormal.
        p = 10
        d, e2 = asymptotics._tridiagonal_block(p, 3000, make_rng(9))
        d[0] += 2.0
        c = chi2_quantile(0.95, p - 1)
        hits = _tridiagonal_hits(d, e2, c)
        assert 0 < np.count_nonzero(hits) < hits.size
        for k in (-400, -1, 1, 400):
            scaled = _tridiagonal_hits(
                math.ldexp(1.0, k) * d, math.ldexp(1.0, 2 * k) * e2, math.ldexp(c, 2 * k)
            )
            np.testing.assert_array_equal(scaled, hits, err_msg=str(k))

    @pytest.mark.parametrize("p", [2, 3, 10, 24])
    def test_independent_of_slicing(self, p):
        m = 3000
        d, e2 = asymptotics._tridiagonal_block(p, m, make_rng(40 + p))
        d[0] += 2.0
        for alpha in (0.5, 0.05, 0.01):
            c = chi2_quantile(1.0 - alpha, p - 1)
            full = _tridiagonal_hits(d, e2, c)
            assert 0 < np.count_nonzero(full) < m, alpha
            for k in (1, 2, 2047, 2049):
                np.testing.assert_array_equal(_tridiagonal_hits(d[:, :k], e2[:, :k], c), full[:k])
            for i in (0, 2047, 2048, m - 1):
                one = _tridiagonal_hits(d[:, i : i + 1], e2[:, i : i + 1], c)
                np.testing.assert_array_equal(one, full[i : i + 1])
            np.testing.assert_array_equal(_tridiagonal_hits(d[:, ::2], e2[:, ::2], c), full[::2])


class TestRiskLaw:
    """The tridiagonal model that type1_risk_iii and qa_limit_sample draw
    has the law of the dense limit matrix Z_f + v e₁e₁ᵀ (dense_limit_law,
    from sample_z_elliptical), at every κ."""

    @pytest.mark.parametrize("p", [2, 3, 10, 30])
    def test_risk_matches_the_dense_law(self, p):
        M_dense, M = (20_000, 40_000) if p < 30 else (3_000, 20_000)
        for v in (0.0, 2.0, 8.0):
            for kappa in sorted({0.0, 0.5, min_kappa(p)}):
                seed = 1000 * p + 10 * int(v)
                values = _dense_law(p, v, kappa, M_dense, seed)
                for alpha in (0.05, 0.01):
                    crit = chi2_quantile(1.0 - alpha, p - 1)
                    share = np.count_nonzero(values > crit) / M_dense
                    est = type1_risk_iii(p, v, alpha, M, make_rng(seed + 1), kappa=kappa)
                    var = share * (1.0 - share) / M_dense + est.se**2
                    if var == 0.0:
                        assert est.risk == share, (v, kappa, alpha)
                        continue
                    z = (est.risk - share) / math.sqrt(var)
                    assert abs(z) <= 5.0, (v, kappa, alpha, est.risk, share, z)

    # Two-sample Kolmogorov–Smirnov tests at 27 (p, v, κ); each p-value
    # must exceed 1% / 27, a family level of 1% (Bonferroni).
    KS_LEVEL = 0.01 / 27

    @pytest.mark.parametrize("p", [2, 3, 10])
    def test_sampler_matches_the_dense_law(self, p):
        M = 20_000
        for v in (0.0, 2.0, 8.0):
            for kappa in sorted({0.0, 0.5, min_kappa(p)}):
                seed = 1000 * p + 10 * int(v)
                values = asymptotics._qa_limit_block(p, v, kappa, M, make_rng(seed + 2))
                ks = stats.ks_2samp(values, _dense_law(p, v, kappa, M, seed))
                assert ks.pvalue > self.KS_LEVEL, (v, kappa, ks.statistic, ks.pvalue)

    @pytest.mark.parametrize("p", [2, 3, 10, 30])
    def test_kappa_is_a_rescaled_spike(self, p):
        # Z_f = √(1+κ)·GOE + (a multiple of I), and the law divides by
        # 1+κ, so κ acts only as the spike v/√(1+κ), on the same draws.
        for v in (0.0, 2.0, 8.0):
            for kappa in (0.5, min_kappa(p), 3.0):
                for alpha in (0.05, 0.01):
                    est = type1_risk_iii(p, v, alpha, 3000, make_rng(p), kappa=kappa)
                    base = type1_risk_iii(p, v / math.sqrt(1.0 + kappa), alpha, 3000, make_rng(p))
                    assert est == base, (v, kappa, alpha)


class TestLimitLawPins:
    """Exact outputs of the limit-law samplers and risk estimator.  The
    identity tests above replay the sampler's own draws, so only a pinned
    value sees a change in its bits (for example Σᵢ Zᵢᵢ of the κ shift
    summed in another order, or a change in the order in which a block
    takes its random numbers)."""

    # (p, κ, v) -> hits of type1_risk_iii(p, v, α, 300, make_rng(500 + p),
    # kappa=κ) at α = 0.05 and 0.01; κ "min" is min_kappa(p).  Recorded
    # again when the estimator moved to the tridiagonal model, whose
    # random stream differs from the dense Z_f's.
    HITS = {
        (2, '0', 0.0): (97, 61),
        (2, '0', 2.0): (40, 15),
        (2, '0', 8.0): (15, 3),
        (2, '0.5', 0.0): (97, 61),
        (2, '0.5', 2.0): (45, 19),
        (2, '0.5', 8.0): (15, 3),
        (2, 'min', 0.0): (97, 61),
        (2, 'min', 2.0): (29, 10),
        (2, 'min', 8.0): (14, 3),
        (3, '0', 0.0): (145, 97),
        (3, '0', 2.0): (65, 28),
        (3, '0', 8.0): (19, 8),
        (3, '0.5', 0.0): (145, 97),
        (3, '0.5', 2.0): (72, 42),
        (3, '0.5', 8.0): (19, 8),
        (3, 'min', 0.0): (145, 97),
        (3, 'min', 2.0): (55, 20),
        (3, 'min', 8.0): (18, 6),
        (10, '0', 0.0): (277, 258),
        (10, '0', 2.0): (207, 154),
        (10, '0', 8.0): (40, 14),
        (10, '0.5', 0.0): (277, 258),
        (10, '0.5', 2.0): (222, 179),
        (10, '0.5', 8.0): (50, 22),
        (10, 'min', 0.0): (277, 258),
        (10, 'min', 2.0): (196, 145),
        (10, 'min', 8.0): (40, 12),
        (24, '0', 0.0): (300, 300),
        (24, '0', 2.0): (292, 285),
        (24, '0', 8.0): (89, 46),
        (24, '0.5', 0.0): (300, 300),
        (24, '0.5', 2.0): (296, 288),
        (24, '0.5', 8.0): (149, 82),
        (24, 'min', 0.0): (300, 300),
        (24, 'min', 2.0): (290, 284),
        (24, 'min', 8.0): (84, 41),
        (30, '0', 0.0): (300, 300),
        (30, '0', 2.0): (299, 298),
        (30, '0', 8.0): (153, 94),
        (30, '0.5', 0.0): (300, 300),
        (30, '0.5', 2.0): (300, 298),
        (30, '0.5', 8.0): (201, 152),
        (30, 'min', 0.0): (300, 300),
        (30, 'min', 2.0): (299, 298),
        (30, 'min', 8.0): (146, 84),
    }

    # (p, κ) -> sha256 prefixes of three successive sample_z_elliptical
    # draws from make_rng(700 + p), of 16 successive
    # qa_limit_sample(p, 2.0, κ) draws from make_rng(800 + p), and of
    # _qa_limit_block(p, 2.0, κ, 16, make_rng(800 + p)).  A block draws all
    # its normals and then all its chi-squares, so it differs from
    # successive draws.  The last two were recorded again when the sampler
    # moved to the tridiagonal model.
    DRAWS = {
        (2, 0.0): ('24a7b0142ae40357', '0bf05edede53cb46', 'f9e5f646fb0c2f46'),
        (2, 0.5): ('6a602da0dd8867ec', '3d29b6017abc15da', 'e3c0749913acc091'),
        (3, 0.0): ('c3b876b240408bcb', '6327c50527a055cf', '00ae1d2188494c76'),
        (3, 0.5): ('c25aab29a614189b', '5958251f1aff7a71', '6472d1c93b22fc15'),
        (8, 0.0): ('a91a9a23adfb342f', '6f6aee25ce2d9799', 'c7348baa3fb27fd3'),
        (8, 0.5): ('be15e37bb1bb0307', 'ad1362a12e037ce0', 'b33d97e01a8b40c4'),
        (10, 0.0): ('5dfb39a95fe95d53', 'ecf8ea609a0b2afd', 'a54b2cd587afe94f'),
        (10, 0.5): ('5c9d9154723fee6c', '55f913781da6ec00', 'a86ad6f2dc020be1'),
        (24, 0.0): ('51ff0cd2fc3cce53', '6c73dc23d975c4fd', 'ea2eb98c0b64c423'),
        (24, 0.5): ('beb1debcec5c307e', '88f8fd783fc22189', 'c4521ba7b581d8c0'),
        (30, 0.0): ('db78798c0d9e7996', '6764f48280284e66', '2dd31c1bbd87cfca'),
        (30, 0.5): ('415e04bb2b768733', 'aab92e0133aa119b', 'c32acdeb46294ecd'),
    }

    @staticmethod
    def _digest(a) -> str:
        return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()[:16]

    @pytest.mark.parametrize("p", [2, 3, 10, 24, 30])
    def test_risk_hits(self, p):
        for (q, name, v), expected in self.HITS.items():
            if q != p:
                continue
            kappa = {"0": 0.0, "0.5": 0.5, "min": min_kappa(p)}[name]
            got = []
            for alpha in (0.05, 0.01):
                est = type1_risk_iii(p, v, alpha, 300, make_rng(500 + p), kappa=kappa)
                got.append(round(est.risk * est.M))
            assert tuple(got) == expected, (p, name, v)

    @pytest.mark.parametrize("p", [2, 3, 8, 10, 24, 30])
    def test_draws(self, p):
        for kappa in (0.0, 0.5):
            rng = make_rng(700 + p)
            z = np.array([sample_z_elliptical(p, kappa, rng) for _ in range(3)])
            rng = make_rng(800 + p)
            q = np.array([qa_limit_sample(p, 2.0, kappa, rng=rng) for _ in range(16)])
            block = asymptotics._qa_limit_block(p, 2.0, kappa, 16, make_rng(800 + p))
            got = (self._digest(z), self._digest(q), self._digest(block))
            assert got == self.DRAWS[(p, kappa)], (p, kappa)


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
        draws = asymptotics._qa_limit_block(2, 0.0, 0.0, 20_000, make_rng(100))
        D, pval = stats.kstest(draws, lambda x: stats.chi2.cdf(x / 4.0, 1))
        assert pval > 0.01, (D, pval)

    def test_p3_mean(self):
        draws = asymptotics._qa_limit_block(3, 0.0, 0.0, 60_000, make_rng(101))
        assert draws.mean() == pytest.approx(49.0 / 6.0, abs=0.25)

    def test_block_memory_at_p30(self):
        # A block of _BLOCK dense 30 × 30 tridiagonal matrices takes 14.7 MB,
        # and the sampler peaks at about 31 MB however many draws it makes;
        # 20 000 dense Z_f drawn at once took 275 MB.
        tracemalloc.start()
        try:
            asymptotics._qa_limit_block(30, 0.0, 0.0, 20_000, make_rng(116))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, peak

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
        # M spans three blocks, the last one partial; the hits equal the
        # values above crit of the same blocks' dense tridiagonal matrices.
        B, v, kappa = asymptotics._BLOCK, 1.0, 0.5
        M, crit = 2 * B + 700, chi2_quantile(0.95, p - 1)
        est = type1_risk_iii(p, v, 0.05, M, make_rng(113), kappa=kappa)
        rng, above = make_rng(113), 0
        for done in range(0, M, B):
            d, e2 = asymptotics._tridiagonal_block(p, min(B, M - done), rng)
            d[0] += v / math.sqrt(1.0 + kappa)
            l1 = np.linalg.eigvalsh(_dense_tridiagonal(d, e2))[:, -1]
            above += np.count_nonzero((l1 - d[0]) ** 2 + e2[0] > crit)
        assert est.risk == above / M

    def test_memory_is_bounded_at_large_p(self):
        # With M matrices in one stack, G and Z alone would take 2 × 14.7 MB.
        tracemalloc.start()
        try:
            type1_risk_iii(30, 0.0, 0.05, 2048, make_rng(114))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_memory_at_p10(self):
        # One block's diagonal and squared subdiagonal at p = 10 take
        # 0.33 MB, and the estimator peaks at about 0.6 MB.
        tracemalloc.start()
        try:
            type1_risk_iii(10, 2.0, 0.05, 10_000, make_rng(115))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20, peak

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.1, 0.0, 1.0, 1.5])
    def test_invalid_alpha_names_alpha(self, alpha):
        # decide used to leave out the value, and ExperimentConfig said
        # "alpha levels must lie strictly in (0, 1)".
        for call in (
            lambda: type1_risk_iii(3, 0.0, alpha, 100, make_rng(0)),
            lambda: asymptotic_power(2, 1.0, alpha),
            lambda: decide(1.0, 2, alpha),
            lambda: ExperimentConfig(experiment="null", alphas=(0.05, alpha)),
        ):
            message = f"alpha must lie strictly between 0 and 1, got {alpha}"
            with pytest.raises(ValueError, match=re.escape(message)):
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
        for call in (
            lambda: type1_risk_iii(3, 0.0, 0.05, 100, make_rng(0), kappa=kappa),
            lambda: qa_limit_sample(3, 0.0, kappa, rng=make_rng(0)),
        ):
            with pytest.raises(ValueError, match=r"-2/\(p\+2\)"):
                call()

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
            # v = nan used to give nan and v = inf 0.0
            lambda v: q_delta(_summary3(), unit(3), v, 1),
            # v was not checked: v = −1 with δ = 1 divided by zero
            lambda v: local_experiment(_summary3(), unit(3), v, 1, np.eye(3)),
        ],
        ids=[
            "type1_risk_iii",
            "qa_limit_sample",
            "eigen_limit_sample",
            "ncp_hpv_iii",
            "ncp_oracle_iii",
            "ncp_regime12",
            "q_delta",
            "local_experiment",
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

    # Regime iv has no spike, whatever v is given; v used to be added.
    @pytest.mark.parametrize("v", [0.0, 1.0, 50.0])
    def test_regime_iv_frame_properties(self, v):
        rng = make_rng(111)
        for _ in range(50):
            # a copy of the generator redraws the same Z_f, unshifted
            Z = sample_z_elliptical(4, 0.0, copy.deepcopy(rng))
            values, E = eigen_limit_sample(4, v, "iv", rng=rng)
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
        # a nan difference passes the sort check, so these returned nan
        for ell in ([np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                joint_eigenvalue_density(np.array(ell))


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

    # A (p,) or scalar sigma_n used to be broadcast against S.
    @pytest.mark.parametrize("sigma_n", [np.ones(3), 1.0], ids=["vector", "scalar"])
    def test_sigma_n_must_be_p_by_p(self, sigma_n):
        with pytest.raises(ValueError, match="sigma_n must match"):
            local_experiment(_summary3(), unit(3), 2.0, 0, sigma_n)

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
