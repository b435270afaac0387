"""Scalar distribution functions, the seeded generator and the elliptical
kurtosis floor.

The χ² functions take integer degrees of freedom.  With a = df/2 the
regularized incomplete gamma function then has finite closed forms
(Abramowitz & Stegun 26.4.4–26.4.5), evaluated here with the ``math``
module alone:

* the lower tail P(x; df) = Σ_{n≥0} t(a + n, x/2), fast below the mean;
* the upper tail Q(x; df) = Σ_{0≤j<a} t(j, x/2) over j ≡ a (mod 1),
  plus erfc(√(x/2)) when df is odd;

where t(a, y) = e^{-y} y^a / Γ(a+1).  Each tail is summed where it is the
smaller one, so it keeps its relative accuracy deep in the tail, and the
other is one minus it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Rng",
    "make_rng",
    "chi2_cdf",
    "chi2_quantile",
    "noncentral_chi2_cdf",
    "min_kappa",
]

# All randomness flows through numpy Generators (PCG64).  Substreams for
# parallel work are derived via SeedSequence, never by sharing a Generator.
Rng = np.random.Generator


# Largest noncentrality noncentral_chi2_cdf accepts.  Its series runs
# over about 50√(ncp/2) terms, 10⁵ at this bound; against
# scipy.stats.ncx2 the cdf is within about 1e-12 up to it.
_MAX_NCP = 1e7

# A series stops once the most its remaining terms can add is below this
# share of its sum.
_SERIES_TOL = 2.0**-60

# Below this, a term is recomputed from its closed form rather than from
# the previous term, whose product could have underflowed.
_TINY = 1e-280

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def make_rng(seed) -> Rng:
    """Deterministic generator from a seed (int or SeedSequence)."""
    return np.random.default_rng(seed)


def _check_df(df) -> None:
    if not (df >= 1 and float(df).is_integer()):
        raise ValueError(f"df must be a positive integer, got {df!r}")


def _stirlerr(a: float) -> float:
    """log Γ(a+1) − (a + ½) log a + a − ½ log 2π for a > 0, the error of
    Stirling's formula; its asymptotic series from a = 16 on."""
    if a < 16.0:
        return math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - _LOG_SQRT_2PI
    b = 1.0 / (a * a)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - b / 1188) * b) * b) * b) / a


def _bd0(a: float, y: float) -> float:
    """a log(a/y) + y − a for a, y > 0, without cancellation when a ≈ y."""
    if abs(a - y) < 0.1 * (a + y):
        v = (a - y) / (a + y)
        s = (a - y) * v
        e = 2.0 * a * v
        v2 = v * v
        j = 1
        while True:
            e *= v2
            s_next = s + e / (2 * j + 1)
            if s_next == s:
                return s
            s = s_next
            j += 1
    return a * math.log(a / y) + y - a


def _term(a: float, y: float) -> float:
    """t(a, y) = e^{-y} y^a / Γ(a+1) for a, y ≥ 0.

    At small a and y the three factors are formed directly; otherwise
    Loader's saddle-point form e^{−stirlerr(a) − bd0(a, y)} / √(2πa) keeps
    the relative accuracy that log Γ's large magnitude would lose.
    """
    if y == 0.0:
        return 1.0 if a == 0.0 else 0.0
    if a < 16.0 and y < 700.0:
        return math.exp(-y) * y**a / math.gamma(a + 1.0)
    if a == 0.0:
        return math.exp(-y)
    return math.exp(-_stirlerr(a) - _bd0(a, y)) / math.sqrt(2.0 * math.pi * a)


def _chi2_tails(x: float, df: int) -> tuple[float, float, float]:
    """(P, Q, f): the lower tail, upper tail and density of χ²(df) at a
    finite x > 0."""
    a, y = 0.5 * df, 0.5 * x
    f = 0.5 * _term(a - 1.0, y) if a >= 1.0 else math.exp(-y) / math.sqrt(2.0 * math.pi * x)
    if y < a:
        # P = t(a, y) Σ_{n≥0} y^n / ((a+1)⋯(a+n)); the ratio y/(a+n) < 1.
        s = term = 1.0
        b = a
        while True:
            b += 1.0
            term *= y / b
            s += term
            if term * y < s * _SERIES_TOL * (b + 1.0 - y):
                break
        p = _term(a, y) * s
        return p, 1.0 - p, f
    # Q = Σ t(j, y) for j = a−1, a−2, … ≥ 0, largest first: every ratio
    # t(j−1, y)/t(j, y) = j/y is below 1.
    q = 0.0
    j = a - 1.0
    if j >= 0.0:
        t = 2.0 * f
        while True:
            q += t
            if j < 1.0 or t * j <= q * _SERIES_TOL * (y - j):
                break
            t *= j / y
            j -= 1.0
    if df % 2:
        q += math.erfc(math.sqrt(y))
    return 1.0 - q, q, f


def _chi2_cdf_sf(x: float, df: int) -> tuple[float, float]:
    """(P, Q): the lower and upper tails of χ²(df) at x ≥ 0, inf included.
    Q keeps its relative accuracy deep in the tail, where 1 − P reads 0."""
    _check_df(df)
    if not x >= 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    return _chi2_tails(x, df)[:2]


def chi2_cdf(x: float, df: int) -> float:
    """Chi-square CDF P(x; df) at integer df, from its closed forms."""
    return _chi2_cdf_sf(x, df)[0]


def _normal_quantile_approx(p: float) -> float:
    """Upper-tail standard normal quantile for 0 < p ≤ ½, to 4.5e-4
    (Abramowitz & Stegun 26.2.23); a starting point, not a result."""
    t = math.sqrt(-2.0 * math.log(p))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )


def chi2_quantile(q: float, df: int) -> float:
    """Chi-square quantile; inverse of :func:`chi2_cdf` in its first argument.

    Newton's method on the log of the tail that holds q (the lower tail
    below ½, the upper one, with 1 − q exact, above), kept inside a
    bracket that every evaluation narrows, from a Wilson–Hilferty start.
    """
    _check_df(df)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    a = 0.5 * df
    upper = q > 0.5
    goal = 1.0 - q if upper else q
    z = _normal_quantile_approx(goal) * (1.0 if upper else -1.0)
    c = 2.0 / (9.0 * df)
    x = df * max(0.0, 1.0 - c + z * math.sqrt(c)) ** 3
    if not upper:
        # P(x) ≤ y^a / Γ(a+1), so this root lies at or below the quantile.
        log_x = math.log(2.0) + (math.log(q) + math.lgamma(a + 1.0)) / a
        if log_x < -745.0:
            return 0.0  # below the smallest positive float
        x = max(x, math.exp(log_x))
    lo, hi = 0.0, math.inf
    for _ in range(200):
        p_x, q_x, f = _chi2_tails(x, df)
        tail = q_x if upper else p_x
        # The log of the ratio, not a difference of logs, so that the
        # residual keeps its precision deep in a tail.
        h = math.log(tail / goal) if tail > 0.0 else -math.inf
        if h == 0.0:
            return x
        if (h > 0.0) == upper:
            lo = x
        else:
            hi = x
        # d log Q/dx = −f/Q and d log P/dx = f/P.
        x_new = x + (h if upper else -h) * tail / f if tail > 0.0 and f > 0.0 else math.nan
        # Newton converges quadratically, so after a step this small only
        # the rounding of the tail is left in x_new.
        if abs(x_new - x) <= 1e-12 * x:
            return x_new
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        x = x_new
    return x


def noncentral_chi2_cdf(x: float, df: int, ncp: float) -> float:
    """Noncentral chi-square CDF.

    Poisson mixture: sum_k w_k P(x; df+2k) with w_k = e^{-λ} λ^k / k!
    and λ = ncp/2.  The sum starts at k₀ = ⌊λ − 40√λ⌋ (or 0): by the
    Chernoff bound w_k ≤ exp(−(λ−k)²/(2λ)) < e^{-800} below it, so every
    skipped weight rounds to 0.  From k ≥ λ on it stops once the Poisson
    mass left after term k, at most w_k r/(1−r) with r = λ/(k+1), or
    1 − Σ w_k, is below 1e-12.  After the closed-form P(x; df+2k₀), each
    term costs O(1): P(x; ν+2) = P(x; ν) − e^{−x/2}(x/2)^{ν/2}/Γ(ν/2+1),
    and both that difference and w_k follow from their predecessors by
    one ratio.  Raises ValueError unless ncp is finite, nonnegative and
    at most ``_MAX_NCP``.
    """
    _check_df(df)
    if not x >= 0:
        raise ValueError("x must be nonnegative")
    if not 0.0 <= ncp <= _MAX_NCP:
        raise ValueError(f"ncp must be finite, nonnegative and at most {_MAX_NCP:g}, got {ncp}")
    if ncp == 0.0 or x == 0.0 or x == math.inf:
        return chi2_cdf(x, df)
    lam, y = 0.5 * ncp, 0.5 * x
    k = max(0, math.floor(lam - 40.0 * math.sqrt(lam)))
    a = 0.5 * df + k
    p = _chi2_tails(x, df + 2 * k)[0]
    w = _term(k, lam)  # the Poisson weight w_k
    t = _term(a, y)  # P(x; 2a) − P(x; 2a + 2)
    total = 0.0
    mass = 0.0
    while True:
        mass += w
        total += w * p
        if k >= lam:
            r = lam / (k + 1)
            if 1.0 - mass < 1e-12 or w * r / (1.0 - r) < 1e-12:
                break
        k += 1
        a += 1.0
        p -= t
        w = w * lam / k if w > _TINY else _term(k, lam)
        t = t * y / a if t > _TINY else _term(a, y)
    return min(max(total, 0.0), 1.0)


def min_kappa(p: int) -> float:
    """Lower bound -2/(p+2) of the elliptical kurtosis parameter."""
    return -2.0 / (p + 2)
