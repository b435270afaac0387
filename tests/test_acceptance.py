"""Acceptance gate: the ten package-level checks at full stated scale.

Each test prints one ``[PASS]``/``[FAIL]`` line with the measured numbers
(visible in the failure message when a check does not hold).  One check,
criterion 1 (null size at n = 200), is known not to hold for this
implementation; its failure output states the measured values, and
README.md discusses the discrepancy.

This module is heavy (several minutes of Monte Carlo).  Run
``pytest tests -k "not acceptance"`` for the quick suite.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from spikedcov.asymptotics import (
    _qa_limit_block,
    asymptotic_power,
    sample_z_elliptical,
    type1_risk_iii,
)
from spikedcov.distributions import chi2_cdf, chi2_quantile, make_rng
from spikedcov.harness import ExperimentConfig, run_experiment
from spikedcov.model import RadialFamily, SpikedModel, SpikeRate, sample
from spikedcov.statistics import (
    anderson_statistic,
    decide,
    hpv_statistic,
    kurtosis_from_summary,
    summarize,
    summary_from_covariance,
)

from matrix_helpers import commutation_matrix, vec

SEED = 20260815


def report(name: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    return line


def e1(p):
    v = np.zeros(p)
    v[0] = 1.0
    return v


def test_criterion_01_null_size_across_spike_rates():
    """Gaussian null grid, p=10, n=200, M=10^4: every Gram-Schmidt size in
    [0.03, 0.07] at the 5% level, single-threaded in under 10 minutes."""
    cfg = ExperimentConfig(
        experiment="null",
        p=10,
        n=200,
        M=10_000,
        v=1.0,
        ells=(0, 1, 2, 3, 4, 5),
        alphas=(0.05,),
        seed=SEED,
        workers=1,
    )
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    freqs = {
        int(dict(r.cell)["ell"]): r.freq for r in res.rows if r.test == "hpv"
    }
    in_window = {ell: 0.03 <= f <= 0.07 for ell, f in freqs.items()}
    detail = (
        " ".join(f"ell={ell}:{freqs[ell]:.4f}{'' if in_window[ell] else '!'}" for ell in sorted(freqs))
        + f" wall={elapsed:.0f}s"
    )
    line = report("criterion 1 (null size, rate grid)", all(in_window.values()) and elapsed < 600, detail)
    assert elapsed < 600, line
    assert all(in_window.values()), line


def test_criterion_02_anderson_oversize_below_boundary():
    """p=2, n=10^5, slowest vanishing spike (exponent 5), M=10^4: the
    classical test over-rejects at its limiting rates 0.327 (5%) and
    0.198 (1%)."""
    model = SpikedModel(
        p=2, sigma=1.0, v=1.0, rate=SpikeRate.exponent(5), theta1=e1(2)
    )
    fam = RadialFamily.gaussian()
    crit5 = chi2_quantile(0.95, 1)
    crit1 = chi2_quantile(0.99, 1)
    M = 10_000
    hits5 = hits1 = 0
    theta = e1(2)
    for rep in range(M):
        rng = make_rng(np.random.SeedSequence((SEED, 2, rep)))
        X = sample(model, 100_000, fam, rng)
        q = anderson_statistic(summarize(X), theta, 1)
        hits5 += q > crit5
        hits1 += q > crit1
    f5, f1 = hits5 / M, hits1 / M
    ok = abs(f5 - 0.327) <= 0.02 and abs(f1 - 0.198) <= 0.015
    line = report(
        "criterion 2 (finite-n oversize)",
        ok,
        f"alpha=5%: {f5:.4f} (target 0.327±0.02), alpha=1%: {f1:.4f} (target 0.198±0.015)",
    )
    assert ok, line


def test_criterion_03_limit_law_risks():
    """Monte Carlo limiting risks match the known values of the
    non-chi-square null law."""
    est_a = type1_risk_iii(2, 0.0, 0.05, 100_000, make_rng(SEED))
    est_b = type1_risk_iii(2, 0.0, 0.001, 1_000_000, make_rng(SEED + 1))
    est_c = type1_risk_iii(10, 0.0, 0.05, 100_000, make_rng(SEED + 2))
    # qa_limit_sample's law, drawn in blocks of the tridiagonal model.
    draws = _qa_limit_block(2, 0.0, 0.0, 100_000, make_rng(SEED + 3))
    ks_stat, ks_p = scipy_stats.kstest(draws, lambda x: scipy_stats.chi2.cdf(x / 4.0, 1))
    ok_a = abs(est_a.risk - 0.327) <= 0.01
    ok_b = abs(est_b.risk - 0.10) <= 0.005
    ok_c = est_c.risk > 0.92
    ok_d = ks_p > 0.01
    ok = ok_a and ok_b and ok_c and ok_d
    line = report(
        "criterion 3 (limiting type-I risks)",
        ok,
        f"p=2@5%: {est_a.risk:.4f} (0.327±0.01), p=2@0.1%: {est_b.risk:.4f} (0.10±0.005), "
        f"p=10@5%: {est_c.risk:.4f} (>0.92), KS vs 4*chi2_1: p={ks_p:.3f} (>0.01)",
    )
    assert ok, line


def test_criterion_04_p3_limit_mean():
    """Mean of the limiting statistic at p=3 equals 49/6 within 0.1
    (M = 4*10^5)."""
    rng = make_rng(SEED + 4)
    total = 0.0
    M = 400_000
    # qa_limit_sample's law, drawn in blocks of the tridiagonal model and
    # summed one value at a time, in order.
    for _ in range(M // 20_000):
        for draw in _qa_limit_block(3, 0.0, 0.0, 20_000, rng).tolist():
            total += draw
    mean = total / M
    ok = abs(mean - 49.0 / 6.0) <= 0.1
    line = report(
        "criterion 4 (p=3 limit mean)", ok, f"mean={mean:.4f} (target {49/6:.4f}±0.1)"
    )
    assert ok, line


def test_criterion_05_banknote_case_study():
    """Bundled covariance case study: eigenvalues and both p-values match
    their reference values.

    The anchored-frame reference is computed here from the definition,
    Q = (n/λ̂₂) Σ_{k≠2} λ̂ₖ⁻¹ (θ̃ₖᵀSθ⁰)², with {θ̃ₖ} an orthonormal
    completion of [θ⁰, v̂₁, v̂₃, v̂₄] taken by QR; it gives p = 0.106.  The
    earlier pinned value 0.177 came from an off-by-one: a frame built from
    v̂₂, v̂₃, v̂₄ (the tested eigenvector inside its own complement, which is
    degenerate exactly at H₀) but weighted with λ̂₁, λ̂₃, λ̂₄.
    """
    from spikedcov.cli import BANKNOTE_THETA2
    from spikedcov.data import banknote_fixture_path, load_csv

    printed = load_csv(banknote_fixture_path()).values
    c_n = 84.0 / 85.0
    s = summary_from_covariance(c_n * printed, 85)
    ref_eigs = c_n * np.array([102.69, 13.05, 10.23, 2.66])
    eig_ok = bool(np.all(np.abs(s.eigen.values - ref_eigs) <= 0.02))

    lam, V = s.eigen.values, s.eigen.vectors
    others = [0, 2, 3]
    frame, _ = np.linalg.qr(np.column_stack([BANKNOTE_THETA2, V[:, others]]))
    St0 = s.cov @ BANKNOTE_THETA2
    q_ref = s.n / lam[1] * sum(
        float(frame[:, i + 1] @ St0) ** 2 / lam[k] for i, k in enumerate(others)
    )
    ph_ref = decide(q_ref, 3, 0.05).pvalue

    qh = hpv_statistic(s, BANKNOTE_THETA2, 2)
    pa = decide(anderson_statistic(s, BANKNOTE_THETA2, 2), 3, 0.05).pvalue
    ph = decide(qh, 3, 0.05).pvalue
    ok_def = abs(qh - q_ref) <= 1e-12 * q_ref
    ok_a = abs(pa - 0.099) <= 0.02
    ok_h = abs(ph_ref - 0.106) <= 0.02
    ok = eig_ok and ok_def and ok_a and ok_h
    line = report(
        "criterion 5 (banknote case study)",
        ok,
        f"eigs ok={eig_ok}, anderson p={pa:.4f} (0.099±0.02), hpv p={ph:.4f} "
        f"(0.106±0.02; definition by QR p={ph_ref:.4f}, rel. gap {abs(qh - q_ref) / q_ref:.1e})",
    )
    assert ok, line


def test_criterion_06_power_curve_matches_prediction():
    """Boundary power curve, p=2, v=1, n=10^4, M=4000: empirical
    Gram-Schmidt power within 3pp of the noncentral prediction at every
    grid point, 1pp at k=0 and 1.5pp at k=20."""
    cfg = ExperimentConfig(
        experiment="power",
        p=2,
        n=10_000,
        M=4_000,
        v=1.0,
        ks=(0, 5, 10, 15, 20),
        alphas=(0.05,),
        seed=SEED,
        workers=4,
    )
    res = run_experiment(cfg)
    emp = {int(dict(r.cell)["k"]): r.freq for r in res.rows if r.test == "hpv"}
    pred = {int(dict(r.cell)["k"]): r.freq for r in res.rows if r.test == "hpv_asymptotic"}
    tol = {0: 0.01, 20: 0.015}
    gaps = {k: abs(emp[k] - pred[k]) for k in emp}
    ok_by_k = {k: gaps[k] <= tol.get(k, 0.03) for k in gaps}
    detail = " ".join(
        f"k={k}:emp={emp[k]:.4f},pred={pred[k]:.4f}{'' if ok_by_k[k] else '!'}"
        for k in sorted(emp)
    )
    ok = all(ok_by_k.values())
    line = report("criterion 6 (boundary power curve)", ok, detail)
    assert ok, line


def test_criterion_07_heavy_tails_pseudo_correction():
    """Student-t(6) nulls, p=10, n=2*10^4, M=5000: the kurtosis-corrected
    Gram-Schmidt test holds its level on the rate grid {0, 3, 5}, while
    the corrected classical test still over-rejects at the slowest rate."""
    cfg = ExperimentConfig(
        experiment="null",
        p=10,
        n=20_000,
        M=5_000,
        v=1.0,
        ells=(0, 3, 5),
        families=(RadialFamily.student_t(6),),
        alphas=(0.05,),
        seed=SEED,
        workers=4,
    )
    res = run_experiment(cfg)
    hpv = {int(dict(r.cell)["ell"]): r.freq for r in res.rows if r.test == "hpv_pseudo"}
    and5 = [r.freq for r in res.rows if r.test == "anderson_pseudo" and dict(r.cell)["ell"] == "5"][0]
    ok_hpv = all(0.035 <= f <= 0.065 for f in hpv.values())
    ok_and = and5 > 0.30
    detail = (
        " ".join(f"hpv+ ell={k}:{hpv[k]:.4f}" for k in sorted(hpv))
        + f" anderson+ ell=5:{and5:.4f} (>0.30)"
    )
    ok = ok_hpv and ok_and
    line = report("criterion 7 (pseudo-Gaussian level)", ok, detail)
    assert ok, line


def test_criterion_08_kurtosis_estimator():
    """kappa_hat within 0.02 of 0 for Gaussian data (p=5, n=10^5) and
    within 0.05 of 0.4 for t(9) data."""
    Xg = make_rng(SEED + 5).standard_normal((100_000, 5))
    kg = kurtosis_from_summary(summarize(Xg), Xg)
    model = SpikedModel(p=5, sigma=1.0, v=1.0, rate=SpikeRate.constant(1.0), theta1=e1(5))
    Xt = sample(model, 100_000, RadialFamily.student_t(9), make_rng(SEED + 6))
    kt = kurtosis_from_summary(summarize(Xt), Xt)
    ok = abs(kg) <= 0.02 and abs(kt - 0.4) <= 0.05
    line = report(
        "criterion 8 (kurtosis estimator)",
        ok,
        f"gaussian: {kg:+.4f} (|.|<=0.02), t9: {kt:.4f} (0.4±0.05)",
    )
    assert ok, line


def test_criterion_09_growing_dimension():
    """p = c*n null grid at n=200, M=2000: Gram-Schmidt rejection frequency
    0.9255±0.03 at c=0.5; at c=2 (p = 400 ≥ n) the sample covariance is
    singular, so all 2000 replicates are reported degenerate and none is
    counted as a decision.

    The c=2 arm used to pin a frequency of 0.1715.  No well-defined
    statistic gives it: the former raw-spectrum path divided by the
    ~1e-15 null eigenvalues of a rank-(n−1) covariance, so about half its
    values were negative and the rest astronomically large, and the
    "frequency" (0.48–0.49 with one LAPACK driver, ≈0.09 with another)
    measured solver noise.
    """
    cfg = ExperimentConfig(
        experiment="highdim",
        n=200,
        M=2_000,
        cgrid=(0.5, 2.0),
        alphas=(0.05,),
        seed=SEED,
        workers=4,
    )
    res = run_experiment(cfg)
    hpv = {dict(r.cell)["c"]: r for r in res.rows if r.test == "hpv"}
    degenerate = dict(res.degenerate)
    ok_half = abs(hpv["0.5"].freq - 0.9255) <= 0.03 and hpv["0.5"].M == 2_000
    ok_two = (
        degenerate.get("c=2") == 2_000
        and hpv["2"].M == 0
        and not math.isfinite(hpv["2"].freq)
    )
    ok = ok_half and ok_two
    line = report(
        "criterion 9 (growing dimension)",
        ok,
        f"c=0.5: {hpv['0.5'].freq:.4f} (0.9255±0.03, M={hpv['0.5'].M}), "
        f"c=2: degenerate={degenerate.get('c=2', 0)} (2000), M={hpv['2'].M} (0), "
        f"freq={hpv['2'].freq} (nan)",
    )
    assert ok, line


def test_criterion_10_numerical_invariants():
    """Exact numerical guarantees: dual-form identity, invariances,
    sampler covariances, quantile round-trip, scheduler-independent CSV."""
    rng = make_rng(SEED + 7)

    # (a) Anderson dual spectral form on 1000 random SPD matrices
    worst_dual = 0.0
    for _ in range(1000):
        p = int(rng.integers(2, 11))
        B = rng.standard_normal((p + 5, p))
        s = summarize(B)
        theta = rng.standard_normal(p)
        theta /= np.linalg.norm(theta)
        j = int(rng.integers(1, p + 1))
        direct = anderson_statistic(s, theta, j)
        lam, V = s.eigen.values, s.eigen.vectors
        lj = lam[j - 1]
        dual = sum(
            (lj - lam[k]) ** 2 / lam[k] * float(V[:, k] @ theta) ** 2
            for k in range(p)
            if k != j - 1
        ) * (s.n / lj)
        worst_dual = max(worst_dual, abs(direct - dual))
    ok_dual = worst_dual <= 1e-8

    # (b) translation/scale/sign invariance of both statistics
    X = rng.standard_normal((150, 5)) @ np.diag([2.0, 1.5, 1.0, 0.7, 0.5])
    theta = rng.standard_normal(5)
    theta /= np.linalg.norm(theta)

    def both(Y):
        s = summarize(Y)
        return np.array([anderson_statistic(s, theta, 1), hpv_statistic(s, theta, 1)])

    base = both(X)
    worst_inv = 0.0
    for Y in (X + np.array([9.0, -3.0, 0.5, 100.0, 0.01]), 37.0 * X, -X, 1e-4 * X):
        worst_inv = max(worst_inv, float(np.max(np.abs(both(Y) - base))))
    ok_inv = worst_inv <= 1e-9

    # (c) sampler covariances within 5 standard errors
    p, M = 3, 100_000
    target = np.eye(p * p) + commutation_matrix(p)
    draws = np.empty((M, p * p))
    for i in range(M):
        draws[i] = vec(sample_z_elliptical(p, 0.0, rng))
    emp = np.cov(draws.T)
    se = np.sqrt(
        (np.outer(np.diag(target), np.diag(target)) + target**2) / M
    )
    ok_goe = bool(np.all(np.abs(emp - target) <= 5 * se))
    kappa = 0.4
    Z = np.array([sample_z_elliptical(2, kappa, rng) for _ in range(M)])
    z11, z22 = Z[:, 0, 0], Z[:, 1, 1]
    var_ok = abs(z11.var() - (2 + 3 * kappa)) <= 5 * z11.var() * math.sqrt(2.0 / M)
    cov_ok = abs(np.cov(z11, z22)[0, 1] - kappa) <= 5 * math.sqrt(
        float(np.var(z11 * z22)) / M
    )
    ok_samplers = ok_goe and var_ok and cov_ok

    # (d) chi-square quantile/cdf round-trip to 1e-9
    worst_rt = max(
        abs(chi2_cdf(chi2_quantile(q, df), df) - q)
        for df in (1, 2, 5, 9, 20, 50)
        for q in (0.001, 0.05, 0.5, 0.95, 0.999)
    )
    ok_rt = worst_rt <= 1e-9

    # (e) CSV output independent of the worker count
    base_cfg = dict(
        experiment="null", p=3, n=60, M=90, ells=(0, 3), alphas=(0.05,), seed=SEED
    )
    csv1 = run_experiment(ExperimentConfig(workers=1, **base_cfg)).to_csv()
    csv3 = run_experiment(ExperimentConfig(workers=3, **base_cfg)).to_csv()
    ok_csv = csv1 == csv3

    ok = ok_dual and ok_inv and ok_samplers and ok_rt and ok_csv
    line = report(
        "criterion 10 (numerical invariants)",
        ok,
        f"dual={worst_dual:.2e}(<=1e-8) inv={worst_inv:.2e}(<=1e-9) "
        f"samplers={'ok' if ok_samplers else 'FAIL'} roundtrip={worst_rt:.2e}(<=1e-9) "
        f"csv={'identical' if ok_csv else 'DIFFERS'}",
    )
    assert ok, line
