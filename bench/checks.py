"""Checks on the program's outputs.

Every check returns a list of failure messages, empty when the output
is correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

import reference
from spikedcov import harness, statistics

# Samples drawn per shape for the reference comparison.
REFERENCE_SAMPLES = 3
REFERENCE_RTOL = 1e-9
# A check on a Monte Carlo frequency may fail a correct program on an
# unlucky seed.  Each one is set so that this happens with probability
# about 1e-6 or less per run, at the true rates (estimated over 40 seeds).
FALSE_ALARM = 1e-6
# Limit-law draws the benchmark makes itself for the regime3 comparison,
# and the combined standard errors (two-sided tail 5.7e-7) it may differ by.
OWN_LIMIT_M = 100_000
LIMIT_LAW_SE = 5.0
# Q_H's 5% frequency at n = 200, c = 0.5 must stay above this: the χ²
# calibration breaks down at p = n/2 (criterion 9 measures 0.9255).
HIGHDIM_FLOOR = 0.4


def grid_failures(config, result) -> list[str]:
    """Every cell has M valid replicates; freq ∈ [0, 1]; se = √(f(1−f)/M)."""
    failures = []
    degenerate = dict(result.degenerate)
    for label, count in degenerate.items():
        failures.append(f"cell {label}: {count} degenerate replicates")
    labels = {
        harness._cell_columns(config, c): harness._cell_label(config, c)
        for c in harness._cells_for(config)
    }
    for row in result.rows:
        where = f"{labels[row.cell]} {row.test} alpha={row.alpha}"
        if row.test == "anderson_limit":
            expected_M = config.limit_M
        else:
            expected_M = config.M
            valid = config.M - degenerate.get(labels[row.cell], 0)
            if row.M != valid:
                failures.append(f"{where}: M = {row.M} disagrees with {valid} valid replicates")
        if row.M != expected_M:
            failures.append(f"{where}: M = {row.M}, expected {expected_M}")
        if not 0.0 <= row.freq <= 1.0:
            failures.append(f"{where}: freq {row.freq} outside [0, 1]")
            continue
        se = math.sqrt(row.freq * (1.0 - row.freq) / row.M)
        if not math.isclose(row.se, se, rel_tol=1e-12, abs_tol=1e-15):
            failures.append(f"{where}: se {row.se!r} != sqrt(f(1-f)/M) = {se!r}")
    return failures


def reference_failures(program, X: np.ndarray, theta0: np.ndarray, j: int = 1):
    """Compare the program's Q_A, Q_H and 1 + κ̂ on X with the references.

    ``program`` is any object with the ``statistics`` module's
    ``summarize``, ``anderson_statistic``, ``hpv_statistic`` and
    ``kurtosis_from_summary``.  Returns the failures and the largest
    relative gap seen.
    """
    s = program.summarize(X)
    pairs = {
        "Q_A": (program.anderson_statistic(s, theta0, j), reference.anderson(X, theta0, j)),
        "Q_H": (program.hpv_statistic(s, theta0, j), reference.hpv(X, theta0, j)),
        # κ̂ can lie arbitrarily close to 0 on Gaussian data, so it is
        # compared through 1 + κ̂, the factor the pseudo-Gaussian tests use.
        "1+kappa_hat": (1.0 + program.kurtosis_from_summary(s, X), 1.0 + reference.kurtosis(X)),
    }
    failures, worst = [], 0.0
    for name, (got, want) in pairs.items():
        gap = abs(got - want) / abs(want)
        worst = max(worst, gap)
        if not gap <= REFERENCE_RTOL:
            failures.append(
                f"{name} at p={X.shape[1]}, n={X.shape[0]}, j={j}: "
                f"program {got!r}, reference {want!r}"
            )
    return failures, worst


def reference_check(workload, seed: int):
    """Draw inputs of the workload's shapes from ``seed`` and compare."""
    rng = np.random.default_rng([seed, 1])
    failures, worst = [], 0.0
    for p, n, nu, spike in workload.shapes:
        theta0 = np.zeros(p)
        theta0[0] = 1.0
        for _ in range(REFERENCE_SAMPLES):
            if nu is None:
                X = reference.spiked_gaussian(rng, n, p, spike)
            else:
                X = reference.spiked_student_t(rng, n, p, spike, nu)
            f, gap = reference_failures(statistics, X, theta0)
            failures += f
            worst = max(worst, gap)
    return failures, worst


def _row(result, test: str, alpha: float, **cell):
    for row in result.rows:
        values = dict(row.cell)
        if row.test == test and row.alpha == alpha and all(
            values[k] == harness._fmt(v) for k, v in cell.items()
        ):
            return row
    raise KeyError(f"no row {test} alpha={alpha} {cell}")


def _binomial_pvalue(row, p0: float) -> float:
    """Exact two-sided p-value of the row's rejection count against p0."""
    return stats.binomtest(round(row.freq * row.M), row.M, p0).pvalue


def _null_checks(config, result) -> list[str]:
    failures = []
    qa5 = _row(result, "anderson", 0.05, ell=5)
    if not qa5.freq > 0.5:
        failures.append(f"Q_A 5% size at ell=5 is {qa5.freq}, not above 0.5")
    for ell in config.ells:
        if ell < 1:
            continue
        a, h = _row(result, "anderson", 0.05, ell=ell), _row(result, "hpv", 0.05, ell=ell)
        if not h.freq < a.freq - 4.0 * math.hypot(a.se, h.se):
            failures.append(
                f"ell={ell}: Q_H 5% size {h.freq} not below Q_A's {a.freq} by 4 combined SE"
            )
    return failures


def _t6_checks(config, result) -> list[str]:
    failures = []
    for ell in config.ells:
        hp = _row(result, "hpv_pseudo", 0.05, ell=ell)
        # At M = 40 a 5% count is too skewed for a normal-theory SE band.
        if not _binomial_pvalue(hp, 0.05) >= FALSE_ALARM:
            failures.append(f"ell={ell}: hpv_pseudo 5% size {hp.freq} rejects 0.05 at level {FALSE_ALARM}")
        h = _row(result, "hpv", 0.05, ell=ell)
        if not h.freq > hp.freq:
            failures.append(f"ell={ell}: uncorrected hpv {h.freq} not above hpv_pseudo {hp.freq}")
    ap5 = _row(result, "anderson_pseudo", 0.05, ell=5)
    if not ap5.freq > 0.30:
        failures.append(f"anderson_pseudo 5% size at ell=5 is {ap5.freq}, not above 0.30")
    return failures


def _highdim_checks(config, result) -> list[str]:
    row = _row(result, "hpv", 0.05, c=0.5)
    if not row.freq > HIGHDIM_FLOOR:
        return [f"c=0.5: Q_H 5% frequency {row.freq} not above {HIGHDIM_FLOOR}"]
    return []


def _regime3_checks(config, result) -> list[str]:
    failures = []
    rng = np.random.default_rng([config.seed, 2])
    own_risks = reference.limit_risks(config.p, config.vgrid[0], config.alphas, OWN_LIMIT_M, rng)
    for alpha, (own, own_se) in zip(config.alphas, own_risks):
        limit = [_row(result, "anderson_limit", alpha, v=v) for v in config.vgrid]
        if not abs(limit[0].freq - own) <= LIMIT_LAW_SE * math.hypot(limit[0].se, own_se):
            failures.append(
                f"alpha={alpha}: anderson_limit at v={config.vgrid[0]:g} is {limit[0].freq}, "
                f"own estimate {own} ± {own_se}"
            )
        freqs = [r.freq for r in limit]
        if not all(a > b for a, b in zip(freqs, freqs[1:])):
            failures.append(f"alpha={alpha}: anderson_limit does not fall as v rises: {freqs}")
    return failures


WORKLOAD_CHECKS = {
    "null-p10-n200": _null_checks,
    "pseudo-t6-n20000": _t6_checks,
    "highdim-n200": _highdim_checks,
    "regime3-p10": _regime3_checks,
}
