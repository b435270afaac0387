"""The benchmark's four Monte Carlo grids.

Each workload is one ``ExperimentConfig`` run through
``harness.run_experiment``.  The benchmark fixes the replicates per cell
so that one grid takes a few seconds on two cores, and derives
everything else from the seed.  This module imports nothing but
spikedcov, so that the set-up probe measures the program's import alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from spikedcov import harness
from spikedcov.harness import ExperimentConfig
from spikedcov.model import RadialFamily

DEFAULT_SEED = 20260815
ALPHAS = (0.05, 0.01)


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], ExperimentConfig]
    # (p, n, Student-t ν or None for Gaussian, spike) of the benchmark's
    # own reference inputs.
    shapes: tuple
    # Span name -> calls of one grid; a ".draws" key counts limit-law draws.
    expected_calls: Callable[[ExperimentConfig], dict[str, int]]


def cells(config: ExperimentConfig) -> int:
    return len(harness._cells_for(config))


def replicates(config: ExperimentConfig) -> int:
    return cells(config) * config.M


def warm_config(config: ExperimentConfig) -> ExperimentConfig:
    """The same grid cut to two replicates per cell, in one process."""
    return replace(config, M=2, limit_M=min(config.limit_M, 1000), workers=1)


def _null_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        experiment="null", p=10, n=200, M=500, ells=(0, 1, 2, 3, 4, 5),
        alphas=ALPHAS, seed=seed, workers=1,
    )


def _null_calls(config: ExperimentConfig) -> dict[str, int]:
    r = replicates(config)
    return {
        "distributions.make_rng": r,
        "model.sample": r,
        "statistics.summarize": r,
        "linalg.sym_eigen": r,
        "statistics.anderson_statistic": r,
        "statistics.hpv_statistic": r,
        "linalg.gram_schmidt_complement": r,
        "statistics.kurtosis_from_summary": 0,
        "asymptotics.type1_risk_iii": 0,
    }


def _t6_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        experiment="null", p=10, n=20_000, M=40, ells=(0, 3, 5),
        families=(RadialFamily.student_t(6),), alphas=ALPHAS, seed=seed, workers=2,
    )


def _t6_calls(config: ExperimentConfig) -> dict[str, int]:
    return {**_null_calls(config), "statistics.kurtosis_from_summary": replicates(config)}


def _highdim_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        experiment="highdim", n=200, M=25, cgrid=(0.25, 0.5),
        alphas=ALPHAS, seed=seed, workers=1,
    )


def _highdim_calls(config: ExperimentConfig) -> dict[str, int]:
    # The highdim replicate draws its data inline, without model.sample.
    return {**_null_calls(config), "model.sample": 0}


def _regime3_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        experiment="regime3", p=10, n=200, M=500, vgrid=(0.0, 2.0, 4.0, 8.0),
        alphas=ALPHAS, limit_M=10_000, seed=seed, workers=1,
    )


def _regime3_calls(config: ExperimentConfig) -> dict[str, int]:
    r, n_cells, levels = replicates(config), cells(config), len(config.alphas)
    spiked = sum(1 for v in config.vgrid if v != 0.0)
    return {
        # One generator per replicate, plus one per limit-law row.
        "distributions.make_rng": r + n_cells * levels,
        # A v = 0 cell draws pure noise inline.
        "model.sample": spiked * config.M,
        "statistics.summarize": r,
        "linalg.sym_eigen": r,
        "statistics.anderson_statistic": r,
        "statistics.hpv_statistic": 0,
        "linalg.gram_schmidt_complement": 0,
        "statistics.kurtosis_from_summary": 0,
        "asymptotics.type1_risk_iii": n_cells * levels,
        "asymptotics.type1_risk_iii.draws": n_cells * levels * config.limit_M,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("null-p10-n200", _null_config, ((10, 200, None, 1.0),), _null_calls),
        Workload("pseudo-t6-n20000", _t6_config, ((10, 20_000, 6.0, 1.0),), _t6_calls),
        Workload(
            "highdim-n200", _highdim_config, ((50, 200, None, 1.0), (100, 200, None, 1.0)),
            _highdim_calls,
        ),
        Workload("regime3-p10", _regime3_config, ((10, 200, None, 0.5),), _regime3_calls),
    )
}
