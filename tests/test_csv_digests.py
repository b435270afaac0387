"""Pinned CSV bytes of whole grids.

A fixed seed must give the same CSV bytes whatever the worker count,
the chunking or the BLAS build, and a change that moves a random stream
must say so.  These tests hold the sha256 of each grid's CSV, so that a
stream moved by accident fails here.  A change that moves a stream on
purpose updates the digest and records why.

The first four grids restate the benchmark's workloads, at its default
seed and one more, so that a change to the benchmark's own definitions
leaves these pins alone.  The small grids cover what the workloads do
not: a power grid with its noncentral-chi-square prediction rows, a
Gaussian null grid with the pseudo-Gaussian tests, a highdim grid with a
p >= n cell, and one grid run both in one process and on two workers.
"""

import hashlib
from dataclasses import replace

import pytest

from spikedcov.harness import ExperimentConfig, run_experiment
from spikedcov.model import RadialFamily

ALPHAS = (0.05, 0.01)

WORKLOADS = {
    "null-p10-n200": lambda seed: ExperimentConfig(
        "null", p=10, n=200, M=500, ells=(0, 1, 2, 3, 4, 5), alphas=ALPHAS, seed=seed, workers=1
    ),
    "pseudo-t6-n20000": lambda seed: ExperimentConfig(
        "null", p=10, n=20_000, M=40, ells=(0, 3, 5), families=(RadialFamily.student_t(6),),
        alphas=ALPHAS, seed=seed, workers=2,
    ),
    "highdim-n200": lambda seed: ExperimentConfig(
        "highdim", n=200, M=25, cgrid=(0.25, 0.5), alphas=ALPHAS, seed=seed, workers=1
    ),
    "regime3-p10": lambda seed: ExperimentConfig(
        "regime3", p=10, n=200, M=500, vgrid=(0.0, 2.0, 4.0, 8.0), alphas=ALPHAS,
        limit_M=10_000, seed=seed, workers=1,
    ),
}

WORKLOAD_DIGESTS = {
    ("null-p10-n200", 20260815): "1a7c5f46467be1109197780477dc61bfd83a27b053efde1338dd187c55cfdb45",
    ("null-p10-n200", 907311): "1bad37e8d1acd8c62d9b73499286fc0a30568a054c91d3f72018996468ee9837",
    ("pseudo-t6-n20000", 20260815): "ceec3344bb556b916507ebc0d6596c5e7852cc9587a7af1dda8c6cf6d63d87b5",
    ("pseudo-t6-n20000", 907311): "c442ee46be8cd8535c14fcdccc57368ab01bfc415f8248bddb8b16959a1e7a73",
    ("highdim-n200", 20260815): "528c15a8fb91e22f3045fe56083414e8387ebf7560dc49b4707511b2f0b75930",
    ("highdim-n200", 907311): "6dd588a1596b2670a66911fb06d139dbabab8b6f1c7c85a895aedadfc8a51290",
    ("regime3-p10", 20260815): "35198d02ba2fbe7d27e8f1278135565765f97c4c25f10fabb54e13de06fff672",
    ("regime3-p10", 907311): "57d65f5336c0fa2010a778e30b2f62fd4b52b948666bf02f9a9bb4c1cbccbbda",
}

SMALL_GRIDS = {
    "power-with-predictions": (
        ExperimentConfig("power", p=5, n=100, M=40, ks=(0, 10, 20), alphas=ALPHAS, seed=31),
        "e251f76bb9804b7d766b6f33e7abdf7ccf7f74f5ece8a68319f561e0c7f6a498",
    ),
    "gaussian-null-pseudo": (
        ExperimentConfig("null", p=4, n=100, M=40, ells=(0, 3), alphas=ALPHAS, pseudo=True, seed=32),
        "97c924476a6acee450e0fb3e5a103aa53525ec1c8116999f9fb9a56a0ac0f602",
    ),
    "highdim-p-at-least-n": (
        ExperimentConfig("highdim", n=20, M=10, cgrid=(0.5, 1.0, 1.5), alphas=ALPHAS, seed=33),
        "a30551e2157f47ad04f7cecc1764e2ed4463f792eb789c6f2b2c79b501d66e6d",
    ),
}

# One grid, run in one process and on two workers: both give these bytes.
POOLED_GRID = ExperimentConfig(
    "null", p=5, n=2000, M=12, ells=(0, 5), families=(RadialFamily.student_t(6),),
    alphas=ALPHAS, seed=34,
)
POOLED_DIGEST = "6c5195eeacfb99ab00c104fbc4fb4a77c4d7b8ef5c31e91a165c648a3a7602ea"


def _digest(config: ExperimentConfig) -> str:
    return hashlib.sha256(run_experiment(config).to_csv().encode()).hexdigest()


@pytest.mark.parametrize(
    "name, seed", sorted(WORKLOAD_DIGESTS), ids=[f"{n}-seed{s}" for n, s in sorted(WORKLOAD_DIGESTS)]
)
def test_benchmark_workload_csv_digest(name, seed):
    assert _digest(WORKLOADS[name](seed)) == WORKLOAD_DIGESTS[name, seed]


@pytest.mark.parametrize("name", sorted(SMALL_GRIDS))
def test_small_grid_csv_digest(name):
    config, digest = SMALL_GRIDS[name]
    assert _digest(config) == digest


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_csv_digest_does_not_depend_on_workers(workers):
    assert _digest(replace(POOLED_GRID, workers=workers)) == POOLED_DIGEST
