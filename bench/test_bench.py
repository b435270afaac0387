"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest bench/test_bench.py

Each check must pass on the program's output and fail on a known-wrong
value.
"""

import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spikedcov import harness, statistics  # noqa: E402
from spikedcov.harness import ExperimentConfig, run_experiment  # noqa: E402
from spikedcov.model import RadialFamily  # noqa: E402


@pytest.fixture(scope="module")
def tiny_null():
    config = ExperimentConfig(experiment="null", p=3, n=60, M=20, ells=(0, 5), alphas=(0.05, 0.01), seed=7)
    return config, run_experiment(config)


def test_reference_agrees_with_program_at_every_shape():
    rng = np.random.default_rng(3)
    for p, n in ((4, 85), (10, 200), (50, 200)):
        X = reference.spiked_student_t(rng, n, p, 1.0, 6.0)
        theta0 = np.linalg.qr(rng.standard_normal((p, 1)))[0][:, 0]
        for j in (1, 2):
            failures, gap = checks.reference_failures(statistics, X, theta0, j)
            assert failures == [] and gap < 1e-11


def test_off_by_one_frame_fails_the_reference_check():
    rng = np.random.default_rng(5)
    X = reference.spiked_gaussian(rng, 85, 4, 3.0)
    theta0 = np.array([0.1, 0.9, 0.3, 0.2])
    theta0 /= np.linalg.norm(theta0)
    wrong = SimpleNamespace(
        summarize=statistics.summarize,
        anderson_statistic=statistics.anderson_statistic,
        hpv_statistic=lambda s, t, j: reference.hpv_off_by_one(X, t, j),
        kurtosis_from_summary=statistics.kurtosis_from_summary,
    )
    failures, _ = checks.reference_failures(wrong, X, theta0, 2)
    assert len(failures) == 1 and failures[0].startswith("Q_H")
    assert checks.reference_failures(statistics, X, theta0, 2)[0] == []


def test_grid_check_passes_on_program_output(tiny_null):
    config, result = tiny_null
    assert checks.grid_failures(config, result) == []


def test_cell_whose_M_disagrees_with_its_degenerate_count_fails(tiny_null):
    config, result = tiny_null
    rows = list(result.rows)
    rows[0] = replace(rows[0], M=config.M - 1)
    failures = checks.grid_failures(config, replace(result, rows=tuple(rows)))
    assert any("disagrees" in f for f in failures)
    counted = replace(result, degenerate=(("family=gaussian ell=0", 1),))
    assert any("disagrees" in f for f in checks.grid_failures(config, counted))


def test_wrong_standard_error_and_frequency_fail(tiny_null):
    config, result = tiny_null
    rows = list(result.rows)
    rows[1] = replace(rows[1], se=rows[1].se * 1.01 + 1e-6)
    rows[2] = replace(rows[2], freq=1.5)
    failures = checks.grid_failures(config, replace(result, rows=tuple(rows)))
    assert any("se " in f for f in failures) and any("outside [0, 1]" in f for f in failures)


def test_limit_law_check_fails_on_a_wrong_risk():
    config = ExperimentConfig(
        experiment="regime3", p=10, n=60, M=5, vgrid=(0.0, 4.0, 8.0), alphas=(0.05,), limit_M=4000, seed=9
    )
    result = run_experiment(config)
    assert checks.WORKLOAD_CHECKS["regime3-p10"](config, result) == []
    rows = [replace(r, freq=0.2) if r.test == "anderson_limit" and r.cell == (("v", "0"),) else r for r in result.rows]
    failures = checks.WORKLOAD_CHECKS["regime3-p10"](config, replace(result, rows=tuple(rows)))
    assert any("own estimate" in f for f in failures) and any("does not fall" in f for f in failures)


def test_level_and_breakdown_checks_fail_on_wrong_frequencies():
    config = ExperimentConfig(
        experiment="null", p=3, n=60, M=40, ells=(0, 3, 5), families=(RadialFamily.student_t(6),),
        alphas=(0.05,), seed=7,
    )
    result = run_experiment(config)

    def with_hpv_pseudo(freq):
        rows = [
            replace(r, freq=freq) if r.test == "hpv_pseudo" and r.cell == result.rows[0].cell else r
            for r in result.rows
        ]
        return replace(result, rows=tuple(rows))

    def level_failures(res):
        return [f for f in checks.WORKLOAD_CHECKS["pseudo-t6-n20000"](config, res) if "hpv_pseudo 5% size" in f]

    # 8 of 40 lies 4.35 normal-theory SE above 0.05, yet its binomial p-value
    # is 7e-4; 12 of 40 has 4e-7.
    assert not any("ell=0" in f for f in level_failures(with_hpv_pseudo(8 / 40)))
    assert any("ell=0" in f for f in level_failures(with_hpv_pseudo(12 / 40)))

    highdim = ExperimentConfig(experiment="highdim", n=40, M=4, cgrid=(0.5,), alphas=(0.05,), seed=7)
    result = run_experiment(highdim)
    rows = tuple(replace(r, freq=0.4) if r.test == "hpv" else r for r in result.rows)
    assert checks.WORKLOAD_CHECKS["highdim-n200"](highdim, replace(result, rows=rows)) != []
    rows = tuple(replace(r, freq=0.75) if r.test == "hpv" else r for r in result.rows)
    assert checks.WORKLOAD_CHECKS["highdim-n200"](highdim, replace(result, rows=rows)) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_call_counts_match_the_grid(name):
    config = replace(workloads.warm_config(workloads.WORKLOADS[name].config(11)), M=3, limit_M=50)
    originals = {k: getattr(harness, k) for k in ("sample", "summarize", "make_rng")}
    tracer = tracing.Tracer()
    traced = tracing.traced_call(
        tracer, run_experiment, config, count_arguments={"asymptotics.type1_risk_iii": "M"}
    )
    assert {k: getattr(harness, k) for k in originals} == originals
    assert traced.to_csv() == run_experiment(config).to_csv()
    summary = tracer.summary()
    for span, want in workloads.WORKLOADS[name].expected_calls(config).items():
        if span.endswith(".draws"):
            got = tracer.argument_totals.get(span.removesuffix(".draws"), 0)
        else:
            got = summary.get(span, {}).get("calls", 0)
        assert got == want, span
    root = summary[tracing.ROOT]
    assert root["calls"] == 1 and 0.0 < root["self_s"] < root["total_s"]
