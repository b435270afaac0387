"""Checks that need a fresh interpreter: which modules importing and
running spikedcov loads, and the BLAS thread cap of grids that compute
Q_H.  Inside the test session scipy is already loaded, so neither can be
seen here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PRINT_SCIPY_MODULES = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
)


def run_fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter that imports spikedcov from the
    source tree; return its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


SCIPY_FREE = {
    "import": "import spikedcov\n",
    "regime3 grid": (
        "from spikedcov.harness import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig('regime3', p=4, n=40, M=2,"
        " vgrid=(0.0, 2.0), alphas=(0.05, 0.01), limit_M=200))\n"
    ),
    "cli asymptotic": (
        "from spikedcov.cli import main\n"
        "main(['asymptotic', '--regime', 'iii', '--p', '3', '--v', '2', '--M', '200'],"
        " standalone_mode=False)\n"
    ),
    "cli power": "from spikedcov.cli import main\nmain(['power', '--p', '4'], standalone_mode=False)\n",
}


@pytest.mark.parametrize("case", SCIPY_FREE)
def test_loads_no_scipy(case):
    out = run_fresh(SCIPY_FREE[case] + PRINT_SCIPY_MODULES)
    assert json.loads(out.splitlines()[-1]) == []


# Runs a small Q_H grid with ``hpv_statistic`` wrapped so that every
# replicate appends the thread count of each OpenBLAS then loaded to the
# file argv[2].  Pool workers fork from the grid process and inherit the
# wrapper.
QH_GRID = """
import json, sys
from spikedcov import harness
from spikedcov.harness import ExperimentConfig, run_experiment

workers, log = int(sys.argv[1]), sys.argv[2]
hpv_statistic = harness.hpv_statistic

def recording(*args):
    statistic = hpv_statistic(*args)
    threads = {path: get() for path, (get, _) in harness._openblas_thread_controls().items()}
    with open(log, "a") as f:
        f.write(json.dumps(threads) + "\\n")
    return statistic

harness.hpv_statistic = recording
result = run_experiment(ExperimentConfig("null", p=3, n=40, M=8, ells=(0, 5), workers=workers))
print(json.dumps({"capped": result.blas_capped,
                  "libraries": sorted(harness._openblas_thread_controls()),
                  "scipy": "scipy.linalg" in sys.modules}))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_qh_grid_caps_every_openblas_its_replicates_call(workers, tmp_path):
    log = tmp_path / "threads.jsonl"
    summary = json.loads(run_fresh(QH_GRID, str(workers), str(log)).splitlines()[-1])
    if not summary["libraries"]:
        pytest.skip("no OpenBLAS with a get-threads entry point is loaded")
    replicates = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(replicates) == 2 * 8
    for threads in replicates:
        assert set(threads.values()) == {1}, threads
        assert sorted(threads) == summary["libraries"]
    assert summary["scipy"]  # Q_H's frame loaded scipy's LAPACK
    assert summary["capped"] == len(summary["libraries"])
