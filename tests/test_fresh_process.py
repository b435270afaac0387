"""Checks that need a fresh interpreter: which modules importing and
running spikedcov and its CLI load, the BLAS thread cap and OS threads of grids that
compute Q_H, and the CSV bytes under each OpenBLAS kernel.  Inside the
test session scipy is already loaded and OpenBLAS has picked its kernel,
so none of these can be seen here."""

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


def run_fresh(
    code: str, *args: str, env_vars: dict[str, str] | None = None, flags: tuple[str, ...] = ()
) -> str:
    """Run ``code`` in a new interpreter, started with the options
    ``flags``, that imports spikedcov from the source tree, with
    ``env_vars`` added to its environment; return its standard output."""
    env = dict(os.environ, **(env_vars or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
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
    "null grid": (
        "from spikedcov.harness import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig('null', p=3, n=40, M=2, ells=(0, 5)))\n"
    ),
    "pooled null grid": (
        "from spikedcov.harness import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig('null', p=3, n=40, M=4, ells=(0, 5), workers=2))\n"
    ),
    "highdim grid": (
        "from spikedcov.harness import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig('highdim', n=40, M=2, cgrid=(0.25,)))\n"
    ),
    # With --data the case study computes Q_H for every leave-one-out sample.
    "cli banknote": (
        "import os, tempfile\n"
        "import numpy as np\n"
        "from spikedcov.cli import main\n"
        "X = np.random.default_rng(0).standard_normal((30, 4)) * [2.0, 1.5, 1.0, 0.5]\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    path = os.path.join(tmp, 'banknote.csv')\n"
        "    np.savetxt(path, X, delimiter=',', header='a,b,c,d', comments='')\n"
        "    main(['banknote', '--data', path], standalone_mode=False)\n"
    ),
}


@pytest.mark.parametrize("case", SCIPY_FREE)
def test_loads_no_scipy(case):
    out = run_fresh(SCIPY_FREE[case] + PRINT_SCIPY_MODULES)
    assert json.loads(out.splitlines()[-1]) == []


# Only a pooled grid runs the process pool, so only it loads the pool's
# modules.
POOL_MODULES = ["concurrent.futures", "multiprocessing"]
PRINT_POOL_MODULES = (
    "import json, sys\n"
    f"print(json.dumps([m for m in {POOL_MODULES!r} if m in sys.modules]))\n"
)


@pytest.mark.parametrize("case", ["import", "null grid", "highdim grid", "regime3 grid", "cli power"])
def test_loads_no_process_pool(case):
    out = run_fresh(SCIPY_FREE[case] + PRINT_POOL_MODULES)
    assert json.loads(out.splitlines()[-1]) == []


def test_pooled_grid_loads_the_process_pool_when_it_runs():
    code = "import spikedcov\n" + PRINT_POOL_MODULES + SCIPY_FREE["pooled null grid"]
    out = run_fresh(code + PRINT_POOL_MODULES).splitlines()
    assert [json.loads(line) for line in out[-2:]] == [[], POOL_MODULES]


# Run under -S, where no site-packages .pth file loads pathlib first, with
# the site-packages directories appended by hand.
SITE_PACKAGES = [p for p in sys.path if os.path.basename(p) in ("site-packages", "dist-packages")]
WITHOUT_SITE = f"import sys\nsys.path.extend({SITE_PACKAGES!r})\n"


@pytest.mark.parametrize("case", ["import cli", "cli power", "cli asymptotic"])
def test_cli_loads_no_pathlib(case):
    code = "from spikedcov import cli\n" if case == "import cli" else SCIPY_FREE[case]
    out = run_fresh(WITHOUT_SITE + code + "print('pathlib' in sys.modules)\n", flags=("-S",))
    assert out.splitlines()[-1] == "False"


# Runs a small Q_H grid with ``hpv_statistic`` wrapped so that every
# replicate appends the thread count of each OpenBLAS then loaded, and the
# number of OS threads of its process, to the file argv[2].  Pool workers
# fork from the grid process and inherit the wrapper.
QH_GRID = """
import json, os, sys
from spikedcov import harness
from spikedcov.harness import ExperimentConfig, run_experiment

workers, log = int(sys.argv[1]), sys.argv[2]
hpv_statistic = harness.hpv_statistic

def recording(*args):
    statistic = hpv_statistic(*args)
    threads = {path: get() for path, (get, _) in harness._openblas_thread_controls().items()}
    os_threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    with open(log, "a") as f:
        f.write(json.dumps({"blas": threads, "os_threads": os_threads}) + "\\n")
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
    for replicate in replicates:
        threads = replicate["blas"]
        assert set(threads.values()) == {1}, threads
        assert sorted(threads) == summary["libraries"]
    assert not summary["scipy"]  # Q_H's frame runs on numpy's own LAPACK
    assert summary["capped"] == len(summary["libraries"])


def test_pooled_workers_run_no_openblas_helper_threads(tmp_path):
    """Capping a forked worker restarts each OpenBLAS's helper threads,
    which spin on the cores; the worker stops them again, so every
    replicate runs in a process of one OS thread."""
    log = tmp_path / "threads.jsonl"
    summary = json.loads(run_fresh(QH_GRID, "2", str(log)).splitlines()[-1])
    if not summary["libraries"]:
        pytest.skip("no OpenBLAS with a get-threads entry point is loaded")
    replicates = [json.loads(line) for line in log.read_text().splitlines()]
    if replicates[0]["os_threads"] is None:
        pytest.skip("/proc/self/task is missing")
    assert [r["os_threads"] for r in replicates] == [1] * len(replicates)


# Runs small null (Gaussian, and Student-t with the pseudo-Gaussian
# tests), highdim and regime3 grids in one process, and prints their CSVs
# with the kernel each loaded OpenBLAS runs on, as its get-corename entry
# point reports it.
CORE_GRIDS = """
import ctypes, json
from spikedcov import harness
from spikedcov.harness import ExperimentConfig, run_experiment
from spikedcov.model import RadialFamily

common = dict(seed=20260815, alphas=(0.05, 0.01))
configs = [
    ExperimentConfig("null", p=10, n=200, M=100, ells=(0, 5), **common),
    ExperimentConfig("null", p=10, n=2000, M=40, ells=(0, 3),
                     families=(RadialFamily.student_t(6),), pseudo=True, **common),
    ExperimentConfig("highdim", n=200, M=10, cgrid=(0.25, 0.5), **common),
    ExperimentConfig("regime3", p=10, n=200, M=100, vgrid=(0.0, 4.0), limit_M=2000, **common),
]
csvs = [run_experiment(config).to_csv() for config in configs]
cores = {}
for path in harness._openblas_libraries():
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                 "openblas_get_corename64_", "openblas_get_corename"):
        get_corename = getattr(lib, name, None)
        if get_corename is not None:
            get_corename.restype = ctypes.c_char_p
            cores[path] = get_corename().decode()
            break
print(json.dumps({"cores": cores, "csvs": csvs}))
"""

# The names OpenBLAS reports for each core that ``OPENBLAS_CORETYPE``
# selects.  OpenBLAS 0.3 reports its Prescott kernels as "Katmai".
CORE_NAMES = {
    "SkylakeX": {"SkylakeX"},
    "Haswell": {"Haswell"},
    "Sandybridge": {"Sandybridge"},
    "Prescott": {"Prescott", "Katmai"},
}


@pytest.fixture(scope="module")
def default_core_grids():
    return json.loads(run_fresh(CORE_GRIDS).splitlines()[-1])


@pytest.mark.parametrize("core", CORE_NAMES)
def test_csv_bytes_do_not_depend_on_openblas_kernel(core, default_core_grids):
    """The determinism contract's "whatever the BLAS build": each kernel
    moves the statistics in their last bits, and no decision may flip."""
    out = json.loads(run_fresh(CORE_GRIDS, env_vars={"OPENBLAS_CORETYPE": core}).splitlines()[-1])
    if not out["cores"]:
        pytest.skip("no OpenBLAS with a get-corename entry point is loaded")
    if not set(out["cores"].values()) <= CORE_NAMES[core]:
        pytest.skip(f"this build or CPU does not select {core}: {out['cores']}")
    assert out["csvs"] == default_core_grids["csvs"]
