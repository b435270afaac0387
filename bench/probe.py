"""Set-up probe: in a fresh interpreter, import spikedcov and warm up one
workload's grid (two replicates per cell), then exit.

    python3 bench/probe.py <workload> <seed>

``run.py`` times this process from start to exit.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from spikedcov.harness import run_experiment  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
run_experiment(workloads.warm_config(workloads.WORKLOADS[name].config(seed)))
