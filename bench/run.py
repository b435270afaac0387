"""Benchmark of the spikedcov Monte Carlo grids.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the grid is run, untraced, round after
round until ``--seconds`` have passed, and the end-to-end metrics are
medians over the rounds.  With ``--trace 1`` untraced and traced rounds
alternate in one process, and the per-layer metrics come from the
traced rounds' spans.  Either way the outputs are checked, a record is
written to ``bench/out/`` and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Times are reported at a reference machine speed.  A fixed calibration
kernel runs before the first round and after every round; each round's
times are divided by the mean of its two calibration times over
``CALIBRATION_REF_S`` (its "slowdown").  Set-up probes are scaled by a
bare interpreter that imports numpy.  The raw figures stay in the
record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics as stats
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Fresh interpreters timed per run for setup_s.
SETUP_PROBES = 5
# Time of calibration_s() that defines the reference machine speed,
# about its median on the 2-core x86-64 machine this benchmark was built on.
CALIBRATION_REF_S = 0.040
# Time of a fresh `python3 -c "import numpy"` that defines the reference
# start-up speed, about its median on the same machine.
NUMPY_IMPORT_REF_S = 0.17

# (span name, metric suffix): per-call self time of each layer function.
LAYERS = (
    ("distributions.make_rng", "us_per_call"),
    ("model.sample", "us_per_call"),
    ("statistics.summarize", "self_us_per_call"),
    ("linalg.sym_eigen", "us_per_call"),
    ("statistics.anderson_statistic", "us_per_call"),
    ("statistics.hpv_statistic", "self_us_per_call"),
    ("linalg.gram_schmidt_complement", "us_per_call"),
    ("statistics.kurtosis_from_summary", "us_per_call"),
)
LIMIT_LAW = "asymptotics.type1_risk_iii"


def calibration_s() -> float:
    """Seconds taken by a fixed kernel of the benchmark's own.

    It does the kinds of work a replicate does, on one thread: a Python
    loop, small numpy vector operations, and draws and elementwise
    passes over a 20 000 × 10 array.  The machine this benchmark was
    built on changes speed by up to a third over tens of seconds, and
    this kernel slows down with it.
    """
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(80_000):
        total += i * i
    v = np.linspace(-1.0, 1.0, 10)
    u = v.copy()
    for _ in range(3000):
        u -= (u @ v) * 0.01 * v
        u /= np.linalg.norm(u)
    rng = np.random.default_rng(0)
    for _ in range(3):
        X = rng.standard_normal((20_000, 10))
        X *= 1.1
        total += float((X * X).sum(axis=0)[0])
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and its largest ended child's."""
    kb = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Run:
    """The grid rounds of one benchmark run and what they produced."""

    def __init__(self, config, replicates: int):
        self.config = config
        self.replicates = replicates
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.csv: str | None = None
        self.result = None
        self.rounds: list[dict] = []
        calibration_s()  # the first call pays one-time costs
        self._calibration = calibration_s()

    def round(self, config, call):
        """Run ``call(config)`` once as a whole grid; return the round's
        record, or None if the grid raised."""
        self.attempted += self.replicates
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            result = call(config)
        except Exception as exc:  # a raising grid fails all its replicates
            self.failed += self.replicates
            self.failures.append(f"grid raised {exc!r}")
            return None
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        after = calibration_s()
        record = {
            "workers": config.workers,
            "wall_s": wall,
            "cpu_s": cpu,
            "slowdown": (self._calibration + after) / 2.0 / CALIBRATION_REF_S,
        }
        self._calibration = after
        self.rounds.append(record)
        self.failed += sum(count for _, count in result.degenerate)
        csv = result.to_csv()
        if self.csv is None:
            self.csv, self.result = csv, result
        elif csv != self.csv:
            self.failures.append(f"CSV of a {config.workers}-worker round differs from the first round's")
        return record


def run_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Grid rounds for ``seconds``: (metrics, raw figures)."""
    from spikedcov.harness import run_experiment

    n = run.replicates
    start = time.perf_counter()
    while run.round(run.config, run_experiment) and time.perf_counter() - start < seconds:
        pass
    if not run.rounds:
        return {}, {}
    rate = [n / r["wall_s"] for r in run.rounds]
    cpu_ms = [r["cpu_s"] * 1e3 / n for r in run.rounds]
    slow = [r["slowdown"] for r in run.rounds]
    metrics = {
        "replicates_per_s": (stats.median(x * s for x, s in zip(rate, slow)), "replicate/s"),
        "cpu_ms_per_replicate": (stats.median(x / s for x, s in zip(cpu_ms, slow)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {"replicates_per_s": stats.median(rate), "cpu_ms_per_replicate": stats.median(cpu_ms)}
    return metrics, raw


def run_traced(workload, run: Run, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced one-process rounds for ``seconds``:
    (metrics, spans of the last traced round)."""
    import tracing
    from spikedcov.harness import run_experiment

    if run.config.workers > 1:
        # The workload's own pool round, whose CSV the traced rounds must match.
        run.round(run.config, run_experiment)
    single = replace(run.config, workers=1)
    expected = workload.expected_calls(single)
    walls = {"untraced": [], "traced": []}
    slowdowns = []
    totals: dict[str, dict[str, float]] = {}
    draws = 0
    tracer = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not walls["traced"]:
        untraced = run.round(single, run_experiment)
        tracer = tracing.Tracer()
        traced = run.round(
            single,
            lambda c: tracing.traced_call(tracer, run_experiment, c, count_arguments={LIMIT_LAW: "M"}),
        )
        if untraced is None or traced is None:
            return {}, {}
        walls["untraced"].append(untraced["wall_s"] / untraced["slowdown"])
        walls["traced"].append(traced["wall_s"] / traced["slowdown"])
        slowdowns.append(traced["slowdown"])
        summary = tracer.summary()
        calls = {name: summary.get(name, {}).get("calls", 0) for name in expected}
        calls[LIMIT_LAW + ".draws"] = tracer.argument_totals.get(LIMIT_LAW, 0)
        for name, want in expected.items():
            if calls[name] != want:
                run.failures.append(f"traced {name}: {calls[name]} calls, expected {want}")
        draws += calls[LIMIT_LAW + ".draws"]
        for name, entry in summary.items():
            acc = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
    rounds = len(walls["traced"])
    us = 1e6 / stats.median(slowdowns)
    metrics = {
        "harness.self_us_per_replicate": (totals[tracing.ROOT]["self_s"] * us / (run.replicates * rounds), "us")
    }
    for name, suffix in LAYERS + ((LIMIT_LAW, "us_per_draw"),):
        acc = totals.get(name, {"calls": 0, "self_s": 0.0})
        per = draws if suffix == "us_per_draw" else acc["calls"]
        # 0 when the grid never calls the function (its count is 0).
        metrics[f"{name}.{suffix}"] = (acc["self_s"] * us / per if per else 0.0, "us")
        metrics[f"{name}.calls"] = (acc["calls"] // rounds, "count")
    metrics[LIMIT_LAW + ".draws"] = (draws // rounds, "count")
    metrics["trace.overhead_s"] = (stats.median(walls["traced"]) - stats.median(walls["untraced"]), "s")
    return metrics, tracer.to_json()


def _process_seconds(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Median time of fresh interpreters that import spikedcov and warm
    up: (at reference speed, raw).

    Process start-up drifts with the machine in ways the calibration
    kernel does not follow, so each probe is scaled by a bare interpreter
    that imports numpy right after it.
    """
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        times.append(_process_seconds([sys.executable, str(BENCH / "probe.py"), name, str(seed)]))
        baseline = _process_seconds([sys.executable, "-c", "import numpy"])
        scaled.append(times[-1] * NUMPY_IMPORT_REF_S / baseline)
    return stats.median(scaled), stats.median(times)


def check_csv_file(run: Run, name: str, seed: int) -> Path:
    """The CSV of a seed must equal the one an earlier run of the same
    grid left behind.  Delete ``bench/out/`` after changing a stream on
    purpose."""
    digest = hashlib.sha256(repr(run.config).encode()).hexdigest()[:12]
    path = OUT / f"{name}-seed{seed}-{digest}.csv"
    if path.exists():
        if path.read_text() != run.csv:
            run.failures.append(f"CSV differs from the earlier run's {path.name}")
    elif run.csv is not None:
        path.write_text(run.csv)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spikedcov" / "__init__.py").is_file():
        print(f"error: the spikedcov sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads
    from spikedcov.harness import run_experiment

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload]
    config = workload.config(seed)

    run_experiment(workloads.warm_config(config))
    run = Run(config, workloads.replicates(config))
    if args.trace:
        metrics, spans = run_traced(workload, run, args.seconds)
        raw = {}
    else:
        metrics, raw = run_untraced(run, args.seconds)

    if run.result is not None:
        run.failures += checks.grid_failures(config, run.result)
        run.failures += checks.WORKLOAD_CHECKS[workload.name](config, run.result)
    ref_failures, ref_gap = checks.reference_check(workload, seed)
    run.failures += ref_failures
    OUT.mkdir(exist_ok=True)
    csv_path = check_csv_file(run, workload.name, seed)
    if args.trace:
        (OUT / f"{workload.name}-seed{seed}.spans.json").write_text(json.dumps(spans))
    elif metrics:
        setup, raw["setup_s"] = setup_seconds(workload.name, seed)
        metrics["setup_s"] = (setup, "s")

    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": raw,
        "calibration_ref_s": CALIBRATION_REF_S,
        "rounds": run.rounds,
        "reference_max_rel_gap": ref_gap,
        "csv": csv_path.name,
        "csv_sha256": hashlib.sha256((run.csv or "").encode()).hexdigest(),
        "environment": environment(),
    }
    (OUT / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {workload.name}, seed {seed}: attempted {run.attempted}, failed {run.failed}")
    for message in run.failures:
        print(f"CHECK FAILED: {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
