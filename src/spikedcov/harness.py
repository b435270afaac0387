"""Seeded, parallel Monte Carlo experiment grids.

Every replicate draws its generator from
``SeedSequence((master_seed, cell_index, replicate_index))``, so results
are independent of worker count and chunking.  Chunks return their
statistics in replicate order, and the grid process counts rejections
from them.  CSV output is therefore byte-identical for a given
(config, seed) no matter how the work is scheduled.

Degenerate replicates (numerically singular sample covariance, or a
non-finite or negative statistic) are counted per cell and excluded from
the denominator explicitly: the CSV ``M`` column always holds the number
of valid replicates behind the frequency, and degenerate counts appear in
the text report.  A cell with no valid replicate reports ``freq`` and
``se`` as ``nan`` with ``M = 0``.
"""

from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asymptotics import asymptotic_power, ncp_hpv_iii, ncp_oracle_iii, type1_risk_iii
from .distributions import _check_alpha, chi2_quantile, make_rng
from .linalg import DegeneracyError
from .model import RadialFamily, SpikedModel, SpikeRate, sample
from .statistics import (
    anderson_statistic,
    hpv_statistic,
    kurtosis_from_summary,
    oracle_statistic,
    pseudo_gaussian,
    summarize,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "CellRow",
    "run_experiment",
]

# Experiment kind -> the config field that holds its grid.
GRIDS = {"null": "ells", "power": "ks", "regime3": "vgrid", "highdim": "cgrid"}
EXPERIMENTS = tuple(GRIDS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Description of one Monte Carlo grid.

    Only the fields relevant to ``experiment`` are consulted: the grid
    field that ``GRIDS`` names (the null grid crosses ``ells`` with
    ``families``) and the shared fields.  The fields and their types are
    also the config keys of ``spikedcov simulate``, apart from
    ``experiment``, ``seed`` and ``workers``, which are options of their
    own.  Construction builds the grid's cells (``_cells_for``), so a grid
    that no replicate could run raises ``ValueError`` here.
    """

    experiment: str
    p: int = 10
    n: int = 200
    M: int = 1000
    v: float = 1.0
    ells: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    families: tuple[RadialFamily, ...] = (RadialFamily.gaussian(),)
    alphas: tuple[float, ...] = (0.05,)
    ks: tuple[int, ...] = tuple(range(0, 21, 5))
    vgrid: tuple[float, ...] = (0.0, 2.0, 4.0, 6.0, 8.0)
    cgrid: tuple[float, ...] = (0.5, 0.75, 1.0, 1.5, 2.0)
    limit_M: int = 100_000
    seed: int = 20260815
    workers: int = 1
    pseudo: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}")
        if self.M < 1 or self.limit_M < 1:
            raise ValueError("replicate counts must be at least 1")
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for a in self.alphas:
            _check_alpha(a)
        if not self.alphas:
            raise ValueError("alpha grid must be non-empty")
        if not _cells_for(self):
            raise ValueError("experiment grid must be non-empty")


@dataclass(frozen=True)
class CellRow:
    """One output row: a rejection frequency (or analytic prediction)."""

    experiment: str
    cell: tuple[tuple[str, str], ...]  # ordered (name, formatted value)
    test: str
    alpha: float
    freq: float
    se: float
    M: int
    seed: int


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated grid results plus the configuration that produced them."""

    config: ExperimentConfig
    rows: tuple[CellRow, ...]
    degenerate: tuple[tuple[str, int], ...] = ()
    wall_time: float = 0.0
    # OpenBLAS libraries whose thread count the replicates ran capped at 1.
    blas_capped: int = 0

    def to_csv(self) -> str:
        if not self.rows:
            return ""
        names = [name for name, _ in self.rows[0].cell]
        header = ["experiment", *names, "test", "alpha", "freq", "se", "M", "seed"]
        lines = [",".join(header)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        r.experiment,
                        *[value for _, value in r.cell],
                        r.test,
                        _fmt(r.alpha),
                        _fmt(r.freq),
                        _fmt(r.se),
                        str(r.M),
                        str(r.seed),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        c = self.config
        lines = [
            f"experiment: {c.experiment}",
            f"p: {c.p}",
            f"n: {c.n}",
            f"M: {c.M}",
            f"v: {_fmt(c.v)}",
            f"alphas: {','.join(_fmt(a) for a in c.alphas)}",
            f"families: {','.join(f.label for f in c.families)}",
            f"seed: {c.seed}",
            f"workers: {c.workers}",
        ]
        grid = GRIDS[c.experiment]
        lines.append(f"{grid}: {','.join(_fmt(x) for x in getattr(c, grid))}")
        if self.degenerate:
            lines.append("degenerate replicates:")
            for label, count in self.degenerate:
                lines.append(f"  {label}: {count}")
        else:
            lines.append("degenerate replicates: none")
        lines.append(f"rows: {len(self.rows)}")
        if self.blas_capped:
            lines.append(f"blas_threads: 1 ({self.blas_capped} OpenBLAS libraries capped)")
        else:
            lines.append("blas_threads: library default (no OpenBLAS found)")
        lines.append(f"wall_time_s: {self.wall_time:.3f}")
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


# ---------------------------------------------------------------------------
# Grid cells and per-replicate statistics.  ``_cells_for`` is the one
# place that decides what each experiment kind computes; everything after
# it reads the cell records.  Everything here is deterministic in
# (config, cell_index, replicate_index) so that any scheduling of chunks
# reproduces the same statistics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Cell:
    """One grid cell.

    ``draw(rng) -> (X, θ⁰)`` takes one replicate's data matrix and null
    direction from ``rng``; its model, family and θ⁰ are built with the
    cell.  A cell holds a closure, so it is never pickled: a pool worker
    rebuilds the cells from the config.
    """

    value: float  # the grid value: ell, k, v or c
    label: str  # the cell's key in the degenerate counts
    columns: tuple[tuple[str, str], ...]  # leading CSV columns
    tests: tuple[tuple[str, int], ...]  # (test name, degrees of freedom)
    draw: Callable


def _cells_for(config: ExperimentConfig) -> list[_Cell]:
    """The cells of ``config``'s grid, in output order.

    Raises ``ValueError`` for a grid that no replicate could run, so that
    ``ExperimentConfig`` refuses it before any replicate runs.
    """
    n, p = config.n, config.p
    if config.experiment == "highdim":
        return [_highdim_cell(n, c) for c in config.cgrid]
    if n < p + 1:
        raise ValueError("need n >= p+1 so the sample covariance is nonsingular")
    theta0 = _e1(p)
    if config.experiment == "null":
        cells = []
        for family in config.families:
            tests = (("anderson", p - 1), ("hpv", p - 1))
            if config.pseudo or family.kind != "gaussian":
                tests += (("anderson_pseudo", p - 1), ("hpv_pseudo", p - 1))
            for ell in config.ells:
                model = SpikedModel(
                    p=p, sigma=1.0, v=config.v, rate=SpikeRate.exponent(ell), theta1=theta0
                )
                cells.append(
                    _Cell(
                        ell,
                        f"family={family.label} ell={ell}",
                        (("family", family.label), ("ell", str(ell))),
                        tests,
                        _sampling_draw(model, n, family, theta0),
                    )
                )
        return cells
    # Power and regime3 cells sit on the boundary r_n = n^(−1/2), with
    # Gaussian data.
    boundary, gaussian = SpikeRate.exponent(3), RadialFamily.gaussian()
    cells = []
    if config.experiment == "power":
        for k in config.ks:
            if not 0 <= k <= 20:
                # Past k = 20 the chord ‖τ‖ = 2 sin(kπ/80) leaves [0, √2].
                raise ValueError("power grid ks must lie in 0..20")
            angle = k * math.pi / 40.0
            theta1 = np.zeros(p)
            theta1[:2] = math.cos(angle), math.sin(angle)
            model = SpikedModel(p=p, sigma=1.0, v=config.v, rate=boundary, theta1=theta1)
            cells.append(
                _Cell(
                    k,
                    f"k={k}",
                    (("k", str(k)), ("tau_norm", _fmt(_tau_norm(k)))),
                    (("hpv", p - 1), ("oracle", p)),
                    _sampling_draw(model, n, gaussian, theta0),
                )
            )
        return cells
    for v in config.vgrid:
        if v == 0.0:
            draw = lambda rng: (rng.standard_normal((n, p)), theta0)
        else:
            model = SpikedModel(p=p, sigma=1.0, v=v, rate=boundary, theta1=theta0)
            draw = _sampling_draw(model, n, gaussian, theta0)
        cells.append(_Cell(v, f"v={_fmt(v)}", (("v", _fmt(v)),), (("anderson", p - 1),), draw))
    return cells


def _highdim_cell(n: int, c: float) -> _Cell:
    """Σ = I_p + θ₀θ₀ᵀ, a fixed unit spike, with p = c·n (at least 2)."""
    if not 0.0 < c < math.inf:
        raise ValueError("highdim grid cgrid values must be positive and finite")
    if not math.isfinite(c * n):
        raise ValueError(f"highdim grid cgrid value {c} gives p = c*n beyond the float range")
    pc = max(2, int(round(c * n)))
    label, columns = f"c={_fmt(c)}", (("c", _fmt(c)), ("p", str(pc)))
    if pc >= n:

        def singular(rng):
            # The sample covariance has rank at most n − 1 < p: neither
            # statistic is defined, so the replicate is degenerate by design.
            raise DegeneracyError(f"p = {pc} >= n = {n}: sample covariance is singular")

        return _Cell(c, label, columns, (("hpv", pc - 1),), singular)
    theta0 = _e1(pc)

    def draw(rng):
        G = rng.standard_normal((n, pc))
        # Only column 0 carries the spike: G + G[:, 0](√2 − 1)θ₀ᵀ.
        G[:, 0] += G[:, 0] * (math.sqrt(2.0) - 1.0)
        return G, theta0

    return _Cell(c, label, columns, (("anderson", pc - 1), ("hpv", pc - 1)), draw)


def _sampling_draw(model: SpikedModel, n: int, family: RadialFamily, theta0: np.ndarray):
    return lambda rng: (sample(model, n, family, rng), theta0)


# ``bench/checks.py`` reads cells through these two.
def _cell_label(config: ExperimentConfig, cell: _Cell) -> str:
    return cell.label


def _cell_columns(config: ExperimentConfig, cell: _Cell) -> tuple[tuple[str, str], ...]:
    return cell.columns


def _tau_norm(k: int) -> float:
    # ‖θ₁(k) − e₁‖ for θ₁(k) = (cos(kπ/40), sin(kπ/40), 0, ...).
    return 2.0 * math.sin(k * math.pi / 80.0)


def _e1(p: int) -> np.ndarray:
    theta = np.zeros(p)
    theta[0] = 1.0
    return theta


def _replicate_stats(config: ExperimentConfig, cell: _Cell, rng, row: np.ndarray) -> None:
    """Write into ``row``, in the order of ``cell.tests``, the statistics
    it lists, on the replicate ``cell.draw`` takes from ``rng``.  A
    ``*_pseudo`` test follows the test it corrects, and κ̂ is computed
    once, only when one is listed."""
    X, theta0 = cell.draw(rng)
    s = summarize(X)
    kappa_hat = None
    for i, (name, df) in enumerate(cell.tests):
        if name == "anderson":
            row[i] = anderson_statistic(s, theta0, 1)
        elif name == "hpv":
            row[i] = hpv_statistic(s, theta0, 1)
        elif name == "oracle":
            sigma_null = np.eye(config.p) + config.n ** (-0.5) * config.v * np.outer(theta0, theta0)
            row[i] = oracle_statistic(s, theta0, sigma_null)
        else:
            if kappa_hat is None:
                kappa_hat = kurtosis_from_summary(s, X)
            corrected = cell.tests.index((name.removesuffix("_pseudo"), df))
            row[i] = pseudo_gaussian(row[corrected], kappa_hat)


# ---------------------------------------------------------------------------
# Chunked execution
# ---------------------------------------------------------------------------


def _chunk_statistics(config: ExperimentConfig, cell_index: int, lo: int, hi: int) -> np.ndarray:
    """Statistics of replicates [lo, hi) of one cell: one row per replicate,
    in order, and one column per test of ``cell.tests``.  A replicate that
    raised ``DegeneracyError`` gives a row of nan."""
    cell = _cells_for(config)[cell_index]
    out = np.full((hi - lo, len(cell.tests)), np.nan)
    for row, rep in zip(out, range(lo, hi)):
        rng = make_rng(np.random.SeedSequence((config.seed, cell_index, rep)))
        try:
            _replicate_stats(config, cell, rng, row)
        except DegeneracyError:
            row[:] = np.nan
    return out


# OpenBLAS entry points that set its thread count, by build: scipy-openblas
# with 64-bit integers (numpy's wheels), with 32-bit integers (scipy's
# wheels), then plain OpenBLAS with and without the 64-bit suffix.
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


# glibc ``mallopt`` parameters, and the values each pool worker gives
# them: the largest mmap threshold glibc accepts on 64-bit, so that n×p
# blocks come from the heap, and a trim threshold above it, so that
# freeing them does not hand the memory back to the kernel for the next
# replicate to fault in again.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_WORKER_MMAP_THRESHOLD = 32 * 2**20
_WORKER_TRIM_THRESHOLD = 64 * 2**20


def _openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS shared libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}
    return sorted(p for p in paths if "openblas" in p.rpartition("/")[2].lower())


def _openblas_thread_controls() -> dict[str, tuple]:
    """(get-threads, set-threads) entry points of each loaded OpenBLAS, by
    path.  A library without a get-threads entry point that matches its
    set-threads one is left out: its count could not be restored."""
    controls = {}
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SET_THREADS:
            set_threads = getattr(lib, name, None)
            get_threads = getattr(lib, name.replace("_set_", "_get_"), None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                controls[path] = (get_threads, set_threads)
                break
    return controls


def _set_blas_threads(threads: int | dict[str, int]) -> dict[str, int]:
    """Set the thread count of every loaded OpenBLAS; return the previous
    counts, by library path.

    ``threads`` is one count for every library, or the dict an earlier
    call returned, which restores the counts it holds.  The count is
    per process, so other threads of the caller share it.  Does nothing
    where no OpenBLAS is found.
    """
    previous = {}
    for path, (get_threads, set_threads) in _openblas_thread_controls().items():
        n = threads if isinstance(threads, int) else threads.get(path)
        if n is not None:
            previous[path] = get_threads()
            set_threads(n)
    return previous


def _keep_freed_heap() -> None:
    """Make glibc's malloc keep freed blocks of up to 32 MiB in this
    process's heap.

    A ``mallopt`` call turns off glibc's dynamic thresholds for the rest
    of the process and cannot be undone, so only pool workers make it.
    Does nothing where libc has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no libc handle or no mallopt
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD)


def _init_worker() -> None:
    """Pool worker initializer: one BLAS thread and no idle OpenBLAS
    helper threads, and a heap that keeps the n×p blocks each replicate
    frees.

    Setting a count in a forked process first restarts that OpenBLAS's
    helper threads, which spin on the cores before they sleep.  Each
    library's own pre-fork handler, ``blas_thread_shutdown_``, stops them
    again; a call on one thread never restarts them.  A library that
    cannot be loaded or lacks the handler keeps its helpers: a raising
    initializer would break the pool.
    """
    for path in _set_blas_threads(1):
        try:
            ctypes.CDLL(path).blas_thread_shutdown_()
        except (OSError, AttributeError):
            pass
    _keep_freed_heap()


def _run_cells(config: ExperimentConfig):
    """Execute all cells; return (cells, each cell's ``_chunk_statistics``
    over all its replicates, number of OpenBLAS libraries the replicates
    ran capped at one thread)."""
    cells = _cells_for(config)
    chunk = config.M if config.workers == 1 else max(1, math.ceil(config.M / (config.workers * 4)))
    starts = range(0, config.M, chunk)
    # One job per chunk, cell by cell: (config, cell_index, lo, hi).
    jobs = [
        (config, ci, lo, min(lo + chunk, config.M)) for ci in range(len(cells)) for lo in starts
    ]

    def _inline() -> tuple[list[np.ndarray], int]:
        # One BLAS thread for the chunks, then the caller's counts again.
        previous = _set_blas_threads(1)
        try:
            return list(map(_chunk_statistics, *zip(*jobs))), len(previous)
        finally:
            _set_blas_threads(previous)

    if config.workers == 1:
        chunks, capped = _inline()
    else:
        # The grid process only waits on its workers, so its own counts
        # stay as they are: any count set once the pool has forked
        # restarts OpenBLAS's helper threads, which spin on the caller's
        # cores.
        capped = len(_openblas_thread_controls())
        # Each worker caps its OpenBLAS at one thread, so parallelism
        # comes from the worker count alone.  Workers fork after numpy has
        # loaded OpenBLAS, so an environment variable set then is never
        # read, and each worker would run one BLAS thread per core.  The
        # cap restarts the helpers in the worker too, so the worker stops
        # them again.  Each worker also keeps its freed heap; the grid
        # process's allocator belongs to the caller and is left alone.
        # The pool stack (multiprocessing, socket, subprocess) and logging
        # load here, so that one-process grids never import them.
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=config.workers, initializer=_init_worker) as pool:
                chunks = list(pool.map(_chunk_statistics, *zip(*jobs)))
        except OSError as exc:  # stripped-down environments
            import logging

            logging.getLogger(__name__).warning(
                "process pool unavailable (%s); running inline", exc
            )
            chunks, capped = _inline()
    # Both maps return chunks in job order, so a cell's chunks are one run.
    k = len(starts)
    stats = [np.concatenate(chunks[ci * k : (ci + 1) * k]) for ci in range(len(cells))]
    return cells, stats, capped


def _row(config: ExperimentConfig, cell: _Cell, test: str, alpha, freq, se, M: int) -> CellRow:
    return CellRow(config.experiment, cell.columns, test, alpha, freq, se, M, config.seed)


def _freq_rows(config: ExperimentConfig, cells, stats) -> tuple[list[CellRow], list]:
    rows: list[CellRow] = []
    degenerate = []
    for cell, values in zip(cells, stats):
        # ``nan > crit`` is False: a replicate with a non-finite or a
        # negative statistic is degenerate, never a non-rejection.  No
        # statistic rounds below zero, so a negative one is a defect.
        ok = (np.isfinite(values) & (values >= 0.0)).all(axis=1)
        valid = int(ok.sum())
        if valid < config.M:
            degenerate.append((cell.label, config.M - valid))
        for column, (name, df) in zip(values[ok].T, cell.tests):
            for alpha in config.alphas:
                hits = int((column > chi2_quantile(1.0 - alpha, df)).sum())
                freq = hits / valid if valid else float("nan")
                se = math.sqrt(freq * (1.0 - freq) / valid) if valid else float("nan")
                rows.append(_row(config, cell, name, alpha, freq, se, valid))
    return rows, degenerate


def _power_prediction_rows(config: ExperimentConfig, cells) -> list[CellRow]:
    rows = []
    for cell in cells:
        tau = _tau_norm(cell.value)
        for name, df, ncp in (
            ("hpv_asymptotic", config.p - 1, ncp_hpv_iii(config.v, tau)),
            ("oracle_asymptotic", config.p, ncp_oracle_iii(config.v, tau)),
        ):
            for alpha in config.alphas:
                freq = asymptotic_power(df, ncp, alpha)
                rows.append(_row(config, cell, name, alpha, freq, 0.0, 0))
    return rows


def _limit_law_rows(config: ExperimentConfig, cells) -> list[CellRow]:
    rows = []
    for ci, cell in enumerate(cells):
        for alpha in config.alphas:
            rng = make_rng(np.random.SeedSequence((config.seed, ci, 2**32)))
            est = type1_risk_iii(config.p, cell.value, alpha, config.limit_M, rng)
            rows.append(_row(config, cell, "anderson_limit", alpha, est.risk, est.se, est.M))
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the grid ``config.experiment`` names, one cell per grid value.

    Every grid emits one rejection-frequency row per cell, test and level:

    * ``null`` (``ells`` × ``families``): ``anderson`` and ``hpv``, plus
      ``anderson_pseudo`` and ``hpv_pseudo`` for a non-Gaussian family or
      ``pseudo=True``.
    * ``power`` (``ks``): ``hpv`` and ``oracle`` against the boundary
      alternative θ₁(k) = (cos(kπ/40), sin(kπ/40), 0, …), followed by the
      noncentral-χ² predictions ``hpv_asymptotic`` and
      ``oracle_asymptotic`` (SE 0, M 0).
    * ``regime3`` (``vgrid``): ``anderson`` on the boundary, followed by
      the limit-law risk estimate ``anderson_limit`` (M = ``limit_M``).
    * ``highdim`` (``cgrid``, p = c·n): ``hpv``, and ``anderson`` while
      p < n.  Once p ≥ n the sample covariance is singular, every
      replicate of the cell is degenerate, and its ``hpv`` row has
      ``M = 0`` and ``freq = nan``.
    """
    start = time.perf_counter()
    cells, stats, capped = _run_cells(config)
    rows, degenerate = _freq_rows(config, cells, stats)
    if config.experiment == "power":
        rows += _power_prediction_rows(config, cells)
    elif config.experiment == "regime3":
        rows += _limit_law_rows(config, cells)
    return ExperimentResult(
        config=config,
        rows=tuple(rows),
        degenerate=tuple(degenerate),
        wall_time=time.perf_counter() - start,
        blas_capped=capped,
    )
