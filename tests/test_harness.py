"""Monte Carlo harness: configuration, determinism, output shape."""

import builtins
import ctypes
import json
import math
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from spikedcov import harness
from spikedcov.cli import main
from spikedcov.harness import (
    ExperimentConfig,
    run_experiment,
    _tau_norm,
)
from spikedcov.model import RadialFamily
from test_fresh_process import run_fresh


def tiny_null_config(**kw):
    defaults = dict(
        experiment="null", p=3, n=60, M=40, ells=(0, 5), alphas=(0.05, 0.2), seed=424242
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def blas_thread_entry_points() -> list[tuple]:
    """(get-threads, set-threads) ctypes functions of every OpenBLAS loaded
    in this process whose set-threads entry point has a get-threads match."""
    out = []
    for path in harness._openblas_libraries():
        lib = ctypes.CDLL(path)
        for name in harness._OPENBLAS_SET_THREADS:
            get_threads = getattr(lib, name.replace("_set_", "_get_"), None)
            if get_threads is not None:
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                set_threads = getattr(lib, name)
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                out.append((get_threads, set_threads))
                break
    return out


def blas_threads() -> list[int]:
    """Thread count of every OpenBLAS loaded in this process, read through
    the get-threads entry point that matches its set-threads one."""
    return [get_threads() for get_threads, _ in blas_thread_entry_points()]


def blas_threads_chunk(config, cell_index, lo, hi):
    """Stands in for ``_chunk_counts``: reports the worker's BLAS threads."""
    return np.array(blas_threads(), dtype=np.int64), 0


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS of this process set to 2 threads for the test, then
    put back to the counts it had."""
    entry_points = blas_thread_entry_points()
    if not entry_points:
        pytest.skip("no OpenBLAS with a get-threads entry point is loaded")
    before = blas_threads()
    for _, set_threads in entry_points:
        set_threads(2)
    yield
    for (_, set_threads), count in zip(entry_points, before):
        set_threads(count)


def no_proc_maps(monkeypatch):
    """Make ``/proc/self/maps`` unreadable until ``monkeypatch.undo()``."""
    real_open = builtins.open

    def no_maps(file, *args, **kwargs):
        if file == "/proc/self/maps":
            raise PermissionError(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", no_maps)


def keep_freed_heap_calls_chunk(config, cell_index, lo, hi):
    """Stands in for ``_chunk_counts``: reports how often the process has
    called the recording ``_keep_freed_heap`` a test put in place."""
    return np.array([len(harness._keep_freed_heap.calls)]), 0


def glibc_mallopt() -> bool:
    """Whether this process's libc is glibc and has ``mallopt``."""
    try:
        return platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Runs a pooled grid whose chunks each return the worker's minor page
# faults over 19 allocations of a 20 000 × 10 array after a first one.  A
# fresh interpreter, because a forked worker inherits the heap thresholds
# that glibc has raised in its parent, and the test session has freed
# large arrays of its own.
HEAP_FAULTS_GRID = """
import json, resource
import numpy as np
from spikedcov import harness

def heap_faults(config, cell_index, lo, hi):
    np.ones((20_000, 10))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(19):
        np.ones((20_000, 10))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return np.array([faults]), 0

harness._chunk_counts = heap_faults
cfg = harness.ExperimentConfig("null", p=3, n=60, M=2, ells=(0, 5), workers=2)
_, results, _ = harness._run_cells(cfg)
print(json.dumps([int(results[ci][0][0]) for ci in sorted(results)]))
"""


class TestPoolWorkers:
    def test_pooled_worker_keeps_freed_heap(self):
        if not glibc_mallopt():
            pytest.skip("libc is not glibc, or has no mallopt")
        faults = json.loads(run_fresh(HEAP_FAULTS_GRID).splitlines()[-1])
        # Each cell sums two one-replicate chunks.  One array is 391 pages;
        # a worker that handed it back would fault them in again.
        assert len(faults) == 2
        assert max(faults) < 40, faults

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_process_allocator_left_alone(self, monkeypatch, workers):
        keep_freed_heap = harness._keep_freed_heap

        def recording():
            # A forked worker appends to its own copy of ``calls``.
            recording.calls.append(True)
            keep_freed_heap()

        recording.calls = []
        monkeypatch.setattr(harness, "_keep_freed_heap", recording)
        monkeypatch.setattr(harness, "_chunk_counts", keep_freed_heap_calls_chunk)
        _, results, _ = harness._run_cells(tiny_null_config(M=4, ells=(0,), workers=workers))
        assert recording.calls == []
        # A pooled worker made the call once, as it started; the grid
        # process's own chunks see none.
        assert results[0][0].tolist() == [4 if workers > 1 else 0]

    def test_pooled_worker_runs_one_blas_thread(self, monkeypatch):
        if not blas_threads():
            pytest.skip("no OpenBLAS with a get-threads entry point is loaded")
        monkeypatch.setattr(harness, "_chunk_counts", blas_threads_chunk)
        cfg = tiny_null_config(M=4, ells=(0,), workers=2)
        _, results, _ = harness._run_cells(cfg)
        counts, _ = results[0]
        # Four one-replicate chunks, each reporting its worker's threads.
        np.testing.assert_array_equal(counts, np.full(len(blas_threads()), 4))

    def test_initializer_survives_openblas_without_shutdown(self, monkeypatch, tmp_path):
        # scipy's LAPACK maps an OpenBLAS of its own, so the patch below
        # covers two libraries.
        from scipy.linalg import lapack  # noqa: F401
        libraries = harness._openblas_libraries()
        if not blas_threads():
            pytest.skip("no OpenBLAS with a get-threads entry point is loaded")
        cfg = tiny_null_config(M=4, ells=(0,))
        one = run_experiment(cfg).to_csv()
        log = tmp_path / "denied.txt"
        real_cdll = ctypes.CDLL

        class WithoutShutdown:
            """A loaded library that does not export ``blas_thread_shutdown_``."""

            def __init__(self, lib):
                self.lib = lib

            def __getattr__(self, name):
                if name == "blas_thread_shutdown_":
                    with open(log, "a") as f:
                        f.write("missing\n")
                    raise AttributeError(name)
                return getattr(self.lib, name)

        def cdll(name, *args, **kwargs):
            # The first OpenBLAS lacks the symbol; every other one fails to
            # load when the initializer loads it to stop its helpers.  A
            # forked worker inherits the patch and appends to the same log.
            if name == libraries[0]:
                return WithoutShutdown(real_cdll(name, *args, **kwargs))
            if name in libraries and sys._getframe(1).f_code is harness._init_worker.__code__:
                with open(log, "a") as f:
                    f.write("oserror\n")
                raise OSError(f"{name}: cannot open shared object file")
            return real_cdll(name, *args, **kwargs)

        monkeypatch.setattr(harness.ctypes, "CDLL", cdll)
        pooled = run_experiment(replace(cfg, workers=2)).to_csv()
        monkeypatch.setattr(harness, "_chunk_counts", blas_threads_chunk)
        _, results, _ = harness._run_cells(replace(cfg, workers=2))
        denied = log.read_text().split()
        monkeypatch.undo()
        assert pooled == one
        # Four one-replicate chunks, each reporting 1 thread per library.
        np.testing.assert_array_equal(results[0][0], np.full(len(blas_threads()), 4))
        # Each worker was denied the shutdown of every library it capped.
        assert denied.count("missing") > 0
        assert denied.count("oserror") == denied.count("missing") * (len(libraries) - 1)

    def test_initializer_is_noop_without_maps(self, monkeypatch):
        before = blas_threads()
        no_proc_maps(monkeypatch)
        assert harness._openblas_libraries() == []
        harness._set_blas_threads(1)
        monkeypatch.undo()
        assert blas_threads() == before

    def test_pooled_pseudo_student_grid_matches_one_process(self):
        cfg = tiny_null_config(
            M=30, families=(RadialFamily.student_t(6),), ells=(0, 3), pseudo=True
        )
        one = run_experiment(cfg).to_csv()
        assert "hpv_pseudo" in one
        assert run_experiment(replace(cfg, workers=2)).to_csv() == one

    def test_one_process_grid_runs_one_blas_thread_and_restores(
        self, monkeypatch, two_blas_threads
    ):
        monkeypatch.setattr(harness, "_chunk_counts", blas_threads_chunk)
        cfg = tiny_null_config(ells=(0, 5), workers=1)
        _, results, capped = harness._run_cells(cfg)
        libraries = len(blas_threads())
        assert capped == libraries
        # One chunk per cell, each reporting 1 thread per library.
        for ci in (0, 1):
            counts, _ = results[ci]
            np.testing.assert_array_equal(counts, np.ones(libraries))
        assert blas_threads() == [2] * libraries

    def test_counts_restored_when_a_chunk_raises(self, monkeypatch, two_blas_threads):
        def failing_chunk(config, cell_index, lo, hi):
            assert blas_threads() == [1] * len(blas_threads())
            raise RuntimeError("chunk failed")

        monkeypatch.setattr(harness, "_chunk_counts", failing_chunk)
        with pytest.raises(RuntimeError, match="chunk failed"):
            harness._run_cells(tiny_null_config(workers=1))
        assert blas_threads() == [2] * len(blas_threads())

    def test_pooled_grid_leaves_grid_process_threads_alone(self, monkeypatch, two_blas_threads):
        calls = []
        set_blas_threads = harness._set_blas_threads

        def recording(threads):
            # A forked worker appends to its own copy of ``calls``.
            calls.append(threads)
            return set_blas_threads(threads)

        monkeypatch.setattr(harness, "_set_blas_threads", recording)
        monkeypatch.setattr(harness, "_chunk_counts", blas_threads_chunk)
        cfg = tiny_null_config(M=4, ells=(0,), workers=2)
        _, results, capped = harness._run_cells(cfg)
        libraries = len(blas_threads())
        assert calls == []
        assert capped == libraries
        np.testing.assert_array_equal(results[0][0], np.full(libraries, 4))
        assert blas_threads() == [2] * libraries

    def test_one_process_grid_without_maps_gives_same_csv(self, monkeypatch):
        cfg = tiny_null_config(workers=1)
        expected = run_experiment(cfg).to_csv()
        no_proc_maps(monkeypatch)
        result = run_experiment(cfg)
        monkeypatch.undo()
        assert result.to_csv() == expected
        assert result.blas_capped == 0
        assert "blas_threads: library default (no OpenBLAS found)" in result.to_text()


# Grids that no replicate could run, each with one bad value.
UNRUNNABLE_GRIDS = [
    ("highdim", {"cgrid": (-1.0,)}),
    ("highdim", {"cgrid": (0.5, math.nan)}),
    ("highdim", {"cgrid": (math.inf,)}),
    ("highdim", {"cgrid": (1e307,)}),
    ("regime3", {"vgrid": (math.inf,)}),
    ("regime3", {"vgrid": (0.0, 2.0, -1.0)}),
    ("null", {"p": 10, "n": 10}),
    ("power", {"p": 10, "n": 10}),
    ("regime3", {"p": 10, "n": 10}),
    ("null", {"ells": (0, 7)}),
    ("null", {"v": 0.0}),
    ("power", {"v": -1.0}),
    ("null", {"v": math.inf}),
]


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="bogus")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="null", M=0)
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="null", workers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="null", p=1)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="null", alphas=(0.05, 1.0))
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="null", alphas=())

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="power", ks=())

    @pytest.mark.parametrize("ks", [(0, 21), (-1,), (0, 25)])
    def test_power_ks_outside_hemisphere(self, ks):
        # ‖τ‖ = 2 sin(kπ/80) leaves [0, √2] outside 0..20: the config is
        # refused before any replicate runs.
        with pytest.raises(ValueError, match="0..20"):
            ExperimentConfig(experiment="power", ks=ks)
        # Only the power grid reads ks.
        ExperimentConfig(experiment="null", ks=ks)

    @pytest.mark.parametrize(
        "experiment, settings",
        UNRUNNABLE_GRIDS,
        ids=[f"{kind}-{settings}" for kind, settings in UNRUNNABLE_GRIDS],
    )
    def test_grid_that_cannot_run_is_refused_before_any_replicate(
        self, experiment, settings, monkeypatch, tmp_path
    ):
        def no_chunk(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(harness, "_chunk_counts", no_chunk)
        with pytest.raises(ValueError):
            ExperimentConfig(experiment=experiment, **settings)
        args = ["simulate", "--experiment", experiment, "--out", str(tmp_path / "grid")]
        for key, value in settings.items():
            raw = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            args += ["--set", f"{key}={raw}"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert list(tmp_path.glob("*.csv")) == []

    def test_tau_norm_chord_length(self):
        assert _tau_norm(0) == 0.0
        # ||theta1(k) - e1|| = 2 sin(k pi / 80)
        for k in (5, 10, 20):
            angle = k * math.pi / 40.0
            theta1 = np.array([math.cos(angle), math.sin(angle)])
            assert _tau_norm(k) == pytest.approx(np.linalg.norm(theta1 - [1.0, 0.0]))
        assert _tau_norm(20) == pytest.approx(math.sqrt(2.0))


class TestNullGrid:
    def test_structure_and_determinism(self):
        cfg = tiny_null_config()
        res1 = run_experiment(cfg)
        res2 = run_experiment(cfg)
        csv1, csv2 = res1.to_csv(), res2.to_csv()
        assert csv1 == csv2  # byte-identical rerun
        lines = csv1.strip().split("\n")
        assert lines[0] == "experiment,family,ell,test,alpha,freq,se,M,seed"
        # 2 cells x 2 tests x 2 alphas
        assert len(lines) == 1 + 2 * 2 * 2
        for line in lines[1:]:
            parts = line.split(",")
            assert parts[0] == "null"
            freq, se, m = float(parts[5]), float(parts[6]), int(parts[7])
            assert 0.0 <= freq <= 1.0
            assert se >= 0.0
            assert m <= cfg.M
            assert parts[8] == "424242"

    def test_worker_count_does_not_change_output(self):
        cfg1 = tiny_null_config(M=60)
        cfg3 = tiny_null_config(M=60, workers=3)
        assert run_experiment(cfg1).to_csv() == run_experiment(cfg3).to_csv()

    def test_seed_changes_output(self):
        a = run_experiment(tiny_null_config()).to_csv()
        b = run_experiment(tiny_null_config(seed=7)).to_csv()
        assert a != b

    def test_pseudo_rows_for_student_family(self):
        cfg = tiny_null_config(
            M=20, families=(RadialFamily.student_t(6),), ells=(0,), alphas=(0.1,)
        )
        res = run_experiment(cfg)
        tests = {r.test for r in res.rows}
        assert tests == {"anderson", "hpv", "anderson_pseudo", "hpv_pseudo"}
        assert all(dict(r.cell)["family"] == "t6" for r in res.rows)

    def test_text_echo(self):
        res = run_experiment(tiny_null_config())
        text = res.to_text()
        assert "seed: 424242" in text
        assert "ells: 0,5" in text
        assert "wall_time_s:" in text
        assert "degenerate replicates" in text
        libraries = len(blas_threads())
        if libraries:
            assert f"blas_threads: 1 ({libraries} OpenBLAS libraries capped)" in text
        else:
            assert "blas_threads: library default (no OpenBLAS found)" in text
        assert "blas" not in res.to_csv()


class TestPowerGrid:
    def test_predicted_rows(self):
        cfg = ExperimentConfig(
            experiment="power", p=2, n=400, M=50, ks=(0, 20), alphas=(0.05,), seed=99
        )
        res = run_experiment(cfg)
        named = {}
        for r in res.rows:
            named.setdefault(r.test, []).append(r)
        assert set(named) == {"hpv", "oracle", "hpv_asymptotic", "oracle_asymptotic"}
        for r in named["hpv_asymptotic"] + named["oracle_asymptotic"]:
            assert r.se == 0.0 and r.M == 0
        # at k=0 the alternative is the null: predicted power equals alpha
        k0 = [r for r in named["hpv_asymptotic"] if dict(r.cell)["k"] == "0"]
        assert k0[0].freq == pytest.approx(0.05, abs=1e-12)
        # tau_norm column carries the chord length
        k20 = [r for r in named["hpv"] if dict(r.cell)["k"] == "20"]
        assert float(dict(k20[0].cell)["tau_norm"]) == pytest.approx(math.sqrt(2.0))


class TestRegime3:
    def test_limit_rows_alongside_finite_n(self):
        cfg = ExperimentConfig(
            experiment="regime3",
            p=2,
            n=150,
            M=40,
            vgrid=(0.0, 4.0),
            alphas=(0.05,),
            limit_M=4000,
            seed=5,
        )
        res = run_experiment(cfg)
        tests = {r.test for r in res.rows}
        assert tests == {"anderson", "anderson_limit"}
        limit_rows = [r for r in res.rows if r.test == "anderson_limit"]
        assert all(r.M == 4000 for r in limit_rows)
        by_v = {dict(r.cell)["v"]: r.freq for r in limit_rows}
        # the limiting size is far above nominal at v=0 and falls with v
        assert by_v["0"] > 0.25
        assert by_v["4"] < by_v["0"]


class TestHighDim:
    def test_anderson_dropped_when_p_exceeds_n(self):
        cfg = ExperimentConfig(
            experiment="highdim", n=40, M=25, cgrid=(0.5, 1.5), alphas=(0.05,), seed=31
        )
        res = run_experiment(cfg)
        cells = {}
        for r in res.rows:
            cells.setdefault(dict(r.cell)["c"], set()).add(r.test)
        assert cells["0.5"] == {"anderson", "hpv"}  # p = 20 < n
        assert cells["1.5"] == {"hpv"}  # p = 60 >= n: singular covariance
        p_col = {dict(r.cell)["c"]: dict(r.cell)["p"] for r in res.rows}
        assert p_col == {"0.5": "20", "1.5": "60"}
        # p >= n: every replicate is degenerate, none is counted as a decision
        assert dict(res.degenerate) == {"c=1.5": 25}
        (singular,) = [r for r in res.rows if dict(r.cell)["c"] == "1.5"]
        assert singular.M == 0
        assert math.isnan(singular.freq) and math.isnan(singular.se)
        assert all(r.M == 25 for r in res.rows if dict(r.cell)["c"] == "0.5")

    def test_raw_spectrum_path_matches_summarize_path(self):
        # p >= n cells are degenerate and never reach a statistic; at
        # p = 54, just below n = 60, every replicate goes through summarize
        # and must give a valid, sane frequency
        cfg = ExperimentConfig(
            experiment="highdim", n=60, M=30, cgrid=(0.9,), alphas=(0.5,), seed=8
        )
        res = run_experiment(cfg)
        hpv = [r for r in res.rows if r.test == "hpv"][0]
        assert 0.0 < hpv.freq < 1.0
        assert hpv.M == 30 and res.degenerate == ()

    def test_non_finite_statistic_counted_as_degenerate(self, monkeypatch):
        calls = iter([float("nan"), math.inf, 1e9, 0.0])

        def fake_stats(config, cell, rng):
            return {"anderson": 0.0, "hpv": next(calls)}

        monkeypatch.setattr(harness, "_replicate_stats", fake_stats)
        cfg = ExperimentConfig(
            experiment="highdim", n=60, M=4, cgrid=(0.5,), alphas=(0.05,), seed=8
        )
        res = run_experiment(cfg)
        assert dict(res.degenerate) == {"c=0.5": 2}
        hpv = [r for r in res.rows if r.test == "hpv"][0]
        assert hpv.M == 2 and hpv.freq == 0.5

    def test_negative_statistic_counted_as_degenerate(self, monkeypatch):
        # -5 and -1e-6 are not rounding; -1e-15 is, and counts as 0
        calls = iter([-5.0, -1e-6, -1e-15, 1e9, 0.0])

        def fake_stats(config, cell, rng):
            return {"anderson": 0.0, "hpv": next(calls)}

        monkeypatch.setattr(harness, "_replicate_stats", fake_stats)
        cfg = ExperimentConfig(
            experiment="highdim", n=60, M=5, cgrid=(0.5,), alphas=(0.05,), seed=8
        )
        res = run_experiment(cfg)
        assert dict(res.degenerate) == {"c=0.5": 2}
        hpv = [r for r in res.rows if r.test == "hpv"][0]
        assert hpv.M == 3 and hpv.freq == pytest.approx(1 / 3)


# One small grid per experiment kind.  The null grid holds a Student-t
# family, so it reports the pseudo-Gaussian tests too; the highdim grid
# holds a cell with p >= n.
KIND_CONFIGS = {
    "null": ExperimentConfig(
        experiment="null", p=3, n=60, M=10, ells=(0, 5),
        families=(RadialFamily.gaussian(), RadialFamily.student_t(6)), alphas=(0.2,), seed=424242,
    ),
    "power": ExperimentConfig(
        experiment="power", p=3, n=400, M=20, ks=(0, 10), alphas=(0.2,), seed=99
    ),
    "regime3": ExperimentConfig(
        experiment="regime3", p=2, n=150, M=10, vgrid=(0.0, 4.0), alphas=(0.05,),
        limit_M=200, seed=5,
    ),
    "highdim": ExperimentConfig(
        experiment="highdim", n=40, M=10, cgrid=(0.5, 1.5), alphas=(0.05,), seed=31
    ),
}


def test_run_experiment_dispatch():
    # Each kind reports the tests of the "tests reported" column of
    # README's Monte Carlo table, where `*_pseudo` stands for both
    # pseudo-Gaussian tests.
    readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    expected = {
        "null": {"anderson", "hpv", "anderson_pseudo", "hpv_pseudo"},
        "power": {"hpv", "oracle", "hpv_asymptotic", "oracle_asymptotic"},
        "regime3": {"anderson", "anderson_limit"},
        "highdim": {"anderson", "hpv"},
    }
    assert set(expected) == set(harness.EXPERIMENTS)
    for kind, names in expected.items():
        (row,) = [line for line in readme if line.startswith(f"| `{kind}`")]
        reported = row.split("|")[3]
        for name in names:
            assert f"`{name}`" in reported or (
                name.endswith("_pseudo") and "`*_pseudo`" in reported
            ), (kind, name)
        assert {r.test for r in run_experiment(KIND_CONFIGS[kind]).rows} == names


# The CSV each grid of KIND_CONFIGS writes, and its to_text() grid line.
# A change to a random stream or a statistic changes these bytes; it must
# say so and update them.
PINNED = {
    "null": (
        "ells: 0,5",
        """experiment,family,ell,test,alpha,freq,se,M,seed
null,gaussian,0,anderson,0.2,0.1,0.09486832981,10,424242
null,gaussian,0,hpv,0.2,0.1,0.09486832981,10,424242
null,gaussian,5,anderson,0.2,0.7,0.1449137675,10,424242
null,gaussian,5,hpv,0.2,0.2,0.1264911064,10,424242
null,t6,0,anderson,0.2,0.5,0.158113883,10,424242
null,t6,0,hpv,0.2,0.5,0.158113883,10,424242
null,t6,0,anderson_pseudo,0.2,0.3,0.1449137675,10,424242
null,t6,0,hpv_pseudo,0.2,0.2,0.1264911064,10,424242
null,t6,5,anderson,0.2,0.7,0.1449137675,10,424242
null,t6,5,hpv,0.2,0.2,0.1264911064,10,424242
null,t6,5,anderson_pseudo,0.2,0.6,0.1549193338,10,424242
null,t6,5,hpv_pseudo,0.2,0.2,0.1264911064,10,424242
""",
    ),
    "power": (
        "ks: 0,10",
        """experiment,k,tau_norm,test,alpha,freq,se,M,seed
power,0,0,hpv,0.2,0.3,0.1024695077,20,99
power,0,0,oracle,0.2,0.4,0.1095445115,20,99
power,10,0.7653668647,hpv,0.2,0.3,0.1024695077,20,99
power,10,0.7653668647,oracle,0.2,0.25,0.09682458366,20,99
power,0,0,hpv_asymptotic,0.2,0.2,0,0,99
power,0,0,oracle_asymptotic,0.2,0.2,0,0,99
power,10,0.7653668647,hpv_asymptotic,0.2,0.2397271803,0,0,99
power,10,0.7653668647,oracle_asymptotic,0.2,0.2485727597,0,0,99
""",
    ),
    "regime3": (
        "vgrid: 0,4",
        """experiment,v,test,alpha,freq,se,M,seed
regime3,0,anderson,0.05,0.4,0.1549193338,10,5
regime3,4,anderson,0.05,0.1,0.09486832981,10,5
regime3,0,anderson_limit,0.05,0.34,0.03349626845,200,5
regime3,4,anderson_limit,0.05,0.1,0.02121320344,200,5
""",
    ),
    "highdim": (
        "cgrid: 0.5,1.5",
        """experiment,c,p,test,alpha,freq,se,M,seed
highdim,0.5,20,anderson,0.05,1,0,10,31
highdim,0.5,20,hpv,0.05,0.9,0.09486832981,10,31
highdim,1.5,60,hpv,0.05,nan,nan,0,31
""",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_pinned_csv_bytes_and_grid_line(kind):
    grid_line, csv = PINNED[kind]
    result = run_experiment(KIND_CONFIGS[kind])
    assert result.to_csv() == csv
    assert grid_line in result.to_text().splitlines()

