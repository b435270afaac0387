"""End-to-end CLI behaviour through click's test runner."""

import math
import warnings
from dataclasses import fields

import click
import numpy as np
import pytest
from click.testing import CliRunner

from spikedcov import cli
from spikedcov.cli import main
from spikedcov.distributions import make_rng
from spikedcov.harness import ExperimentConfig, ExperimentResult
from spikedcov.model import RadialFamily


@pytest.fixture
def runner():
    return CliRunner()


def write_dataset(path, X, columns=None):
    columns = columns or [f"x{i}" for i in range(X.shape[1])]
    lines = [",".join(columns)]
    lines += [",".join(repr(float(v)) for v in row) for row in X]
    path.write_text("\n".join(lines) + "\n")
    return path


# A --set value for every config key, with the value the config must hold.
SET_VALUES = {
    "p": ("4", 4),
    "n": ("90", 90),
    "M": ("7", 7),
    "v": ("2.5", 2.5),
    "ells": ("1,4", (1, 4)),
    "families": ("gaussian,t6", (RadialFamily.gaussian(), RadialFamily.student_t(6.0))),
    "alphas": ("0.01,0.1", (0.01, 0.1)),
    "ks": ("0,20", (0, 20)),
    "vgrid": ("0,3.5", (0.0, 3.5)),
    "cgrid": ("0.25,2", (0.25, 2.0)),
    "limit_M": ("500", 500),
    "pseudo": ("yes", True),
}
CONFIG_KEYS = [
    f.name for f in fields(ExperimentConfig) if f.name not in ("experiment", "seed", "workers")
]


def capture_configs(monkeypatch) -> list:
    """Replace the CLI's grid runner by one that records each config it
    gets and returns an empty result."""
    seen = []

    def record(config):
        seen.append(config)
        return ExperimentResult(config=config, rows=())

    monkeypatch.setattr(cli, "run_experiment", record)
    return seen


def spiked_data(n=300, p=3, seed=0):
    rng = make_rng(seed)
    X = rng.standard_normal((n, p))
    X[:, 0] *= 2.0
    return X


class TestTestCommand:
    def test_happy_path(self, runner, tmp_path):
        f = write_dataset(tmp_path / "d.csv", spiked_data())
        result = runner.invoke(main, ["test", str(f), "--theta0", "1,0,0"])
        assert result.exit_code == 0, result.output
        assert "anderson" in result.output and "hpv" in result.output
        assert "n=300 p=3" in result.output

    def test_exact_eigenvector_accepts(self, runner, tmp_path):
        # theta0 equal to a sample eigenvector: both statistics collapse to
        # zero and the p-values print as 1
        X = spiked_data()
        from spikedcov.statistics import summarize

        theta = summarize(X).eigen.vectors[:, 0]
        f = write_dataset(tmp_path / "d.csv", X)
        result = runner.invoke(
            main, ["test", str(f), "--theta0", ",".join(repr(float(t)) for t in theta)]
        )
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if l.startswith(("anderson", "hpv"))]
        for line in lines:
            assert line.split()[-1] == "no"  # no rejection
            assert float(line.split()[-2]) > 0.999

    def test_degenerate_statistic_exits_cleanly(self, runner, tmp_path, monkeypatch):
        import spikedcov.cli as cli

        monkeypatch.setattr(cli, "hpv_statistic", lambda s, theta, j: math.nan)
        f = write_dataset(tmp_path / "d.csv", spiked_data())
        result = runner.invoke(main, ["test", str(f), "--theta0", "1,0,0"])
        assert result.exit_code == 1
        assert not isinstance(result.exception, ValueError)  # no traceback
        assert "not a finite nonnegative value" in result.output

    def test_constant_data_is_a_singular_covariance(self, runner, tmp_path):
        # Refused where the data are summarised, before κ̂ divides by the
        # zero spectrum or Q_A reads its ties: one error line naming the
        # covariance, and no numpy warning.
        f = write_dataset(tmp_path / "const.csv", np.ones((20, 3)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["test", str(f), "--theta0", "1,0,0", "--pseudo"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "covariance is numerically singular" in errors[0], errors
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_pseudo_flag(self, runner, tmp_path):
        f = write_dataset(tmp_path / "d.csv", spiked_data())
        result = runner.invoke(main, ["test", str(f), "--theta0", "1,0,0", "--pseudo"])
        assert result.exit_code == 0, result.output
        assert "kappa_hat=" in result.output
        assert "anderson_pseudo" in result.output

    def test_pseudo_flag_decomposes_s_once(self, runner, tmp_path, monkeypatch):
        from spikedcov import statistics

        calls = []
        sym_eigen = statistics.sym_eigen

        def counting(S):
            calls.append(S.shape)
            return sym_eigen(S)

        monkeypatch.setattr(statistics, "sym_eigen", counting)
        f = write_dataset(tmp_path / "d.csv", spiked_data())
        result = runner.invoke(main, ["test", str(f), "--theta0", "1,0,0", "--pseudo"])
        assert result.exit_code == 0, result.output
        assert calls == [(3, 3)]

    def test_malformed_csv_names_line(self, runner, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n1,2\n3\n")
        result = runner.invoke(main, ["test", str(f), "--theta0", "1,0"])
        assert result.exit_code != 0
        assert "line 3" in result.output

    def test_theta0_wrong_length(self, runner, tmp_path):
        f = write_dataset(tmp_path / "d.csv", spiked_data())
        result = runner.invoke(main, ["test", str(f), "--theta0", "1,0"])
        assert result.exit_code != 0
        assert "p=3" in result.output

    def test_theta0_not_unit(self, runner, tmp_path):
        f = write_dataset(tmp_path / "d.csv", spiked_data())
        result = runner.invoke(main, ["test", str(f), "--theta0", "1,1,0"])
        assert result.exit_code != 0
        assert "unit" in result.output

    def test_theta0_rounded_entries_renormalized(self, runner, tmp_path):
        # entries printed to 8 decimals are accepted (norm off by < 1e-6)
        f = write_dataset(tmp_path / "d.csv", spiked_data())
        c = f"{1.0 / math.sqrt(2.0):.8f}"
        result = runner.invoke(main, ["test", str(f), "--theta0", f"{c},{c},0"])
        assert result.exit_code == 0, result.output


class TestSimulateCommand:
    def test_writes_csv_and_echo(self, runner, tmp_path):
        out = tmp_path / "run1"
        result = runner.invoke(
            main,
            [
                "simulate",
                "--experiment",
                "null",
                "--set",
                "p=3",
                "--set",
                "n=50",
                "--set",
                "M=20",
                "--set",
                "ells=0,5",
                "--out",
                str(out),
                "--seed",
                "11",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "seed: 11" in result.output
        csv_text = (tmp_path / "run1.csv").read_text()
        txt_text = (tmp_path / "run1.txt").read_text()
        assert csv_text.startswith("experiment,family,ell,test,alpha,freq,se,M,seed")
        assert "seed: 11" in txt_text
        # 2 cells x 2 tests x 1 alpha + header
        assert len(csv_text.strip().splitlines()) == 5

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "# tiny smoke grid\n"
            "p = 3\n"
            "n = 50\n"
            "M = 10   # replicates\n"
            "ells = 0\n"
            "alphas = 0.1,0.5\n"
        )
        out = tmp_path / "run2"
        result = runner.invoke(
            main,
            ["simulate", "--experiment", "null", "--config", str(cfg), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "run2.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # 1 cell x 2 tests x 2 alphas

    def test_config_file_bad_line(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p = 3\nthis is not a setting\n")
        result = runner.invoke(
            main,
            ["simulate", "--experiment", "null", "--config", str(cfg), "--out", "x"],
        )
        assert result.exit_code != 0
        assert ":2:" in result.output

    def test_unknown_key(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--experiment", "null", "--set", "bogus=1", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code != 0
        assert "bogus" in result.output

    def test_bad_value(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--experiment", "null", "--set", "n=ten", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code != 0
        assert "ten" in result.output

    def test_highdim_cgrid_beyond_float_range_exits_cleanly(self, runner, tmp_path):
        # c·n = 2e309 used to raise OverflowError, which the command does
        # not catch, so it ended in a traceback
        result = runner.invoke(
            main,
            ["simulate", "--experiment", "highdim", "--set", "cgrid=1e307", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
        assert "Error: highdim grid cgrid value 1e+307" in result.output

    def test_family_parsing(self, runner, tmp_path):
        out = tmp_path / "fam"
        result = runner.invoke(
            main,
            [
                "simulate",
                "--experiment",
                "null",
                "--set",
                "families=gaussian,t6",
                "--set",
                "p=2",
                "--set",
                "n=40",
                "--set",
                "M=10",
                "--set",
                "ells=0",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        text = (tmp_path / "fam.csv").read_text()
        assert ",gaussian," in text and ",t6," in text

    def test_bad_family(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--experiment", "null", "--set", "families=cauchy", "--out", "x"],
        )
        assert result.exit_code != 0
        assert "cauchy" in result.output
        # t3 parses as a family; the library's own rule refuses it
        result = runner.invoke(
            main, ["simulate", "--experiment", "null", "--set", "families=t3", "--out", "x"]
        )
        assert result.exit_code == 1
        assert "Error: Student-t radial families require nu > 4" in result.output

    def test_invalid_experiment_choice(self, runner):
        result = runner.invoke(main, ["simulate", "--experiment", "nope", "--out", "x"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_set_reaches_config(self, runner, tmp_path, monkeypatch, key):
        seen = capture_configs(monkeypatch)
        raw, expected = SET_VALUES[key]
        result = runner.invoke(
            main,
            ["simulate", "--experiment", "power", "--set", f"{key}={raw}"]
            + ["--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 0, result.output
        (config,) = seen
        # repr tells 7 from 7.0 and True from 1
        assert repr(getattr(config, key)) == repr(expected)

    def test_full_scale_is_unknown(self, runner, tmp_path, monkeypatch):
        seen = capture_configs(monkeypatch)
        result = runner.invoke(
            main,
            ["simulate", "--experiment", "null", "--set", "full_scale=true"]
            + ["--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1
        assert "unknown config key 'full_scale'" in result.output
        assert seen == []

    def test_power_ks_past_hemisphere_fails_before_any_replicate(
        self, runner, tmp_path, monkeypatch
    ):
        seen = capture_configs(monkeypatch)
        result = runner.invoke(
            main,
            ["simulate", "--experiment", "power", "--set", "ks=0,25", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1
        assert "power grid ks must lie in 0..20" in result.output
        assert seen == []


class TestAsymptoticCommand:
    def test_regime_iv_output(self, runner):
        result = runner.invoke(
            main,
            ["asymptotic", "--regime", "iv", "--p", "2", "--M", "20000", "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        last = result.output.strip().splitlines()[-1].split()
        risk = float(last[5])
        assert risk == pytest.approx(0.327, abs=0.02)

    def test_regime_iii_with_v(self, runner):
        result = runner.invoke(
            main,
            ["asymptotic", "--regime", "iii", "--p", "2", "--v", "4", "--M", "20000"],
        )
        assert result.exit_code == 0, result.output
        risk = float(result.output.strip().splitlines()[-1].split()[5])
        assert risk < 0.15

    @pytest.mark.parametrize("kappa", ["nan", "inf", "-0.41"])
    def test_invalid_kappa_names_the_floor(self, runner, kappa):
        # κ = nan or inf used to fail inside the eigensolver with
        # "Eigenvalues did not converge"
        result = runner.invoke(
            main, ["asymptotic", "--regime", "iv", "--p", "3", "--M", "100", "--kappa", kappa]
        )
        assert result.exit_code == 1
        assert "kappa must be finite and at least -2/(p+2) = -0.400000" in result.output

    @pytest.mark.parametrize("v", ["nan", "inf"])
    def test_invalid_v_rejected(self, runner, v):
        # v = nan used to fail with "Eigenvalues did not converge", and
        # v = inf to print risk 0 with se 0
        result = runner.invoke(
            main, ["asymptotic", "--regime", "iii", "--p", "3", "--M", "100", "--v", v]
        )
        assert result.exit_code == 1
        assert f"v must be finite and nonnegative, got {v}" in result.output


class TestPowerCommand:
    def test_table(self, runner):
        result = runner.invoke(
            main, ["power", "--tau-grid", "0,0.7,1.4142135623730951"]
        )
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0].split() == [
            "tau_norm",
            "ncp_hpv",
            "ncp_oracle",
            "power_hpv",
            "power_oracle",
        ]
        first = lines[1].split()
        assert float(first[3]) == pytest.approx(0.05, abs=1e-9)
        last = lines[-1].split()
        assert float(last[1]) == 0.0  # hpv ncp vanishes at sqrt(2)
        assert float(last[4]) > 0.05  # oracle still has power there

    def test_large_v_runs(self, runner):
        # v = 1000 puts the noncentralities near 5e5, where the series used
        # to run 10⁶ terms and end in RuntimeError
        result = runner.invoke(main, ["power", "--v", "1000"])
        assert result.exit_code == 0, result.output
        powers = [float(x) for line in result.output.splitlines()[1:] for x in line.split()[3:]]
        assert len(powers) == 30
        assert all(0.0 <= x <= 1.0 for x in powers)

    def test_rejects_tau_out_of_range(self, runner):
        result = runner.invoke(main, ["power", "--tau-grid", "1.5"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--p", "1"], "df must be a positive integer"),
            (["--alpha", "1.5"], "alpha must lie strictly between 0 and 1"),
            (["--tau-grid", "1.5"], "tau_norm must lie in [0, sqrt(2)]"),
        ],
    )
    def test_bad_input_exits_cleanly(self, runner, args, message):
        result = runner.invoke(main, ["power", *args])
        assert result.exit_code == 1
        assert not isinstance(result.exception, ValueError)  # no traceback
        assert message in result.output
        # the error comes alone, without a header for rows that never came
        assert "ncp_hpv" not in result.output
        assert result.stdout == ""


class TestBanknoteCommand:
    def test_fixture_mode(self, runner):
        result = runner.invoke(main, ["banknote"])
        assert result.exit_code == 0, result.output
        assert "L,R,B,T" in result.output
        # eigenvalues of the n-divisor covariance
        assert "101.478" in result.output
        # Anderson p-value ~ 0.099: not significant at 5%
        anderson = [l for l in result.output.splitlines() if l.startswith("anderson")][0]
        assert anderson.split()[-1] == "no"
        assert float(anderson.split()[-2]) == pytest.approx(0.0991, abs=0.0005)

    def test_degenerate_statistic_exits_cleanly(self, runner, monkeypatch):
        import spikedcov.cli as cli

        monkeypatch.setattr(cli, "anderson_statistic", lambda s, theta, j: -5.0)
        result = runner.invoke(main, ["banknote"])
        assert result.exit_code == 1
        assert not isinstance(result.exception, ValueError)  # no traceback
        assert "not a finite nonnegative value" in result.output

    def test_raw_data_mode_runs_leave_one_out(self, runner, tmp_path):
        rng = make_rng(4)
        X = rng.standard_normal((85, 4)) @ np.diag([3.0, 2.0, 1.5, 1.0])
        f = write_dataset(tmp_path / "raw.csv", X, columns=["L", "R", "B", "T"])
        result = runner.invoke(main, ["banknote", "--data", str(f)])
        assert result.exit_code == 0, result.output
        assert "leave-one-out" in result.output

    def test_leave_one_out_pvalues(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((25, 3))
        theta = np.array([1.0, 0.0, 0.0])
        pvalues = cli._leave_one_out_pvalues(X, theta, 1, 0.05)
        assert pvalues.shape == (25, 2)
        assert ((0.0 <= pvalues) & (pvalues <= 1.0)).all()

    def test_leave_one_out_needs_p_plus_2_rows(self, monkeypatch):
        # With n = p + 1 every sample left has a singular covariance; the
        # error used to come from summarize on the first of them.
        monkeypatch.setattr(cli, "summarize", lambda X: pytest.fail("summarize called"))
        theta = np.array([1.0, 0.0, 0.0])
        X = np.random.default_rng(4).standard_normal((4, 3))
        with pytest.raises(click.ClickException, match="n >= p \\+ 2"):
            cli._leave_one_out_pvalues(X, theta, 1, 0.05)

    def test_raw_data_wrong_shape_warns(self, runner, tmp_path):
        rng = make_rng(5)
        f = write_dataset(tmp_path / "odd.csv", rng.standard_normal((30, 4)))
        result = runner.invoke(main, ["banknote", "--data", str(f)])
        assert result.exit_code == 0, result.output
        assert "warning" in result.output

    def test_raw_data_other_dimension_skips_the_test(self, runner, tmp_path):
        f = write_dataset(tmp_path / "p3.csv", make_rng(6).standard_normal((30, 3)))
        result = runner.invoke(main, ["banknote", "--data", str(f)])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert "warning: expected an 85×4 measurement matrix, got 30×3" in result.output
        eigen = [line for line in lines if line.startswith("eigenvalues: ")]
        assert len(eigen) == 1 and len(eigen[0].split()) == 4
        assert lines[-1] == "non-standard dimension: skipping the θ₂ hypothesis test"
        assert "hypothesis:" not in result.output


# Bad numeric input to every command that takes a number from the user.
# DATA is a 60×3 Gaussian CSV, SMALL a 5×4 one (n = p + 1, too few rows
# for leave-one-out).
_ASYMPTOTIC = ["asymptotic", "--regime", "iii", "--M", "10"]
BAD_NUMERIC_INPUTS = [
    *(["test", "DATA", "--theta0", "1,0,0", "--alpha", a] for a in ("nan", "inf", "-0.1", "1.5")),
    *(["test", "DATA", "--theta0", t] for t in ("nan,0,0", "inf,0,0", "-1,0,0,0")),
    *(["test", "DATA", "--theta0", "1,0,0", "--j", j] for j in ("0", "-1", "4")),
    *(["power", "--v", v] for v in ("nan", "inf", "-1", "1e5")),
    *(["power", "--alpha", a] for a in ("nan", "inf", "-0.1", "0", "1.5")),
    *(["power", "--p", p] for p in ("-1", "1")),
    *(["power", "--tau-grid", t] for t in ("nan", "inf", "-0.1", "0.5,1.5")),
    *([*_ASYMPTOTIC, "--p", "3", "--v", v] for v in ("nan", "inf", "-1")),
    *([*_ASYMPTOTIC, "--p", "3", "--alpha", a] for a in ("nan", "inf", "-0.1", "1", "1.5")),
    *([*_ASYMPTOTIC, "--p", "3", "--kappa", k] for k in ("nan", "inf", "-1")),
    *([*_ASYMPTOTIC, "--p", p] for p in ("-1", "1")),
    ["asymptotic", "--regime", "iv", "--p", "3", "--M", "-5"],
    *(["banknote", "--alpha", a] for a in ("nan", "inf", "-0.1", "1.5")),
    ["banknote", "--data", "SMALL"],
]


# The CLI's own message where the library's would be less specific.
BAD_NUMERIC_MESSAGES = {
    ("test", "DATA", "--theta0", t): f"--theta0 must be a unit vector (norm {t.split(',')[0]} "
    for t in ("nan,0,0", "inf,0,0")
}


@pytest.mark.parametrize("args", BAD_NUMERIC_INPUTS, ids=" ".join)
def test_bad_numeric_input_exits_with_one_error_line(runner, tmp_path, args):
    files = {
        "DATA": write_dataset(tmp_path / "data.csv", spiked_data(n=60)),
        "SMALL": write_dataset(
            tmp_path / "small.csv", make_rng(1).standard_normal((5, 4)), ["L", "R", "B", "T"]
        ),
    }
    result = runner.invoke(main, [str(files.get(a, a)) for a in args])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.output
    assert BAD_NUMERIC_MESSAGES.get(tuple(args), "") in errors[0]


# File errors that no command words itself.  BIN is a file that is not
# UTF-8; MISSING a directory that does not exist.
FILE_ERRORS = {
    "test BIN": (["test", "BIN", "--theta0", "1,0"], "codec can't decode"),
    "banknote BIN": (["banknote", "--data", "BIN"], "codec can't decode"),
    "simulate --config BIN": (
        ["simulate", "--experiment", "null", "--config", "BIN", "--out", "OUT"],
        "codec can't decode",
    ),
    "simulate --out MISSING": (
        ["simulate", "--experiment", "null", "--out", "MISSING"],
        "--out directory",
    ),
}


@pytest.mark.parametrize("args, message", FILE_ERRORS.values(), ids=FILE_ERRORS)
def test_file_error_exits_with_one_error_line(runner, tmp_path, monkeypatch, args, message):
    seen = capture_configs(monkeypatch)
    files = {"OUT": tmp_path / "o", "MISSING": tmp_path / "missing" / "o", "BIN": tmp_path / "bin"}
    files["BIN"].write_bytes(b"a,b\n\xff\xfe,1\n")
    result = runner.invoke(main, [str(files.get(a, a)) for a in args])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.output
    assert message in errors[0]
    assert seen == []  # no grid ran


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "spikedcov" in result.output
