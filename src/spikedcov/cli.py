"""Command-line interface.

Subcommands:

* ``test``       — run both eigenvector tests on a CSV dataset
* ``simulate``   — run a Monte Carlo experiment grid, write CSV + echo
* ``asymptotic`` — estimate limiting type-I risks of the Anderson test
* ``power``      — tabulate boundary-regime noncentralities and powers
* ``banknote``   — the built-in covariance case study

Errors end at one boundary, ``main``'s ``invoke``: a ``ValueError`` or
``OSError`` that a command raises becomes one ``Error:`` line and exit
code 1; any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import math
import typing

import click
import numpy as np

from . import __version__
from .asymptotics import (
    asymptotic_power,
    ncp_hpv_iii,
    ncp_oracle_iii,
    type1_risk_iii,
)
from .data import banknote_fixture_path, load_csv
from .distributions import make_rng
from .harness import EXPERIMENTS, ExperimentConfig, run_experiment
from .model import RadialFamily
from .statistics import (
    SampleSummary,
    TestOutcome,
    anderson_statistic,
    decide,
    hpv_statistic,
    kurtosis_from_summary,
    pseudo_gaussian,
    summarize,
    summary_from_covariance,
)


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's own handler exits quietly on a closed stdout
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc))


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="spikedcov")
def main():
    """Tests for principal component directions under weak identifiability."""


def _parse_theta0(text: str, p: int) -> np.ndarray:
    try:
        theta = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise click.ClickException(f"--theta0 must be comma-separated numbers, got {text!r}")
    if theta.shape[0] != p:
        raise click.ClickException(
            f"--theta0 has {theta.shape[0]} entries but the data has p={p} columns"
        )
    norm = float(np.linalg.norm(theta))
    if not abs(norm - 1.0) <= 1e-6:  # a nan norm fails this too
        raise click.ClickException(
            f"--theta0 must be a unit vector (norm {norm:.6g} is off by more than 1e-6)"
        )
    return theta / norm


def _test_rows(
    s: SampleSummary, theta: np.ndarray, j: int, alpha: float, kappa_hat: float | None = None
) -> list[tuple[str, TestOutcome]]:
    """Q_A and Q_H of H0: θ_j = theta decided at level alpha, followed by
    their pseudo-Gaussian versions when ``kappa_hat`` is given."""
    stats = {"anderson": anderson_statistic(s, theta, j), "hpv": hpv_statistic(s, theta, j)}
    rows = [(name, decide(q, s.p - 1, alpha)) for name, q in stats.items()]
    if kappa_hat is not None:
        rows += [
            (f"{name}_pseudo", decide(pseudo_gaussian(q, kappa_hat), s.p - 1, alpha))
            for name, q in stats.items()
        ]
    return rows


def _leave_one_out_pvalues(X: np.ndarray, theta: np.ndarray, j: int, alpha: float) -> np.ndarray:
    """Q_A's and Q_H's p-values on the sample without row i, for each
    observation i, as an n×2 array.  With n < p + 2 every such sample has
    a singular covariance, so that is refused before any is summarised."""
    n, p = X.shape
    if n < p + 2:
        raise click.ClickException(
            f"leave-one-out needs n >= p + 2 observations, got n={n}, p={p}"
        )
    rows = (_test_rows(summarize(np.delete(X, i, axis=0)), theta, j, alpha) for i in range(n))
    return np.array([[outcome.pvalue for _, outcome in r] for r in rows])


def _print_outcome_table(rows: list[tuple[str, TestOutcome]]):
    click.echo(f"{'test':<16} {'statistic':>14} {'df':>4} {'p-value':>14} {'reject':>7}")
    for name, outcome in rows:
        click.echo(
            f"{name:<16} {outcome.statistic:>14.8g} {outcome.df:>4d} "
            f"{outcome.pvalue:>14.8g} {'yes' if outcome.reject else 'no':>7}"
        )


@main.command("test")
@click.argument("data", type=click.Path(exists=True, dir_okay=False))
@click.option("--theta0", required=True, help="Hypothesized direction, comma-separated floats.")
@click.option("--j", default=1, show_default=True, help="Eigenvector index under test (1-based).")
@click.option("--alpha", default=0.05, show_default=True, help="Test level.")
@click.option("--pseudo", is_flag=True, help="Also report kurtosis-corrected statistics.")
def cmd_test(data: str, theta0: str, j: int, alpha: float, pseudo: bool):
    """Run the Anderson and Gram-Schmidt tests of H0: θ_j = theta0 on DATA."""
    ds = load_csv(data)
    theta = _parse_theta0(theta0, ds.p)
    s = summarize(ds.values)
    kappa_hat = kurtosis_from_summary(s, ds.values) if pseudo else None
    rows = _test_rows(s, theta, j, alpha, kappa_hat)
    click.echo(f"n={ds.n} p={ds.p} j={j} alpha={alpha:g}")
    if pseudo:
        click.echo(f"kappa_hat={kappa_hat:.8g}")
    _print_outcome_table(rows)


# Config key -> type, read from ExperimentConfig; the experiment, seed
# and worker count are options of their own.
_CONFIG_TYPES = {
    key: kind
    for key, kind in typing.get_type_hints(ExperimentConfig).items()
    if key not in ("experiment", "seed", "workers")
}


def _parse_family(token: str) -> RadialFamily:
    token = token.strip().lower()
    if token == "gaussian":
        return RadialFamily.gaussian()
    try:
        if not token.startswith("t"):
            raise ValueError(token)
        nu = float(token[1:])
    except ValueError:
        raise click.ClickException(f"unknown family {token!r} (use 'gaussian' or 't<nu>', e.g. t6)")
    return RadialFamily.student_t(nu)


def _parse_scalar(kind: type, token: str):
    if kind is bool:
        if token.lower() in ("true", "1", "yes"):
            return True
        if token.lower() in ("false", "0", "no"):
            return False
        raise ValueError(token)
    return kind(token)


def _parse_config_value(key: str, raw: str):
    kind = _CONFIG_TYPES.get(key)
    if kind is None:
        raise click.ClickException(f"unknown config key {key!r}")
    raw = raw.strip()
    if kind == tuple[RadialFamily, ...]:
        # Outside the try below, so a family's own rule (nu > 4) reaches main.
        return tuple(_parse_family(tok) for tok in raw.split(","))
    try:
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(_parse_scalar(item, tok) for tok in raw.split(","))
        return _parse_scalar(kind, raw)
    except ValueError:
        raise click.ClickException(f"invalid value {raw!r} for config key {key!r}")


def _read_config_file(path) -> dict:
    out = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise click.ClickException(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        out[key] = _parse_config_value(key, raw)
    return out


@main.command("simulate")
@click.option(
    "--experiment",
    required=True,
    type=click.Choice(EXPERIMENTS),
)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE", help="Override a config key.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--seed", default=ExperimentConfig.seed, show_default=True, type=int)
@click.option("--workers", default=ExperimentConfig.workers, show_default=True, type=int)
def cmd_simulate(experiment, config_path, overrides, out: str, seed: int, workers: int):
    """Run one experiment grid; write <out>.csv and a <out>.txt config echo."""
    from pathlib import Path  # only the command that writes files loads it

    settings = {}
    if config_path is not None:
        settings.update(_read_config_file(Path(config_path)))
    for item in overrides:
        if "=" not in item:
            raise click.ClickException(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        settings[key.strip()] = _parse_config_value(key.strip(), raw)
    config = ExperimentConfig(experiment=experiment, seed=seed, workers=workers, **settings)
    out = Path(out)
    base = out.with_suffix("") if out.suffix == ".csv" else out
    if not base.parent.is_dir():
        raise click.ClickException(f"--out directory {str(base.parent)!r} does not exist")
    result = run_experiment(config)
    csv_path = base.with_suffix(".csv")
    txt_path = base.with_suffix(".txt")
    csv_path.write_text(result.to_csv())
    txt_path.write_text(result.to_text())
    click.echo(f"seed: {config.seed}")
    click.echo(f"wrote {csv_path} and {txt_path} ({len(result.rows)} rows)")


@main.command("asymptotic")
@click.option("--regime", required=True, type=click.Choice(["iii", "iv"]))
@click.option("--p", required=True, type=int)
@click.option("--v", default=0.0, show_default=True, type=float)
@click.option("--alpha", default=0.05, show_default=True, type=float)
@click.option("--M", "m_draws", default=100_000, show_default=True, type=int)
@click.option("--kappa", default=0.0, show_default=True, type=float)
@click.option("--seed", default=ExperimentConfig.seed, show_default=True, type=int)
def cmd_asymptotic(regime, p, v, alpha, m_draws, kappa, seed):
    """Monte Carlo estimate of the limiting type-I risk of the Anderson test."""
    if regime == "iv":
        v = 0.0
    est = type1_risk_iii(p, v, alpha, m_draws, make_rng(seed), kappa=kappa)
    click.echo(f"seed: {seed}")
    click.echo("regime p v alpha kappa risk se M")
    click.echo(
        f"{regime} {p} {v:.10g} {alpha:.10g} {kappa:.10g} "
        f"{est.risk:.10g} {est.se:.10g} {est.M}"
    )


@main.command("power")
@click.option("--p", default=2, show_default=True, type=int)
@click.option("--v", default=1.0, show_default=True, type=float)
@click.option("--alpha", default=0.05, show_default=True, type=float)
@click.option(
    "--tau-grid",
    default=None,
    help="Comma-separated ‖τ‖ values in [0, sqrt(2)]; default 0..sqrt(2) in 15 steps.",
)
def cmd_power(p, v, alpha, tau_grid):
    """Boundary-regime noncentralities and asymptotic powers of both tests."""
    if tau_grid is None:
        taus = [math.sqrt(2.0) * i / 14 for i in range(15)]
    else:
        try:
            taus = [float(x) for x in tau_grid.split(",")]
        except ValueError:
            raise click.ClickException(
                f"--tau-grid must be comma-separated numbers, got {tau_grid!r}"
            )
    # Every row is built before the header is echoed, so bad input
    # prints the error alone.
    rows = []
    for tau in taus:
        ncp_h = ncp_hpv_iii(v, tau)
        ncp_o = ncp_oracle_iii(v, tau)
        pw_h = asymptotic_power(p - 1, ncp_h, alpha)
        pw_o = asymptotic_power(p, ncp_o, alpha)
        rows.append(f"{tau:.10g} {ncp_h:.10g} {ncp_o:.10g} {pw_h:.10g} {pw_o:.10g}")
    click.echo("tau_norm ncp_hpv ncp_oracle power_hpv power_oracle")
    for row in rows:
        click.echo(row)


BANKNOTE_N = 85
BANKNOTE_THETA2 = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)


@main.command("banknote")
@click.option(
    "--data",
    "data_path",
    type=click.Path(exists=True, dir_okay=False),
    help="Optional raw 85×4 measurement CSV; default uses the covariance fixture.",
)
@click.option("--alpha", default=0.05, show_default=True, type=float)
def cmd_banknote(data_path, alpha):
    """Case study: second principal component of the Swiss banknote subset.

    Tests H0: θ₂ = (1,1,0,0)/√2 — "the second component is an equal-weight
    contrast of the two width measurements".
    """
    if data_path is None:
        ds = load_csv(banknote_fixture_path())
        printed = ds.values
        c_n = (BANKNOTE_N - 1) / BANKNOTE_N
        s = summary_from_covariance(c_n * printed, BANKNOTE_N)
        click.echo(f"source: built-in covariance fixture (n={BANKNOTE_N}, unbiased-to-n factor {c_n:.10g})")
        X = None
    else:
        ds = load_csv(data_path)
        if (ds.n, ds.p) != (85, 4):
            click.echo(
                f"warning: expected an 85×4 measurement matrix, got {ds.n}×{ds.p}; "
                "proceeding generically",
                err=True,
            )
        s = summarize(ds.values)
        X = ds.values
        click.echo(f"source: {data_path} (n={ds.n}, p={ds.p})")
    click.echo("columns: " + ",".join(ds.columns))
    click.echo("eigenvalues: " + " ".join(f"{lam:.8g}" for lam in s.eigen.values))
    click.echo("first eigenvector: " + " ".join(f"{x:+.6f}" for x in s.eigen.vectors[:, 0]))
    theta = BANKNOTE_THETA2 if s.p == 4 else None
    if theta is None:
        click.echo("non-standard dimension: skipping the θ₂ hypothesis test")
        return
    rows = _test_rows(s, theta, 2, alpha)
    # The leave-one-out p-values come before any table row, so bad data
    # prints the error alone after the summary lines.
    if X is not None:
        pvalues = _leave_one_out_pvalues(X, theta, 2, alpha)
    click.echo(f"hypothesis: theta2 = (1,1,0,0)/sqrt(2), j=2, alpha={alpha:g}")
    _print_outcome_table(rows)
    if X is not None:
        click.echo("leave-one-out p-values:")
        for name, pv in zip(("anderson", "hpv"), pvalues.T):
            click.echo(
                f"  {name + ':':<9} median {np.median(pv):.6g} min {pv.min():.6g} "
                f"max {pv.max():.6g} rejections@{alpha:g}: {int((pv < alpha).sum())}/{len(pv)}"
            )


if __name__ == "__main__":
    main()
