"""The public API surface: what each module and the package export.

The package ``__all__`` is ``__version__`` plus every module's ``__all__``,
less the names kept at module level only.  Its names are pinned one by
one, so adding, removing or swapping a public name means editing
``PACKAGE_NAMES`` on purpose.
"""

import importlib
import pkgutil

import pytest

import spikedcov

# Every submodule that declares an ``__all__`` (the CLI module does not).
MODULES = tuple(
    info.name
    for info in pkgutil.iter_modules(spikedcov.__path__)
    if hasattr(importlib.import_module(f"spikedcov.{info.name}"), "__all__")
)

# Public in their module, deliberately not re-exported by the package.
MODULE_ONLY = {"Rng", "min_kappa"}

PACKAGE_NAMES = {
    "CellRow",
    "Dataset",
    "DegeneracyError",
    "EigenSystem",
    "ExperimentConfig",
    "ExperimentResult",
    "LocalExperiment",
    "ParseError",
    "RadialFamily",
    "RiskEstimate",
    "SampleSummary",
    "SpikeRate",
    "SpikedModel",
    "TestOutcome",
    "__version__",
    "anderson_statistic",
    "asymptotic_power",
    "banknote_fixture_path",
    "chi2_cdf",
    "chi2_quantile",
    "decide",
    "eigen_limit_sample",
    "hpv_statistic",
    "joint_eigenvalue_density",
    "kurtosis_from_summary",
    "load_csv",
    "local_experiment",
    "make_rng",
    "ncp_hpv_iii",
    "ncp_oracle_iii",
    "ncp_regime12",
    "noncentral_chi2_cdf",
    "oracle_statistic",
    "pseudo_gaussian",
    "q_delta",
    "qa_limit_sample",
    "run_experiment",
    "sample",
    "sample_z_elliptical",
    "summarize",
    "summary_from_covariance",
    "sym_eigen",
    "type1_risk_iii",
}

PACKAGE_SIZE = len(PACKAGE_NAMES)


@pytest.mark.parametrize("name", MODULES)
def test_module_names_resolve(name):
    module = importlib.import_module(f"spikedcov.{name}")
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"spikedcov.{name}.{symbol}"


def test_package_exports_the_module_union():
    # no name listed twice, within a module or across two of them
    names = [s for name in MODULES for s in importlib.import_module(f"spikedcov.{name}").__all__]
    assert len(set(names)) == len(names)
    assert MODULE_ONLY <= set(names)
    assert len(set(spikedcov.__all__)) == len(spikedcov.__all__)
    assert set(spikedcov.__all__) == {"__version__"} | (set(names) - MODULE_ONLY)
    assert set(spikedcov.__all__) == PACKAGE_NAMES
    assert len(spikedcov.__all__) == PACKAGE_SIZE
    for symbol in spikedcov.__all__:
        assert hasattr(spikedcov, symbol), symbol
