"""The public API surface: what each module and the package export.

The package ``__all__`` is ``__version__`` plus every module's ``__all__``,
less the names kept at module level only.  Its names are pinned one by
one, so adding, removing or swapping a public name means editing
``PACKAGE_NAMES`` on purpose.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


# numpy's public modules, as numpy's own public-API test lists them.
PUBLIC_NUMPY_MODULES = {"numpy"} | {
    f"numpy.{name}"
    for name in (
        "char", "ctypeslib", "dtypes", "emath", "exceptions", "fft", "lib",
        "lib.array_utils", "lib.format", "lib.introspect", "lib.mixins", "lib.npyio",
        "lib.recfunctions", "lib.scimath", "lib.stride_tricks", "linalg", "ma",
        "ma.extras", "ma.mrecords", "polynomial", "polynomial.chebyshev",
        "polynomial.hermite", "polynomial.hermite_e", "polynomial.laguerre",
        "polynomial.legendre", "polynomial.polynomial", "random", "rec", "strings",
        "testing", "typing",
    )
}

# The one private numpy module the package may still import: Q_H's QR
# frame calls LAPACK through it (see the linalg module docstring).
ALLOWED_PRIVATE_NUMPY = {"numpy.linalg.lapack_lite"}


def _numpy_imports(tree: ast.AST):
    """(module, line) of each numpy module a source file imports, with
    ``from M import name`` read as module M.name when that is a module,
    and as M otherwise (an underscored name then counts as private)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] != "numpy":
                continue
            yield node.module, node.lineno
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if alias.name.startswith("_") or _is_module(full):
                    yield full, node.lineno


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # its parent is a module, not a package
        return False


def test_no_private_numpy_module():
    # A private module can change or vanish in any numpy release.
    found = {}
    for path in sorted(Path(spikedcov.__file__).parent.glob("*.py")):
        for module, line in _numpy_imports(ast.parse(path.read_text(), str(path))):
            if module not in PUBLIC_NUMPY_MODULES:
                found.setdefault(module, []).append(f"{path.name}:{line}")
    private = {m: where for m, where in found.items() if m not in ALLOWED_PRIVATE_NUMPY}
    assert not private, private
