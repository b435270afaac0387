"""Hypothesis tests for principal component directions under weakly
identified spiked covariance models."""

__version__ = "0.1.0"

from .asymptotics import (
    EigenvectorFrame,
    LocalAlternative,
    LocalExperiment,
    RiskEstimate,
    asymptotic_power,
    eigen_limit_sample,
    joint_eigenvalue_density,
    local_alternative,
    local_experiment,
    ncp_hpv_iii,
    ncp_oracle_iii,
    ncp_regime12,
    qa_limit_sample,
    sample_z_elliptical,
    type1_risk_iii,
    type1_risk_iv,
)
from .data import Dataset, ParseError, banknote_fixture_path, load_csv, save_csv
from .distributions import (
    chi2_cdf,
    chi2_quantile,
    make_rng,
    noncentral_chi2_cdf,
)
from .harness import (
    CellRow,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    run_leave_one_out,
)
from .linalg import (
    DegeneracyError,
    EigenSystem,
    gram_schmidt_complement,
    sym_eigen,
)
from .model import RadialFamily, SpikedModel, SpikeRate, covariance_at, kurtosis_of, sample
from .statistics import (
    SampleSummary,
    TestOutcome,
    anderson_statistic,
    decide,
    hpv_statistic,
    kurtosis_estimate,
    kurtosis_from_summary,
    oracle_statistic,
    pseudo_gaussian,
    q_delta,
    summarize,
    summary_from_covariance,
)

__all__ = [
    "__version__",
    # linalg
    "DegeneracyError",
    "EigenSystem",
    "sym_eigen",
    "gram_schmidt_complement",
    # distributions
    "make_rng",
    "chi2_cdf",
    "chi2_quantile",
    "noncentral_chi2_cdf",
    # model
    "SpikeRate",
    "RadialFamily",
    "SpikedModel",
    "covariance_at",
    "sample",
    "kurtosis_of",
    # statistics
    "SampleSummary",
    "TestOutcome",
    "summarize",
    "summary_from_covariance",
    "anderson_statistic",
    "hpv_statistic",
    "kurtosis_estimate",
    "kurtosis_from_summary",
    "pseudo_gaussian",
    "q_delta",
    "oracle_statistic",
    "decide",
    # asymptotics
    "EigenvectorFrame",
    "LocalAlternative",
    "LocalExperiment",
    "RiskEstimate",
    "sample_z_elliptical",
    "qa_limit_sample",
    "type1_risk_iii",
    "type1_risk_iv",
    "eigen_limit_sample",
    "joint_eigenvalue_density",
    "ncp_regime12",
    "ncp_hpv_iii",
    "ncp_oracle_iii",
    "asymptotic_power",
    "local_alternative",
    "local_experiment",
    # harness
    "ExperimentConfig",
    "ExperimentResult",
    "CellRow",
    "run_leave_one_out",
    "run_experiment",
    # data
    "Dataset",
    "ParseError",
    "load_csv",
    "save_csv",
    "banknote_fixture_path",
]
