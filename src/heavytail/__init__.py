"""Mean and criticality estimation for heavy-tailed data.

Estimates means of large-variance samples by p-stable resampling, maps the
resulting confidence bounds to the criticality parameter of Abelian
avalanche-size distributions, and ships exact combinatorial checks for the
Stirling-number bounds behind the method's moment analysis.
"""

__version__ = "0.1.0"

from ._kernels import backend as kernel_backend
from .abelian import (
    AbelianParams,
    abelian_limits,
    abelian_mean,
    abelian_pmf,
    abelian_pmf_vector,
    abelian_second_moment,
    abelian_variance,
)
from .baselines import BootstrapConfig, bootstrap_ecdf, clt_ci, normal_quantile
from .errors import (
    CapacityError,
    ConfigError,
    DomainError,
    HeavytailError,
    InputError,
    InstabilityError,
    ParameterError,
    PlotDataError,
)
from .estimator import (
    ConfidenceInterval,
    build_log_ecdf,
    ci_alpha,
    ci_mean,
    compute_tn,
    compute_tn_degree_d,
    ecdf_sup_distance,
    pstable_estimate,
    split_pilot,
)
from .rng import (
    ParetoLikeParams,
    PowerLawCutoffParams,
    RandomSource,
    StableParams,
    heavy_transform,
    sample_stable,
)
from .stirling import build_table, run_lemma_suite, subset_sum_oracle

__all__ = [
    "AbelianParams",
    "BootstrapConfig",
    "CapacityError",
    "ConfidenceInterval",
    "ConfigError",
    "DomainError",
    "HeavytailError",
    "InputError",
    "InstabilityError",
    "ParameterError",
    "ParetoLikeParams",
    "PlotDataError",
    "PowerLawCutoffParams",
    "RandomSource",
    "StableParams",
    "__version__",
    "abelian_limits",
    "abelian_mean",
    "abelian_pmf",
    "abelian_pmf_vector",
    "abelian_second_moment",
    "abelian_variance",
    "bootstrap_ecdf",
    "build_log_ecdf",
    "build_table",
    "ci_alpha",
    "ci_mean",
    "clt_ci",
    "compute_tn",
    "compute_tn_degree_d",
    "ecdf_sup_distance",
    "heavy_transform",
    "kernel_backend",
    "normal_quantile",
    "pstable_estimate",
    "run_lemma_suite",
    "sample_stable",
    "split_pilot",
    "subset_sum_oracle",
]
