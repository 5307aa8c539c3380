"""Mean and criticality estimation for heavy-tailed data.

Estimates means of large-variance samples by p-stable resampling, maps the
resulting confidence bounds to the criticality parameter of Abelian
avalanche-size distributions, and ships exact combinatorial checks for the
Stirling-number bounds behind the method's moment analysis.
"""

import importlib

__version__ = "0.1.0"

# Each export and the submodule that defines it. A name is imported on first
# access (PEP 562), so a command loads only the modules it runs.
_EXPORTS = {
    **{name: ("abelian", name) for name in (
        "AbelianParams", "abelian_mean", "abelian_pmf_vector",
        "abelian_second_moment", "abelian_variance",
    )},
    **{name: ("baselines", name) for name in (
        "BootstrapConfig", "bootstrap_ecdf", "clt_ci", "normal_quantile",
    )},
    **{name: ("errors", name) for name in (
        "CapacityError", "ConfigError", "DomainError", "HeavytailError",
        "InputError", "InstabilityError", "ParameterError", "PlotDataError",
    )},
    **{name: ("estimator", name) for name in (
        "ConfidenceInterval", "build_log_ecdf", "ci_alpha", "compute_tn",
        "ecdf_sup_distance", "pstable_estimate", "split_pilot",
    )},
    **{name: ("rng", name) for name in (
        "ParetoLikeParams", "PowerLawCutoffParams", "RandomSource",
        "StableParams", "heavy_transform", "sample_stable",
    )},
    **{name: ("stirling", name) for name in (
        "build_table", "run_lemma_suite", "subset_sum_oracle",
    )},
}


def __getattr__(name: str):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})


__all__ = ["__version__", *_EXPORTS]
