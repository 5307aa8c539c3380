"""CLT and bootstrap baselines for the method comparison.

The normal quantile is the PPND16 rational approximation (absolute error
below 1e-9 everywhere on (0,1)), so the baselines carry no table or
special-function dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputError, ParameterError
from .estimator import (
    ConfidenceInterval,
    WeightedEcdf,
    ci_alpha,
    ci_mean,
    pstable_estimate,
    split_pilot,
    _check_levels,
    _check_p,
)
from .rng import (
    STREAM_REF,
    STREAM_X,
    STREAM_Y,
    ParetoLikeParams,
    PowerLawCutoffParams,
    RandomSource,
    StableParams,
    sample_pareto_like,
    sample_power_law_cutoff,
    sample_stable,
)

# Resampled index matrices are generated in row blocks capped near this
# many entries so B·n never materializes at once.
_BOOTSTRAP_BLOCK_ENTRIES = 2_000_000


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF (PPND16 rational approximation)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"normal quantile needs q in (0,1), got {q}")
    d = q - 0.5
    if abs(d) <= 0.425:
        r = 0.180625 - d * d
        num = (
            ((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
                + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
                + 1.3314166789178437745e2) * r + 3.3871328727963666080
        )
        den = (
            ((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
                + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
                + 4.2313330701600911252e1) * r + 1.0
        )
        return d * num / den
    r = q if d < 0.0 else 1.0 - q
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        num = (
            ((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r
                + 2.41780725177450611770e-1) * r + 1.27045825245236838258) * r
                + 3.64784832476320460504) * r + 5.76949722146069140550) * r
                + 4.63033784615654529590) * r + 1.42343711074968357734
        )
        den = (
            ((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r
                + 1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r
                + 6.89767334985100004550e-1) * r + 1.67638483018380384940) * r
                + 2.05319162663775882187) * r + 1.0
        )
    else:
        r -= 5.0
        num = (
            ((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r
                + 1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r
                + 2.96560571828504891230e-1) * r + 1.78482653991729133580) * r
                + 5.46378491116411436990) * r + 6.65790464350110377720
        )
        den = (
            ((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r
                + 1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r
                + 1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r
                + 5.99832206555887937690e-1) * r + 1.0
        )
    value = num / den
    return -value if d < 0.0 else value


def clt_ci(X, levels) -> ConfidenceInterval:
    """x̄ + z(level)·s/√N for each level, s the sample standard deviation."""
    level_lo, level_hi = _check_levels(levels)
    x = np.asarray(X, dtype=np.float64)
    if x.size < 2:
        raise InputError(f"CLT interval needs at least 2 observations, got {x.size}")
    xbar = float(np.mean(x))
    s = float(np.std(x, ddof=1))
    half = s / math.sqrt(x.size)
    return ConfidenceInterval(
        lower=xbar + normal_quantile(level_lo) * half,
        upper=xbar + normal_quantile(level_hi) * half,
        level_lo=level_lo,
        level_hi=level_hi,
        target="mean",
        degenerate=(s == 0.0),
    )


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling plan for the terminal statistic t_N.

    resample_mode: "pairs" redraws (X_i, Y_i) jointly (preserves the X·Y
    coupling the statistic is built from); "x_only" redraws X against the
    fixed Y positions; "identity" repeats the observed sample (degenerate,
    for tests). norm_exponent defaults to 1/p.
    """

    replicates: int = 1000
    resample_mode: str = "pairs"
    norm_exponent: float | None = None

    def __post_init__(self):
        if int(self.replicates) < 1:
            raise ParameterError(f"need at least one replicate, got {self.replicates}")
        if self.resample_mode not in ("pairs", "x_only", "identity"):
            raise ParameterError(f"unknown resample mode {self.resample_mode!r}")


def bootstrap_ecdf(
    X, Y, mu_hat: float, p: float, cfg: BootstrapConfig, src: RandomSource
) -> WeightedEcdf:
    """Equal-weight ECDF of B resampled evaluations of t_N."""
    p = _check_p(p)
    x = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(Y, dtype=np.float64)
    if x.size == 0 or x.size != y.size:
        raise InputError("bootstrap needs equal-length nonempty X and Y")
    n = x.size
    B = int(cfg.replicates)
    exponent = cfg.norm_exponent if cfg.norm_exponent is not None else 1.0 / p
    scale = float(n) ** (-exponent)

    g = src.generator()
    stats = np.empty(B, dtype=np.float64)
    # Gathering the products (x_i − μ̂)·y_i is exact: elementwise the same
    # operations as gathering x and y first, summed in the same order.
    # x_only resamples x against the fixed y, so it gathers x alone.
    z = None if cfg.resample_mode == "x_only" else (x - mu_hat) * y
    block = max(1, _BOOTSTRAP_BLOCK_ENTRIES // n)
    for start in range(0, B, block):
        rows = min(block, B - start)
        if cfg.resample_mode == "identity":
            idx = np.tile(np.arange(n), (rows, 1))
        else:
            idx = g.integers(0, n, size=(rows, n))
        if z is None:
            terms = (x[idx] - mu_hat) * np.broadcast_to(y, (rows, n))
        else:
            terms = z[idx]
        stats[start : start + rows] = terms.sum(axis=1) * scale

    points = np.sort(stats, kind="stable")
    cum = np.arange(1, B + 1, dtype=np.float64) / B
    return WeightedEcdf(points=points, cum_weights=cum, normalizer=1.0)


@dataclass(frozen=True)
class ComparisonSpec:
    """Data-generation recipe for one method comparison run.

    mu_mode picks the a-priori mean estimate: "full" uses the estimation
    sample's own mean, "pilot" splits off a disjoint leading segment,
    "true" uses the analytic mean.
    """

    distribution: object
    n: int
    p: float
    y_params: StableParams
    reference_count: int = 900_000
    mu_mode: str = "full"
    pilot_count: int | None = None

    def __post_init__(self):
        if int(self.n) < 2:
            raise ParameterError(f"comparison needs n >= 2, got {self.n}")
        if self.mu_mode not in ("full", "pilot", "true"):
            raise ParameterError(f"unknown mu_mode {self.mu_mode!r}")
        if int(self.reference_count) < 1:
            raise ParameterError("reference sample must be nonempty")
        if self.y_params.p != self.p:
            raise ParameterError(
                f"resampling multipliers must share the statistic's stability order "
                f"(got {self.y_params.p} vs {self.p})"
            )


def sample_distribution(distribution, src: RandomSource, count: int) -> np.ndarray:
    """Dispatch sampling on the parameter type."""
    from .abelian import AbelianParams
    from .rng import sample_abelian

    if isinstance(distribution, ParetoLikeParams):
        return sample_pareto_like(distribution, src, count)
    if isinstance(distribution, PowerLawCutoffParams):
        return np.asarray(sample_power_law_cutoff(distribution, src, count), dtype=np.float64)
    if isinstance(distribution, StableParams):
        return sample_stable(distribution, src, count)
    if isinstance(distribution, AbelianParams):
        return np.asarray(sample_abelian(distribution, src, count), dtype=np.float64)
    raise ParameterError(f"no sampler for distribution params {type(distribution).__name__}")


def distribution_mean(distribution) -> float:
    """Analytic mean where one exists (mu_mode='true' and coverage scoring)."""
    from .abelian import AbelianParams, abelian_mean

    if isinstance(distribution, ParetoLikeParams):
        return distribution.mean()
    if isinstance(distribution, PowerLawCutoffParams):
        return distribution.exact_mean()
    if isinstance(distribution, StableParams):
        if distribution.p <= 1.0:
            raise ParameterError("stable mean exists only for p > 1")
        return distribution.delta
    if isinstance(distribution, AbelianParams):
        return abelian_mean(distribution)
    raise ParameterError(f"no analytic mean for {type(distribution).__name__}")


@dataclass(frozen=True)
class MethodIntervals:
    method: str
    mean: ConfidenceInterval
    alpha: ConfidenceInterval


@dataclass(frozen=True)
class ComparisonReport:
    """Per-method intervals plus the large-sample reference point."""

    spec: ComparisonSpec
    intervals: tuple[MethodIntervals, ...]
    reference_mean: float
    reference_alpha: float | None

    def by_method(self, method: str) -> MethodIntervals:
        for mi in self.intervals:
            if mi.method == method:
                return mi
        raise KeyError(method)

    def rows(self):
        """CSV rows: method, target, lower, upper, defined flags, reference."""
        out = []
        for mi in self.intervals:
            for target, ci in (("mean", mi.mean), ("alpha", mi.alpha)):
                ref = self.reference_mean if target == "mean" else self.reference_alpha
                out.append(
                    (
                        mi.method,
                        target,
                        ci.lower,
                        ci.upper,
                        ci.lower_defined,
                        ci.upper_defined,
                        ref,
                    )
                )
        return out


def compare_methods(
    data_spec: ComparisonSpec,
    levels,
    methods=frozenset({"pstable", "clt"}),
    src: RandomSource | None = None,
) -> ComparisonReport:
    """Run each method on one simulated dataset plus a precise reference.

    The reference is the sample mean of an independent large draw (the
    ×-marker protocol), mapped to α when positive.
    """
    levels = _check_levels(levels)
    unknown = set(methods) - {"pstable", "clt"}
    if unknown:
        raise ParameterError(f"unknown methods: {sorted(unknown)}")
    if src is None:
        raise InputError("compare_methods needs a RandomSource")

    x = sample_distribution(data_spec.distribution, src.substream(STREAM_X), data_spec.n)
    if data_spec.mu_mode == "full":
        mu_hat, x_est = float(np.mean(x)), x
    elif data_spec.mu_mode == "true":
        mu_hat, x_est = distribution_mean(data_spec.distribution), x
    else:
        mu_hat, x_est = split_pilot(x, pilot_count=data_spec.pilot_count)

    intervals = []
    if "pstable" in methods:
        y = sample_stable(data_spec.y_params, src.substream(STREAM_Y), x_est.size)
        est = pstable_estimate(x_est, y, mu_hat, data_spec.p, levels)
        intervals.append(MethodIntervals("pstable", est.ci_mu, est.ci_alpha))
    if "clt" in methods:
        mean_ci = clt_ci(x_est, levels)
        intervals.append(MethodIntervals("clt", mean_ci, ci_alpha(mean_ci)))

    ref = sample_distribution(
        data_spec.distribution, src.substream(STREAM_REF), data_spec.reference_count
    )
    reference_mean = float(np.mean(ref))
    reference_alpha = 1.0 - 1.0 / reference_mean if reference_mean > 0 else None
    return ComparisonReport(
        spec=data_spec,
        intervals=tuple(intervals),
        reference_mean=reference_mean,
        reference_alpha=reference_alpha,
    )
