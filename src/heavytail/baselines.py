"""CLT and pairs-bootstrap baselines, and the draws every study starts from.

The normal quantile is the standard library's `statistics.NormalDist.inv_cdf`,
Wichura's AS241 (PPND16) rational approximation, so the baselines carry no
table or special-function dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, InputError, InstabilityError, ParameterError
from .estimator import (
    ConfidenceInterval,
    WeightedEcdf,
    split_pilot,
    _BLOCK_ENTRIES,
    _check_levels,
    _check_p,
    _check_sample,
)
from .rng import (
    STREAM_X,
    STREAM_Y,
    RandomSource,
    StableParams,
    sample_distribution,
    sample_stable,
)


def normal_quantile(q: float) -> float:
    """Inverse standard normal CDF (the stdlib's AS241/PPND16)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"normal quantile needs q in (0,1), got {q}")
    from statistics import NormalDist  # only CLT rows need it; estimate never does

    return NormalDist().inv_cdf(q)


def clt_ci(X, levels) -> ConfidenceInterval:
    """x̄ + z(level)·s/√N for each level, s the sample standard deviation."""
    level_lo, level_hi = _check_levels(levels)
    x = np.asarray(X, dtype=np.float64)
    if x.size < 2:
        raise InputError(f"CLT interval needs at least 2 observations, got {x.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        xbar = float(np.mean(x))
        s = float(np.std(x, ddof=1))
    for name, value in (("mean", xbar), ("standard deviation", s)):
        if not math.isfinite(value):
            raise InstabilityError(f"sample {name} is {value}, not finite; CLT interval undefined")
    half = s / math.sqrt(x.size)
    return ConfidenceInterval(
        lower=xbar + normal_quantile(level_lo) * half,
        upper=xbar + normal_quantile(level_hi) * half,
        level_lo=level_lo,
        level_hi=level_hi,
        target="mean",
    )


@dataclass(frozen=True)
class BootstrapConfig:
    """Pairs bootstrap of the terminal statistic t_N (Freedman 1981).

    Each replicate redraws the pairs (X_i, Y_i) jointly with replacement,
    which keeps the X·Y coupling the statistic is built from, and
    normalises its sum by n^(1/p).
    """

    replicates: int = 1000
    # The one plan, not a field: perfbench/spans.py reads it in traced runs.
    resample_mode: ClassVar[str] = "pairs"

    def __post_init__(self):
        if int(self.replicates) < 1:
            raise ParameterError(f"need at least one replicate, got {self.replicates}")


def bootstrap_ecdf(
    X, Y, mu_hat: float, p: float, cfg: BootstrapConfig, src: RandomSource
) -> WeightedEcdf:
    """Equal-weight ECDF of B resampled evaluations of t_N."""
    p = _check_p(p)
    # Gathering the products z_i = (x_i − μ̂)·y_i is exact: elementwise the
    # same operations as gathering x and y first, summed in the same order.
    _, _, z = _check_sample(X, Y, mu_hat)
    n = z.size
    B = int(cfg.replicates)
    scale = float(n) ** (-1.0 / p)

    g = src.generator()
    stats = np.empty(B, dtype=np.float64)
    block = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, B, block):
        rows = min(block, B - start)
        # a resample can repeat the largest |z_i| n times, past a finite Σ|z|
        with np.errstate(over="ignore", invalid="ignore"):
            stats[start : start + rows] = z[g.integers(0, n, size=(rows, n))].sum(axis=1) * scale
    if not np.isfinite(stats).all():
        raise InstabilityError(
            f"a resampled statistic is {stats[~np.isfinite(stats)][0]}: float64 overflow"
        )

    points = np.sort(stats, kind="stable")
    cum = np.arange(1, B + 1, dtype=np.float64) / B
    return WeightedEcdf(points=points, cum_weights=cum)


# How μ̂ is chosen: "true" takes the analytic mean, "full" the estimation
# sample's own mean, "pilot" the mean of a disjoint leading segment.
MU_MODES = ("true", "pilot", "full")


def draw_multipliers(p: float, src: RandomSource, count: int) -> np.ndarray:
    """count multipliers Y: symmetric p-stable with unit scale and location 1,
    so Ȳ ≈ 1 (the law of Y in T_n = n^(−1/p)·Σ(X_i − μ̂)·Y_i)."""
    return sample_stable(StableParams(p=p, delta=1.0), src, count)


def draw_sample(distribution, src: RandomSource, count: int, mu_mode: str, pilot_count, p: float):
    """(μ̂, estimation segment, Y): count draws of X from src's STREAM_X
    substream centred by one of MU_MODES (a "pilot" segment of pilot_count
    goes through split_pilot), and one multiplier of order p per estimation
    entry from STREAM_Y.
    """
    x = sample_distribution(distribution, src.substream(STREAM_X), count)
    if mu_mode == "pilot":
        mu_hat, x = split_pilot(x, pilot_count=pilot_count)
    else:
        mu_hat = distribution.mean() if mu_mode == "true" else float(np.mean(x))
    return mu_hat, x, draw_multipliers(p, src.substream(STREAM_Y), x.size)
