"""The p-stable resampling method.

Builds the running statistic T_n = n^(−1/p)·Σ_{i≤n}(X_i − μ̂)·Y_i, its
logarithmic empirical distribution Ĝ_N with 1/n weights, quantiles by the
left-continuous generalized inverse, and the resulting confidence
intervals for the mean μ and the criticality parameter α = 1 − 1/μ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .errors import DomainError, InputError, InstabilityError, ParameterError
from .rng import RandomSource

# Relative threshold on |Ȳ|: below eps·max|Y| the interval denominator is
# numerically meaningless. The theory never hits this for p > 1, δ = 1,
# but finite samples can.
Y_BAR_RELATIVE_FLOOR = 1e-8

# Share of the data that split_pilot spends on μ̂ when no pilot count is given.
PILOT_FRACTION = 0.1

# Permuted and resampled (baselines) index matrices are built in row blocks
# of about this many entries: 2 MiB of indices and as much of each array made
# of them, below the CLI's mmap threshold (cli._keep_freed_heap). On fig5,
# bootstrap blocks of 2^16 to 2^19 entries ran alike on one worker and 2^18
# fastest on two. The draws do not depend on the blocking.
_BLOCK_ENTRIES = 2**18


def _check_p(p: float) -> float:
    # p = 2 is the Gaussian boundary; allowed as a test mode even though
    # the method is aimed at p strictly inside (1, 2).
    p = float(p)
    if not 1.0 < p <= 2.0:
        raise ParameterError(f"stability order must lie in (1, 2], got {p}")
    return p


def _check_levels(levels) -> tuple[float, float]:
    lo, hi = float(levels[0]), float(levels[1])
    if not (0.0 < lo < hi < 1.0):
        raise ParameterError(f"levels must satisfy 0 < lo < hi < 1, got ({lo}, {hi})")
    return lo, hi


@dataclass(frozen=True)
class WeightedEcdf:
    """Step CDF: sorted support points with normalized cumulative weights."""

    points: np.ndarray
    cum_weights: np.ndarray

    def evaluate(self, t):
        """Ĝ(t): total weight at points ≤ t."""
        idx = np.searchsorted(self.points, np.asarray(t, dtype=np.float64), side="right")
        padded = np.concatenate([[0.0], self.cum_weights])
        out = padded[idx]
        return float(out) if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def quantile(self, level: float) -> float:
        """Smallest t with Ĝ(t) ≥ level (left-continuous inverse)."""
        level = float(level)
        if not 0.0 < level < 1.0:
            raise DomainError(f"quantile level must lie in (0,1), got {level}")
        return float(_left_inverse(self.points, self.cum_weights, level))


def _left_inverse(points: np.ndarray, cum: np.ndarray, level: float):
    """Smallest point whose cumulative weight reaches level, along the last axis.

    points and cum are one sorted step CDF or K of them as rows. The weights
    never decrease along a row, so that point's index is the count of
    weights below the level, capped at the last point.
    """
    idx = np.minimum((cum < level).sum(axis=-1), points.shape[-1] - 1)
    return np.take_along_axis(points, idx[..., None], axis=-1)[..., 0]


@dataclass(frozen=True)
class ConfidenceInterval:
    """Interval with per-bound defined-ness (α bounds can be undefined).

    A defined bound is finite: NaN is an input error, ±∞ an overflow.
    """

    lower: float | None
    upper: float | None
    level_lo: float
    level_hi: float
    target: str = "mean"  # "mean" | "alpha"

    def __post_init__(self):
        if self.target not in ("mean", "alpha"):
            raise InputError(f"unknown interval target {self.target!r}")
        for bound in (self.lower, self.upper):
            if bound is not None and math.isnan(bound):
                raise InputError(f"interval bound is NaN: [{self.lower}, {self.upper}]")
            if bound is not None and math.isinf(bound):
                raise InstabilityError(f"interval bound is {bound}: float64 overflow")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise InputError(f"interval bounds out of order: [{self.lower}, {self.upper}]")

    def bound_columns(self) -> dict:
        """The lower, upper, lower_defined, upper_defined columns of a CSV row."""
        return {
            "lower": self.lower,
            "upper": self.upper,
            "lower_defined": self.lower is not None,
            "upper_defined": self.upper is not None,
        }

    def contains(self, value: float) -> bool:
        """True when value lies between the bounds. An undefined lower bound
        is unbounded below (an α interval whose mean interval reaches zero);
        an interval with no upper bound holds nothing (its mean interval is
        nonpositive, so no α maps from it)."""
        below_upper = self.upper is not None and value <= self.upper
        return below_upper and (self.lower is None or self.lower <= value)


def _as_float_vector(seq, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(seq, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError(f"{name} must be one-dimensional")
    return arr


def _as_finite_vector(seq, name: str) -> np.ndarray:
    arr = _as_float_vector(seq, name)
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise InputError(f"{name} must be finite, got {arr[bad]} at position {bad}")
    return arr


def _check_sample(X, Y, mu_hat: float):
    """X and Y as finite, nonempty float64 vectors of one length (μ̂ finite),
    and their increments z = (x − μ̂)·y.

    Finite data can overflow float64 in z, or in a sum of its entries;
    either leaves the interval undefined, before any scan runs on it. The
    first entry that is not finite is named; else a finite Σ|z| bounds
    every prefix sum of every ordering of z.
    """
    x = _as_finite_vector(X, "X")
    y = _as_finite_vector(Y, "Y")
    if not math.isfinite(mu_hat):
        raise InputError(f"mean estimate must be finite, got {mu_hat}")
    if x.size == 0:
        raise InputError("need at least one observation")
    if x.size != y.size:
        raise InputError(f"length mismatch: {x.size} data values vs {y.size} multipliers")
    with np.errstate(over="ignore", invalid="ignore"):
        z = (x - float(mu_hat)) * y
        total = float(np.abs(z).sum())
    if not np.isfinite(z).all():
        bad = int(np.flatnonzero(~np.isfinite(z))[0])
        raise InstabilityError(
            f"increment (x − μ̂)·y is {z[bad]} at position {bad}, not finite; interval undefined"
        )
    if not math.isfinite(total):
        raise InstabilityError(
            f"sum of |(x − μ̂)·y| is {total}: its running sums overflow float64; interval undefined"
        )
    return x, y, z


def compute_tn(X, Y, mu_hat: float, p: float) -> np.ndarray:
    """t_1..t_N of the degree-1 statistic, kernel h(x) = x − μ̂, one compensated pass."""
    p = _check_p(p)
    _, _, z = _check_sample(X, Y, mu_hat)
    return kernels.tn_scan(z, p)


def build_log_ecdf(tn, burn_in: int = 0) -> WeightedEcdf:
    """Ĝ_N(t) = (1/C)·Σ_{n>burn_in} (1/n)·1{t_n ≤ t}, C = Σ_{n>burn_in} 1/n."""
    points, cum, _ = _sorted_log_ecdf(_as_float_vector(tn, "tn")[None, :], burn_in)
    return WeightedEcdf(points=points[0], cum_weights=cum[0])


def _sorted_log_ecdf(tn_rows: np.ndarray, burn_in: int):
    """Each row's sorted points, cumulative 1/n weights and order, for (K, N) tn_rows.

    Each row holds t_1, …, t_N; its first burn_in terms are dropped. The
    rest is sorted stably, so tied values keep their index order, and its
    1/n weights are summed in that order and divided by the row total.
    points[k, j] is tn_rows[k, burn_in + order[k, j]].
    A row of distinct values has one sorted order, so only the rows that
    are not strictly increasing after the default sort (ties, signed zeros,
    NaN) are sorted again with the stable one.
    """
    burn_in = int(burn_in)
    n_total = tn_rows.shape[1]
    if burn_in < 0:
        raise InputError(f"burn-in must be nonnegative, got {burn_in}")
    if burn_in >= n_total:
        raise InputError(f"burn-in {burn_in} leaves no terms out of {n_total}")
    ts = tn_rows[:, burn_in:]
    weights = 1.0 / np.arange(burn_in + 1, n_total + 1, dtype=np.float64)
    order = np.argsort(ts, axis=1)
    points = np.take_along_axis(ts, order, axis=1)
    tied = np.flatnonzero(~np.all(points[:, 1:] > points[:, :-1], axis=1))
    if tied.size:
        order[tied] = np.argsort(ts[tied], axis=1, kind="stable")
        points[tied] = np.take_along_axis(ts[tied], order[tied], axis=1)
    cum = np.cumsum(weights[order], axis=1)
    cum /= cum[:, -1:]
    return points, cum, order


def ecdf_sup_distance(a: WeightedEcdf, b: WeightedEcdf) -> float:
    """sup_t |A(t) − B(t)|; exact for step functions via the joint support."""
    grid = np.concatenate([a.points, b.points])
    return float(np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))))


def quantile_interval(
    x: np.ndarray, y: np.ndarray, q_lo: float, q_hi: float, p: float, levels
) -> ConfidenceInterval:
    """[(X̄Y − U/n^(1−1/p))/Ȳ, (X̄Y − L/n^(1−1/p))/Ȳ] of the sample (x, y) at
    the quantiles L = q_lo ≤ U = q_hi of its levels.

    X̄Y and Ȳ come from the unpermuted sample, and |Ȳ| must exceed a
    stability floor relative to max|Y_i|. A value that is not finite
    (finite data can overflow float64) leaves the interval undefined.
    """
    level_lo, level_hi = _check_levels(levels)
    if x.size == 0:
        raise InputError("need at least one observation")
    with np.errstate(over="ignore", invalid="ignore"):
        xy_bar, y_bar = float(np.mean(x * y)), float(np.mean(y))
    for name, value in (("X̄Y", xy_bar), ("Ȳ", y_bar), ("lower quantile", q_lo),
                        ("upper quantile", q_hi)):
        if not math.isfinite(value):
            raise InstabilityError(f"{name} is {value}, not finite; interval undefined")
    if q_lo > q_hi:
        raise InputError(f"quantiles out of order: L={q_lo} > U={q_hi}")
    y_scale = float(np.max(np.abs(y)))
    floor = Y_BAR_RELATIVE_FLOOR * (y_scale if y_scale > 0 else 1.0)
    if abs(y_bar) <= floor:
        raise InstabilityError(
            f"resampling mean {y_bar} is below the stability floor {floor}; interval undefined"
        )
    scale = x.size ** (1.0 - 1.0 / p)
    e1 = (xy_bar - q_hi / scale) / y_bar
    e2 = (xy_bar - q_lo / scale) / y_bar
    lower, upper = (e1, e2) if e1 <= e2 else (e2, e1)
    return ConfidenceInterval(
        lower=lower, upper=upper, level_lo=level_lo, level_hi=level_hi, target="mean"
    )


def alpha_from_mean(mu: float | None) -> float | None:
    """Criticality α = 1 − 1/μ; None unless μ > 0."""
    if mu is None or mu <= 0.0:
        return None
    return 1.0 - 1.0 / mu


def ci_alpha(ci_mu: ConfidenceInterval) -> ConfidenceInterval:
    """Map both mean bounds through alpha_from_mean.

    An undefined bound is a valid outcome (the reported interval is
    one-sided), not an error.
    """
    if ci_mu.target != "mean":
        raise InputError(f"alpha mapping requires a mean interval, got target {ci_mu.target!r}")
    return ConfidenceInterval(
        lower=alpha_from_mean(ci_mu.lower),
        upper=alpha_from_mean(ci_mu.upper),
        level_lo=ci_mu.level_lo,
        level_hi=ci_mu.level_hi,
        target="alpha",
    )


def split_pilot(X, pilot_count: int | None = None):
    """Split off a leading pilot segment; returns (μ̂, estimation segment).

    The pilot holds pilot_count observations, by default the leading
    PILOT_FRACTION of X. The pilot and estimation segments are disjoint,
    so μ̂ is independent of the data the statistic runs on.
    """
    x = _as_finite_vector(X, "X")
    if pilot_count is None:
        pilot_count = max(1, int(round(PILOT_FRACTION * x.size)))
    pilot_count = int(pilot_count)
    if not 1 <= pilot_count < x.size:
        raise InputError(
            f"pilot count must leave a nonempty estimation segment: {pilot_count} of {x.size}"
        )
    mu_hat = float(np.mean(x[:pilot_count]))
    return mu_hat, x[pilot_count:]


@dataclass(frozen=True)
class PstableEstimate:
    """One p-stable estimation pass: the identity ordering's T_n and its
    logarithmic ECDF, and each level pair's averaged (lower, upper)
    quantiles and mean interval, in level-pair order."""

    tn: np.ndarray
    ecdf: WeightedEcdf
    # ecdf.points[j] is tn[ecdf_index[j]]
    ecdf_index: np.ndarray
    quantiles: tuple[tuple[float, float], ...]
    intervals: tuple[ConfidenceInterval, ...]


def pstable_estimate(
    X,
    Y,
    mu_hat: float,
    p: float,
    level_pairs,
    *,
    burn_in: int = 0,
    n_perms: int = 1,
    src: RandomSource | None = None,
) -> PstableEstimate:
    """One estimation pass over n_perms orderings, read at each (lo, hi) of level_pairs.

    Ordering 0 is the identity; the others are uniform draws from src, in
    order, each reordering the (X, Y) pairs jointly. Every ordering
    takes the same route: its row of a (K, N) index matrix, the identity
    as row 0, gathers the increments (x_i − μ̂)·y_i, kernels.tn_scan scans
    the rows of a block together, and each row's logarithmic ECDF is
    inverted at every level. Blocks of rows bound memory; each block's
    draws are one g.permuted call, which takes the same stream as one
    g.permutation per row. The identity's T_n sequence and ECDF are
    copied out of the first block. Each level's quantiles are averaged
    from their correctly rounded total (math.fsum), so results do not
    depend on evaluation scheduling. Each interval is built from X̄Y and
    Ȳ, which no reordering of the pairs changes, so the orderings only
    sharpen the quantile estimates of the limit law.
    """
    n_perms = int(n_perms)
    if n_perms < 1:
        raise ParameterError(f"permutation count must be >= 1, got {n_perms}")
    pairs = [_check_levels(levels) for levels in level_pairs]
    if not pairs:
        raise ParameterError("need at least one level pair")
    p = _check_p(p)
    x, y, z = _check_sample(X, Y, mu_hat)
    if n_perms > 1 and src is None:
        raise InputError("permutation averaging needs a RandomSource")

    g = src.generator() if n_perms > 1 else None
    levels = [level for pair in pairs for level in pair]
    quantiles = np.empty((len(levels), n_perms))
    block = max(1, _BLOCK_ENTRIES // x.size)
    for start in range(0, n_perms, block):
        perms = np.tile(np.arange(x.size), (min(block, n_perms - start), 1))
        if n_perms > 1:
            # row 0 of the first block stays the identity
            drawn = perms[1:] if start == 0 else perms
            g.permuted(drawn, axis=1, out=drawn)
        tn_rows = kernels.tn_scan(z[perms], p)
        points, cum, order = _sorted_log_ecdf(tn_rows, burn_in)
        for row, level in zip(quantiles, levels):
            row[start:start + len(perms)] = _left_inverse(points, cum, level)
        if start == 0:
            # copies, so the estimate does not hold the whole block alive
            tn = tn_rows[0].copy()
            ecdf = WeightedEcdf(points=points[0].copy(), cum_weights=cum[0].copy())
            ecdf_index = int(burn_in) + order[0]

    means = [math.fsum(row.tolist()) / n_perms for row in quantiles]
    pair_means = tuple(zip(means[0::2], means[1::2]))
    intervals = tuple(quantile_interval(x, y, lo, hi, p, pair)
                      for pair, (lo, hi) in zip(pairs, pair_means))
    return PstableEstimate(tn, ecdf, ecdf_index, pair_means, intervals)
