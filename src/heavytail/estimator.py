"""The p-stable resampling method.

Builds the running statistic T_n = n^(−1/p)·Σ_{i≤n}(X_i − μ̂)·Y_i, its
logarithmic empirical distribution Ĝ_N with 1/n weights, quantiles by the
left-continuous generalized inverse, and the resulting confidence
intervals for the mean μ and the criticality parameter α = 1 − 1/μ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kernels
from .errors import CapacityError, DomainError, InputError, InstabilityError, ParameterError
from .rng import RandomSource

# Degree-2/3 statistics enumerate all ordered index tuples; beyond this
# length the O(N^d) reference path is not usable.
DEGREE_D_LIMIT = 2000

# Relative threshold on |Ȳ|: below eps·max|Y| the interval denominator is
# numerically meaningless. The theory never hits this for p > 1, δ = 1,
# but finite samples can.
Y_BAR_RELATIVE_FLOOR = 1e-8

# Permutations are scanned in row blocks of about this many entries, so
# the (K, N) matrices of one block stay near 8 MB each however large K·N is.
_PERMUTATION_BLOCK_ENTRIES = 1 << 20


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
class TnSequence:
    """Running resampled statistic t_1..t_N with its construction context."""

    p: float
    values: np.ndarray
    mu_hat: float
    degree: int = 1
    normalization: str = "ddw"  # n^(−d/p); "hkm" uses n^(−(d−1+1/p))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class WeightedEcdf:
    """Step CDF: sorted support points with normalized cumulative weights.

    normalizer records the unnormalized total weight (the harmonic sum
    C_N for the logarithmic construction, 1.0 for equal-weight bootstrap
    collections).
    """

    points: np.ndarray
    cum_weights: np.ndarray
    normalizer: float

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
        idx = int(np.searchsorted(self.cum_weights, level, side="left"))
        idx = min(idx, len(self.points) - 1)
        return float(self.points[idx])


@dataclass(frozen=True)
class ConfidenceInterval:
    """Interval with per-bound defined-ness (α bounds can be undefined)."""

    lower: float | None
    upper: float | None
    level_lo: float
    level_hi: float
    target: str = "mean"  # "mean" | "alpha"
    degenerate: bool = False

    def __post_init__(self):
        if self.target not in ("mean", "alpha"):
            raise InputError(f"unknown interval target {self.target!r}")
        for bound in (self.lower, self.upper):
            if bound is not None and math.isnan(bound):
                raise InputError(f"interval bound is NaN: [{self.lower}, {self.upper}]")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise InputError(f"interval bounds out of order: [{self.lower}, {self.upper}]")

    @property
    def lower_defined(self) -> bool:
        return self.lower is not None

    @property
    def upper_defined(self) -> bool:
        return self.upper is not None

    @property
    def width(self) -> float | None:
        if self.lower is None or self.upper is None:
            return None
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """True when both bounds are defined and value lies between them."""
        return (
            self.lower is not None
            and self.upper is not None
            and self.lower <= value <= self.upper
        )


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


def compute_tn(X, Y, mu_hat: float, p: float) -> TnSequence:
    """Degree-1 statistic with kernel h(x) = x − μ̂, one compensated pass."""
    p = _check_p(p)
    x = _as_finite_vector(X, "X")
    y = _as_finite_vector(Y, "Y")
    if not math.isfinite(mu_hat):
        raise InputError(f"mean estimate must be finite, got {mu_hat}")
    if x.size == 0:
        raise InputError("need at least one observation")
    if x.size != y.size:
        raise InputError(f"length mismatch: {x.size} data values vs {y.size} multipliers")
    values = kernels.tn_scan(x, y, float(mu_hat), p)
    return TnSequence(p=p, values=values, mu_hat=float(mu_hat), degree=1)


def compute_tn_degree_d(X, Y, h, p: float, d: int, normalization: str = "ddw") -> TnSequence:
    """Reference statistic for kernel degree d by exact tuple enumeration.

    t_n = n^(−d/p)·Σ_{i1<…<id≤n} h(X_{i1},…,X_{id})·Y_{i1}⋯Y_{id}
    ("ddw"), or with n^(−(d−1+1/p)) ("hkm"). d=1 is admitted so the fast
    path can be cross-validated; h must be symmetric in its arguments,
    which is the caller's responsibility (no degeneracy check is possible
    without knowing the data law).
    """
    p = _check_p(p)
    d = int(d)
    if d not in (1, 2, 3):
        raise CapacityError(f"kernel degree must be 1, 2 or 3, got {d}")
    if normalization not in ("ddw", "hkm"):
        raise ParameterError(f"unknown normalization {normalization!r}")
    x = _as_float_vector(X, "X")
    y = _as_float_vector(Y, "Y")
    if x.size == 0:
        raise InputError("need at least one observation")
    if x.size != y.size:
        raise InputError(f"length mismatch: {x.size} data values vs {y.size} multipliers")
    if x.size > DEGREE_D_LIMIT:
        raise CapacityError(f"tuple enumeration limited to N <= {DEGREE_D_LIMIT}, got {x.size}")

    exponent = d / p if normalization == "ddw" else d - 1.0 + 1.0 / p
    xs, ys = x.tolist(), y.tolist()
    n_total = len(xs)
    out = np.empty(n_total, dtype=np.float64)
    s = 0.0
    comp = 0.0
    for n in range(1, n_total + 1):
        xn, yn = xs[n - 1], ys[n - 1]
        if d == 1:
            inc = h(xn) * yn
        elif d == 2:
            inner = 0.0
            ic = 0.0
            for i in range(n - 1):
                term = h(xs[i], xn) * ys[i]
                u = term - ic
                t = inner + u
                ic = (t - inner) - u
                inner = t
            inc = yn * inner
        else:
            inner = 0.0
            ic = 0.0
            for i in range(n - 1):
                for j in range(i + 1, n - 1):
                    term = h(xs[i], xs[j], xn) * ys[i] * ys[j]
                    u = term - ic
                    t = inner + u
                    ic = (t - inner) - u
                    inner = t
            inc = yn * inner
        u = inc - comp
        t = s + u
        comp = (t - s) - u
        s = t
        out[n - 1] = s * math.pow(n, -exponent)
    return TnSequence(
        p=p, values=out, mu_hat=float("nan"), degree=d, normalization=normalization
    )


def build_log_ecdf(tn: TnSequence, burn_in: int = 0) -> WeightedEcdf:
    """Ĝ_N(t) = (1/C)·Σ_{n>burn_in} (1/n)·1{t_n ≤ t}, C = Σ_{n>burn_in} 1/n."""
    burn_in = int(burn_in)
    values = tn.values if isinstance(tn, TnSequence) else _as_float_vector(tn, "tn")
    n_total = len(values)
    if burn_in < 0:
        raise InputError(f"burn-in must be nonnegative, got {burn_in}")
    if burn_in >= n_total:
        raise InputError(f"burn-in {burn_in} leaves no terms out of {n_total}")
    weights, points, cum = _sorted_log_ecdf(
        np.asarray(values[burn_in:], dtype=np.float64)[None, :], burn_in
    )
    normalizer = kernels.kahan_sum(weights)
    return WeightedEcdf(points=points[0], cum_weights=cum[0], normalizer=float(normalizer))


def _sorted_log_ecdf(ts: np.ndarray, burn_in: int):
    """Weights 1/n, sorted points and cumulative weights of a (K, M) matrix.

    ts holds K sequences t_{burn_in+1}, …, t_{burn_in+M} as rows. Each row
    is sorted stably, so tied values keep their index order, and its 1/n
    weights are summed in that order and divided by the row total.
    """
    weights = 1.0 / np.arange(burn_in + 1, burn_in + ts.shape[1] + 1, dtype=np.float64)
    order = np.argsort(ts, axis=1, kind="stable")
    points = np.take_along_axis(ts, order, axis=1)
    cum = np.cumsum(weights[order], axis=1)
    cum /= cum[:, -1:]
    return weights, points, cum


def _log_ecdf_quantiles(tn_rows: np.ndarray, burn_in: int, levels) -> np.ndarray:
    """Quantiles of the logarithmic ECDF of every row of a (K, N) matrix.

    Entry [j, k] is bit-identical to
    build_log_ecdf(tn_rows[k], burn_in).quantile(levels[j]): both take
    their points and weights from _sorted_log_ecdf, and counting the
    entries below the level finds the index searchsorted(side="left")
    finds, because the cumulative weights never decrease.
    """
    _, points, cum = _sorted_log_ecdf(tn_rows[:, burn_in:], burn_in)
    last = points.shape[1] - 1
    rows = np.arange(points.shape[0])
    return np.stack(
        [points[rows, np.minimum((cum < level).sum(axis=1), last)] for level in levels]
    )


def ecdf_quantile(ecdf: WeightedEcdf, level: float) -> float:
    return ecdf.quantile(level)


def ecdf_sup_distance(a: WeightedEcdf, b: WeightedEcdf) -> float:
    """sup_t |A(t) − B(t)|; exact for step functions via the joint support."""
    grid = np.concatenate([a.points, b.points])
    return float(np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))))


def ci_mean(
    XY_bar: float,
    Y_bar: float,
    U: float,
    L: float,
    n: int,
    p: float,
    *,
    levels,
    y_scale: float | None = None,
    degenerate: bool = False,
) -> ConfidenceInterval:
    """[(X̄Y − U/n^(1−1/p))/Ȳ, (X̄Y − L/n^(1−1/p))/Ȳ] at the given levels.

    y_scale should carry max|Y_i| so the |Ȳ| stability floor is relative
    to the data magnitude.
    """
    p = _check_p(p)
    level_lo, level_hi = _check_levels(levels)
    n = int(n)
    if n < 1:
        raise InputError(f"need a positive sample count, got {n}")
    if L > U:
        raise InputError(f"quantiles out of order: L={L} > U={U}")
    floor = Y_BAR_RELATIVE_FLOOR * (y_scale if y_scale is not None and y_scale > 0 else 1.0)
    if abs(Y_bar) <= floor:
        raise InstabilityError(
            f"resampling mean {Y_bar} is below the stability floor {floor}; interval undefined"
        )
    scale = n ** (1.0 - 1.0 / p)
    e1 = (XY_bar - U / scale) / Y_bar
    e2 = (XY_bar - L / scale) / Y_bar
    lower, upper = (e1, e2) if e1 <= e2 else (e2, e1)
    return ConfidenceInterval(
        lower=lower,
        upper=upper,
        level_lo=level_lo,
        level_hi=level_hi,
        target="mean",
        degenerate=degenerate,
    )


def ci_alpha(ci_mu: ConfidenceInterval) -> ConfidenceInterval:
    """Map mean bounds through μ ↦ 1 − 1/μ; a bound maps only when E > 0.

    An undefined bound is a valid outcome (the reported interval is
    one-sided), not an error.
    """
    if ci_mu.target != "mean":
        raise InputError(f"alpha mapping requires a mean interval, got target {ci_mu.target!r}")

    def mapped(e):
        if e is None or e <= 0.0:
            return None
        return 1.0 - 1.0 / e

    return ConfidenceInterval(
        lower=mapped(ci_mu.lower),
        upper=mapped(ci_mu.upper),
        level_lo=ci_mu.level_lo,
        level_hi=ci_mu.level_hi,
        target="alpha",
        degenerate=ci_mu.degenerate,
    )


def split_pilot(X, pilot_count: int | None = None, pilot_fraction: float = 0.1):
    """Split off a leading pilot segment; returns (μ̂, estimation segment).

    The pilot and estimation segments are disjoint, so μ̂ is independent
    of the data the statistic runs on.
    """
    x = _as_finite_vector(X, "X")
    if pilot_count is None:
        pilot_count = max(1, int(round(pilot_fraction * x.size)))
    pilot_count = int(pilot_count)
    if not 1 <= pilot_count < x.size:
        raise InputError(
            f"pilot count must leave a nonempty estimation segment: {pilot_count} of {x.size}"
        )
    mu_hat = float(np.mean(x[:pilot_count]))
    return mu_hat, x[pilot_count:]


@dataclass(frozen=True)
class PstableEstimate:
    """Full output of one p-stable estimation pass."""

    tn: TnSequence
    ecdf: WeightedEcdf
    quantile_lo: float
    quantile_hi: float
    ci_mu: ConfidenceInterval
    ci_alpha: ConfidenceInterval
    xy_bar: float
    y_bar: float
    n_perms: int = 1


def pstable_estimate(
    X,
    Y,
    mu_hat: float,
    p: float,
    levels,
    *,
    burn_in: int = 0,
    n_perms: int = 1,
    src: RandomSource | None = None,
    permute_pairs: bool = False,
) -> PstableEstimate:
    """One estimation pass, optionally averaging quantiles over permutations.

    Permutation 0 is always the identity; its T_n sequence and ECDF are
    returned. Permutations 1..n_perms−1 are uniform draws from src, in
    order, reordering Y alone or the (X, Y) pairs jointly. They are
    stacked into a (K, N) index matrix, in row blocks that bound memory,
    and scanned together by kernels.tn_scan_batch; their quantiles come
    from each row's logarithmic ECDF, bit-identical to building one
    WeightedEcdf per permutation. Quantiles are averaged in
    permutation-index order (compensated), so results do not depend on
    evaluation scheduling. The interval itself is built from the
    unpermuted X̄Y and Ȳ: averaging over all permutations leaves the
    expectation of X̄Y at X̄·Ȳ, so permuted runs only sharpen the quantile
    estimates of the limit law.
    """
    n_perms = int(n_perms)
    if n_perms < 1:
        raise ParameterError(f"permutation count must be >= 1, got {n_perms}")
    level_lo, level_hi = _check_levels(levels)
    x = _as_finite_vector(X, "X")
    y = _as_finite_vector(Y, "Y")
    if n_perms > 1 and src is None:
        raise InputError("permutation averaging needs a RandomSource")

    base_tn = compute_tn(x, y, mu_hat, p)
    base_ecdf = build_log_ecdf(base_tn, burn_in)
    lo_vals = [base_ecdf.quantile(level_lo)]
    hi_vals = [base_ecdf.quantile(level_hi)]

    if n_perms > 1:
        g = src.generator()
        mu_hat = base_tn.mu_hat
        # Elementwise the same float64 operations as tn_scan's
        # (x_i − μ̂)·y_i, so gathering before or after the product is exact.
        x_centred = x - mu_hat
        z = x_centred * y
        block = max(1, _PERMUTATION_BLOCK_ENTRIES // x.size)
        for start in range(0, n_perms - 1, block):
            rows = min(block, n_perms - 1 - start)
            perms = np.stack([g.permutation(x.size) for _ in range(rows)])
            z_perm = z[perms] if permute_pairs else x_centred * y[perms]
            q_lo, q_hi = _log_ecdf_quantiles(
                kernels.tn_scan_batch(z_perm, base_tn.p), burn_in, (level_lo, level_hi)
            )
            lo_vals.extend(q_lo.tolist())
            hi_vals.extend(q_hi.tolist())

    q_lo = kernels.kahan_sum(np.asarray(lo_vals)) / n_perms
    q_hi = kernels.kahan_sum(np.asarray(hi_vals)) / n_perms
    xy_bar = float(np.mean(x * y))
    y_bar = float(np.mean(y))
    interval = ci_mean(
        xy_bar,
        y_bar,
        q_hi,
        q_lo,
        x.size,
        p,
        levels=(level_lo, level_hi),
        y_scale=float(np.max(np.abs(y))),
    )
    return PstableEstimate(
        tn=base_tn,
        ecdf=base_ecdf,
        quantile_lo=q_lo,
        quantile_hi=q_hi,
        ci_mu=interval,
        ci_alpha=ci_alpha(interval),
        xy_bar=xy_bar,
        y_bar=y_bar,
        n_perms=n_perms,
    )


def permutation_average(
    X,
    Y,
    mu_hat: float,
    p: float,
    n_perms: int,
    levels,
    src: RandomSource | None = None,
    *,
    burn_in: int = 0,
    permute_pairs: bool = False,
) -> ConfidenceInterval:
    """Permutation-averaged confidence interval for the mean."""
    return pstable_estimate(
        X,
        Y,
        mu_hat,
        p,
        levels,
        burn_in=burn_in,
        n_perms=n_perms,
        src=src,
        permute_pairs=permute_pairs,
    ).ci_mu
