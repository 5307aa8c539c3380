"""Abelian avalanche-size distribution and its quasi-binomial companion.

PMF, moments, their N→∞ limits, and the fitted log-log pmf slope of the
near-critical power law. Everything here is a pure function of value
inputs. Above N = 50 the pmf is evaluated in logs, with the binomial
coefficient as the exact log-binomial `_log_binom`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _prefix_sums
from .errors import CapacityError, DomainError, ParameterError

# Above this system size the direct PMF product overflows float64
# (b^(b-2) alone passes 1e308 near b = 160), so evaluation moves to logs.
_DIRECT_EVAL_LIMIT = 50

# Exact pmf and CDF tables (the Abelian pmf here, the cutoff power law in
# rng) are built up to this support size; beyond it the table itself
# becomes the bottleneck and the artifact has no use case.
TABLE_LIMIT = 10**6


@dataclass(frozen=True)
class AbelianParams:
    """System size N with criticality α = N·p; requires 0 < p < 1/N."""

    N: int
    alpha: float

    def __post_init__(self):
        if int(self.N) < 1:
            raise ParameterError(f"system size must be a positive integer, got {self.N}")
        if int(self.N) > TABLE_LIMIT:
            raise CapacityError(f"system size {self.N} exceeds the exact-table limit {TABLE_LIMIT}")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(
                f"criticality must satisfy 0 < alpha < 1 (i.e. 0 < p < 1/N), got {self.alpha}"
            )

    @classmethod
    def from_p(cls, N: int, p: float) -> "AbelianParams":
        return cls(N=int(N), alpha=float(N) * float(p))

    @property
    def p(self) -> float:
        return self.alpha / self.N

    @property
    def c_constant(self) -> float:
        """Normalizer C_{N,p} = (1 − Np)/(1 − (N−1)p), in (0, 1]."""
        return (1.0 - self.alpha) / (1.0 - (self.N - 1) * self.p)


def _check_support(params: AbelianParams, b: int) -> int:
    b = int(b)
    if not 1 <= b <= params.N:
        raise DomainError(f"support is {{1..{params.N}}}, got b={b}")
    return b


def _abelian_pmf_direct(params: AbelianParams, b: np.ndarray) -> np.ndarray:
    N, p = params.N, params.p
    binom = np.array([math.comb(N - 1, int(v) - 1) for v in b], dtype=np.float64)
    bf = b.astype(np.float64)
    return (
        params.c_constant
        * binom
        * p ** (bf - 1.0)
        * (1.0 - bf * p) ** (N - bf - 1.0)
        * bf ** (bf - 2.0)
    )


def _log_binom(n: int, k: np.ndarray) -> np.ndarray:
    """log C(n, k) for integers 0 ≤ k ≤ n.

    Compensated prefix sums of log((n − j + 1)/j), j = 1..min(k, n − k). At
    n = 10^6 − 1 these stay within one ulp of log(math.comb(n, k)), where a
    difference of log-gammas loses up to 2.6e-9 to cancellation.
    """
    m = np.minimum(k, n - k)
    j = np.arange(1, int(m.max()) + 1, dtype=np.float64)
    sums = np.concatenate(([0.0], _prefix_sums(np.log((n - j + 1.0) / j))))
    return sums[m]


def _abelian_logpmf(params: AbelianParams, b: np.ndarray) -> np.ndarray:
    N, p = params.N, params.p
    bf = b.astype(np.float64)
    return (
        np.log(params.c_constant)
        + _log_binom(N - 1, b - 1)
        + (bf - 1.0) * np.log(p)
        + (N - bf - 1.0) * np.log1p(-bf * p)
        + (bf - 2.0) * np.log(bf)
    )


def abelian_pmf(params: AbelianParams, b: int) -> float:
    """P(Z = b) = C_{N,p}·binom(N−1, b−1)·p^(b−1)·(1−bp)^(N−b−1)·b^(b−2)."""
    b = _check_support(params, b)
    arr = np.array([b], dtype=np.int64)
    if params.N <= _DIRECT_EVAL_LIMIT:
        return float(_abelian_pmf_direct(params, arr)[0])
    return float(np.exp(_abelian_logpmf(params, arr))[0])


def abelian_pmf_vector(params: AbelianParams) -> np.ndarray:
    """PMF over the whole support {1..N}, in support order."""
    b = np.arange(1, params.N + 1, dtype=np.int64)
    if params.N <= _DIRECT_EVAL_LIMIT:
        return _abelian_pmf_direct(params, b)
    return np.exp(_abelian_logpmf(params, b))


def abelian_mean(params: AbelianParams) -> float:
    """E(Z) = N/(N − (N−1)α)."""
    return params.N / (params.N - (params.N - 1) * params.alpha)


def abelian_second_moment(params: AbelianParams) -> float:
    """E(Z²) = (C/p)·[1/(1−Np) − 1 − Σ_{i=1}^{N−1} ((N−1)!/(N−1−i)!)·p^i].

    The inner sum is accumulated as running products α^i·Π_{j≤i}(1 − j/N),
    each term bounded by α^i, so no factorial ratio is ever formed.
    """
    N, alpha = params.N, params.alpha
    if N == 1:
        inner = 0.0
    else:
        factors = alpha * (1.0 - np.arange(1, N, dtype=np.float64) / N)
        inner = float(np.sum(np.cumprod(factors)))
    bracket = alpha / (1.0 - alpha) - inner
    return (params.c_constant / params.p) * bracket


def abelian_variance(params: AbelianParams) -> float:
    """Var(Z) = E(Z²) − E(Z)²."""
    m = abelian_mean(params)
    return abelian_second_moment(params) - m * m


def abelian_limits(alpha: float) -> tuple[float, float]:
    """N→∞ limits (mean, variance) = (1/(1−α), α/(1−α)³)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"limits require 0 < alpha < 1, got {alpha}")
    one_m = 1.0 - alpha
    return 1.0 / one_m, alpha / one_m**3


def quasibinomial1_pmf(N: int, p: float, b: int) -> float:
    """P(Y = b) = binom(N,b)·p^b·(1−(b+1)p)^(N−b)·(b+1)^(b−1) on {0..N}."""
    N = int(N)
    if N < 0:
        raise ParameterError(f"N must be nonnegative, got {N}")
    if not 0.0 < p < 1.0 / (N + 1):
        raise ParameterError(f"quasi-binomial I requires 0 < p < 1/(N+1), got p={p}")
    b = int(b)
    if not 0 <= b <= N:
        raise DomainError(f"support is {{0..{N}}}, got b={b}")
    if N <= _DIRECT_EVAL_LIMIT:
        return math.comb(N, b) * p**b * (1.0 - (b + 1) * p) ** (N - b) * float(b + 1) ** (b - 1)
    logv = (
        _log_binom(N, np.array([b]))[0]
        + b * math.log(p)
        + (N - b) * math.log1p(-(b + 1) * p)
        + (b - 1) * math.log(b + 1.0)
    )
    return float(np.exp(logv))


def quasibinomial1_mean(N: int, p: float) -> float:
    """E(Y) = Σ_{i=1}^{N} (N!/(N−i)!)·p^i, by running products."""
    N = int(N)
    if N < 0:
        raise ParameterError(f"N must be nonnegative, got {N}")
    if not 0.0 < p < 1.0 / (N + 1):
        raise ParameterError(f"quasi-binomial I requires 0 < p < 1/(N+1), got p={p}")
    if N == 0:
        return 0.0
    factors = p * np.arange(N, 0, -1, dtype=np.float64)
    return float(np.sum(np.cumprod(factors)))


def verify_mean_identity(N: int, p: float) -> tuple[bool, float]:
    """Check 1 + E(Y_{N,p}) = [E(Z_{N+1,p}) − p·E(Z²_{N+1,p})]/C_{N+1,p}.

    Returns (holds within 1e-10 relative, relative residual).
    """
    lhs = 1.0 + quasibinomial1_mean(N, p)
    params = AbelianParams.from_p(N + 1, p)
    rhs = (abelian_mean(params) - p * abelian_second_moment(params)) / params.c_constant
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return residual <= 1e-10, residual


def pl_ratio_diagnostic(params: AbelianParams, k_range: tuple[int, int]) -> float:
    """Least-squares slope of log pmf vs log k over an integer k-range.

    Near criticality (α → 1, N large relative to max k) the slope
    approaches −1.5.
    """
    lo, hi = int(k_range[0]), int(k_range[1])
    if not 1 <= lo <= hi <= params.N:
        raise DomainError(f"k-range [{lo}, {hi}] outside support {{1..{params.N}}}")
    if lo == hi:
        raise DomainError("slope is undefined on a single-point k-range")
    k = np.arange(lo, hi + 1, dtype=np.int64)
    logpmf = _abelian_logpmf(params, k)
    return float(np.polyfit(np.log(k.astype(np.float64)), logpmf, 1)[0])
