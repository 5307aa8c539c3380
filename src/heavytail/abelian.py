"""Abelian avalanche-size distribution.

PMF and moments, each a pure function of value inputs. The pmf is
evaluated in logs at every N, with the binomial coefficient as the exact
log-binomial `_log_binom`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import _prefix_sums
from .errors import CapacityError, ParameterError

# Exact pmf and CDF tables (the Abelian pmf here, the cutoff power law in
# rng) are built up to this support size; beyond it the table itself
# becomes the bottleneck and the artifact has no use case.
TABLE_LIMIT = 10**6


class Tabled:
    """A law on {1, …, N}, drawn by binary search in its CDF table; its mean
    exists and is at least 1. A subclass's weights() gives its weights on
    {1, …, N} as a new array, which table turns into the CDF in place, and
    its mean."""

    def sample(self, src, count: int) -> np.ndarray:
        """Inverse-CDF draws as float64: the smallest k ≥ 1 with CDF(k) ≥ u."""
        return np.searchsorted(self.table[0], src.generator().random(count)) + 1.0

    @cached_property
    def table(self) -> tuple[np.ndarray, float]:
        """(read-only CDF over {1, …, N}, mean), built from weights the first
        time it is read and kept as long as the law."""
        weights, mean = self.weights()
        cdf = np.cumsum(weights, out=weights)
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return cdf, mean


def _check_size(N: int) -> int:
    """A system size N, 1 ≤ N ≤ TABLE_LIMIT."""
    if int(N) < 1:
        raise ParameterError(f"system size must be a positive integer, got {N}")
    if int(N) > TABLE_LIMIT:
        raise CapacityError(f"system size {N} exceeds the exact-table limit {TABLE_LIMIT}")
    return N


def _check_alpha(alpha: float) -> float:
    """A criticality α, 0 < α < 1."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(
            f"criticality must satisfy 0 < alpha < 1 (i.e. 0 < p < 1/N), got {alpha}"
        )
    return alpha


@dataclass(frozen=True)
class AbelianParams(Tabled):
    """System size N with criticality α = N·p; requires 0 < p < 1/N."""

    N: int
    alpha: float

    def __post_init__(self):
        _check_size(self.N)
        _check_alpha(self.alpha)

    @property
    def p(self) -> float:
        return self.alpha / self.N

    @property
    def c_constant(self) -> float:
        """Normalizer C_{N,p} = (1 − Np)/(1 − (N−1)p), in (0, 1]."""
        return (1.0 - self.alpha) / (1.0 - (self.N - 1) * self.p)

    def mean(self) -> float:
        """E(Z) in closed form (abelian_mean); reading it builds no table."""
        return abelian_mean(self)

    def weights(self) -> tuple[np.ndarray, float]:
        return abelian_pmf_vector(self), abelian_mean(self)


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


def abelian_pmf_vector(params: AbelianParams) -> np.ndarray:
    """PMF over the whole support {1..N}, in support order, evaluated in logs."""
    N, p = params.N, params.p
    b = np.arange(1, N + 1, dtype=np.int64)
    bf = b.astype(np.float64)
    return np.exp(
        np.log(params.c_constant)
        + _log_binom(N - 1, b - 1)
        + (bf - 1.0) * np.log(p)
        + (N - bf - 1.0) * np.log1p(-bf * p)
        + (bf - 2.0) * np.log(bf)
    )


def abelian_mean(params: AbelianParams) -> float:
    """E(Z) = N/(N − (N−1)α)."""
    return params.N / (params.N - (params.N - 1) * params.alpha)


def abelian_second_moment(params: AbelianParams) -> float:
    """E(Z²) = (C/p)·[1/(1−Np) − 1 − Σ_{i=1}^{N−1} ((N−1)!/(N−1−i)!)·p^i].

    The inner sum is accumulated as running products α^i·Π_{j≤i}(1 − j/N),
    each term bounded by α^i, so no factorial ratio is ever formed.
    """
    N, alpha = params.N, params.alpha
    factors = alpha * (1.0 - np.arange(1, N, dtype=np.float64) / N)
    bracket = alpha / (1.0 - alpha) - float(np.sum(np.cumprod(factors)))
    return (params.c_constant / params.p) * bracket


def abelian_variance(params: AbelianParams) -> float:
    """Var(Z) = E(Z²) − E(Z)²."""
    m = abelian_mean(params)
    return abelian_second_moment(params) - m * m
