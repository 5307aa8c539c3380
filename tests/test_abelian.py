"""Exact pmf values, moment formulas, limits, and the mean identity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail import abelian as ab
from heavytail.abelian import (
    AbelianParams,
    abelian_mean,
    abelian_pmf_vector,
    abelian_second_moment,
    abelian_variance,
)
from heavytail.errors import ParameterError


class TestParams:
    def test_alpha_to_p(self):
        params = AbelianParams(N=2, alpha=0.5)
        assert params.p == pytest.approx(0.25, rel=1e-15)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            AbelianParams(N=5, alpha=1.0)
        with pytest.raises(ParameterError):
            AbelianParams(N=5, alpha=-0.1)
        with pytest.raises(ParameterError):
            AbelianParams(N=0, alpha=0.5)


class TestPmf:
    def test_hand_values_n2(self):
        # N=2, p=1/4: P(1) = C*(1-p) with C = (1-2p)... direct: (2/3, 1/3)
        params = AbelianParams(N=2, alpha=0.5)
        pmf = abelian_pmf_vector(params)
        np.testing.assert_allclose(pmf, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_degenerate_n1(self):
        params = AbelianParams(N=1, alpha=0.5)
        pmf = abelian_pmf_vector(params)
        np.testing.assert_allclose(pmf, [1.0], rtol=0)
        assert abelian_mean(params) == 1.0
        assert abelian_variance(params) == 0.0

    @pytest.mark.parametrize("N", [2, 3, 10, 50, 51, 120, 400])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_normalization(self, N, alpha):
        pmf = abelian_pmf_vector(AbelianParams(N=N, alpha=alpha))
        assert abs(math.fsum(pmf.tolist()) - 1.0) < 1e-10
        assert np.all(pmf >= 0)

    def test_log_binom_matches_exact_integers(self):
        # oracle: math.comb on Python integers, away from k = n/2 where one
        # exact coefficient takes seconds
        n = 10**6 - 1
        ks = [0, 1, 2, 9, 99, 999, 9999, 10**4, n - 10**4, n - 9999, n - 999, n - 9, n - 1, n]
        got = ab._log_binom(n, np.array(ks))
        for k, value in zip(ks, got.tolist()):
            exact = math.log(math.comb(n, k))
            assert abs(value - exact) <= math.ulp(exact), k

    def test_normalization_at_large_n(self):
        pmf = abelian_pmf_vector(AbelianParams(N=10**6, alpha=0.999))
        assert abs(math.fsum(pmf.tolist()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3, 10, 40, 50, 1000, 3000])
    @pytest.mark.parametrize("alpha", [0.9, 0.999])
    def test_log_branch_matches_exact_fraction_pmf(self, N, alpha):
        # checks the (N−b−1)·log1p(−bp) and (b−2)·log b terms, in rational
        # arithmetic with the float p the code uses; small N at every b,
        # since the one log route serves every system size
        params = AbelianParams(N=N, alpha=alpha)
        p = Fraction(params.p)
        c = (1 - N * p) / (1 - (N - 1) * p)
        pmf = abelian_pmf_vector(params)
        points = range(1, N + 1) if N <= 50 else (1, 2, 17, N // 2, N - 1, N)
        for b in points:
            exact = float(
                c * math.comb(N - 1, b - 1) * p ** (b - 1) * (1 - b * p) ** (N - b - 1)
                * Fraction(b) ** (b - 2)
            )
            assert exact > 1e-300
            assert pmf[b - 1] == pytest.approx(exact, rel=1e-11), b


class TestMoments:
    def test_mean_formula_n2(self):
        assert abelian_mean(AbelianParams(N=2, alpha=0.5)) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_second_moment_n2(self):
        assert abelian_second_moment(AbelianParams(N=2, alpha=0.5)) == pytest.approx(2.0, rel=1e-13)

    def test_variance_n2(self):
        assert abelian_variance(AbelianParams(N=2, alpha=0.5)) == pytest.approx(2.0 / 9.0, rel=1e-12)

    @pytest.mark.parametrize("N", [2, 5, 23, 50, 77, 150])
    @pytest.mark.parametrize("alpha", [0.1, 0.4, 0.8])
    def test_formulas_match_brute_force(self, N, alpha):
        params = AbelianParams(N=N, alpha=alpha)
        pmf = abelian_pmf_vector(params)
        b = np.arange(1, N + 1, dtype=np.float64)
        mean_bf = float(b @ pmf)
        m2_bf = float((b * b) @ pmf)
        assert abelian_mean(params) == pytest.approx(mean_bf, rel=1e-9)
        assert abelian_second_moment(params) == pytest.approx(m2_bf, rel=1e-9)

    def test_moments_bundle_consistent(self):
        params = AbelianParams(N=40, alpha=0.35)
        mean = abelian_mean(params)
        assert abelian_variance(params) == abelian_second_moment(params) - mean * mean

    def test_limits(self):
        # the N → ∞ limits 1/(1−α) and α/(1−α)³, approached at rate O(1/N)
        # (measured 1e-5 and 1e-4 relative at N = 10^5)
        alpha = 0.5
        params = AbelianParams(N=10**5, alpha=alpha)
        assert abelian_mean(params) == pytest.approx(1.0 / (1.0 - alpha), rel=1e-4)
        assert abelian_variance(params) == pytest.approx(alpha / (1.0 - alpha) ** 3, rel=1e-3)

    def test_mean_converges_to_limit(self):
        alpha = 0.6
        prev = None
        for N in (10**3, 10**4, 10**5):
            err = abs(abelian_mean(AbelianParams(N=N, alpha=alpha)) - 1.0 / (1.0 - alpha))
            if prev is not None:
                assert err < prev
            prev = err

    @given(
        st.integers(min_value=2, max_value=300),
        st.floats(min_value=0.01, max_value=0.98),
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_in_support_bounds(self, N, alpha):
        m = abelian_mean(AbelianParams(N=N, alpha=alpha))
        assert 1.0 <= m <= N

    @given(
        st.integers(min_value=2, max_value=120),
        st.floats(min_value=0.01, max_value=0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_pmf_normalizes_property(self, N, alpha):
        pmf = abelian_pmf_vector(AbelianParams(N=N, alpha=alpha))
        assert abs(float(np.sum(pmf)) - 1.0) < 1e-9


class TestQuasiBinomial:
    @pytest.mark.parametrize("N,p", [(1, 0.3), (2, 0.2), (30, 0.01), (100, 0.004)])
    def test_mean_identity(self, N, p):
        # 1 + E(Y_{N,p}) = [E(Z_{N+1,p}) − p·E(Z²_{N+1,p})]/C_{N+1,p}, with the
        # quasi-binomial mean E(Y) = Σ_{i=1}^{N} (N!/(N−i)!)·p^i in exact fractions
        mean_y = sum(Fraction(math.perm(N, i)) * Fraction(p) ** i for i in range(1, N + 1))
        lhs = 1.0 + float(mean_y)
        params = AbelianParams(N + 1, (N + 1) * p)
        rhs = (abelian_mean(params) - p * abelian_second_moment(params)) / params.c_constant
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) <= 1e-10


def _loglog_slope(params, lo, hi):
    """Least-squares slope of log pmf against log k over k in [lo, hi]."""
    k = np.arange(lo, hi + 1)
    return np.polyfit(np.log(k), np.log(abelian_pmf_vector(params)[k - 1]), 1)[0]


class TestSlopeDiagnostic:
    def test_near_critical_slope(self):
        slope = _loglog_slope(AbelianParams(N=10**6, alpha=0.999), 10, 1000)
        assert slope == pytest.approx(-1.5, abs=0.1)

    def test_subcritical_slope_steeper(self):
        slope = _loglog_slope(AbelianParams(N=10**4, alpha=0.5), 10, 100)
        assert slope < -3.0


def _avalanche_sizes(seed, count, drive, N=20, alpha=0.9, batch=64):
    """Sizes of count avalanches of the network the Abelian law models
    (Eurich, Herrmann & Ernst, Phys. Rev. E 66, 066137, 2002).

    N units hold potentials, drawn in [0, 1). A drive step adds U(0, drive)
    to one random unit; once that unit reaches 1, an avalanche runs: every
    unit at or above 1 fires, once per avalanche, subtracting 1 and adding
    α/N to every unit, until no unit that has not fired is at 1. Drive steps
    are drawn batch at a time; those after the avalanche's are discarded.
    """
    rng = np.random.default_rng(seed)
    u = rng.random(N)
    rows = np.arange(batch)
    sizes = np.empty(count, dtype=np.int64)
    for k in range(count):
        crossed = np.empty(0, dtype=np.intp)
        while crossed.size == 0:
            units = rng.integers(N, size=batch)
            steps = np.zeros((batch, N))
            steps[rows, units] = rng.uniform(0.0, drive, batch)
            levels = u + np.cumsum(steps, axis=0)
            crossed = np.flatnonzero(levels[rows, units] >= 1.0)
            u = levels[crossed[0] if crossed.size else -1]
        fired = np.zeros(N, dtype=bool)
        new = u >= 1.0
        while new.any():
            fired |= new
            u[new] -= 1.0
            u += alpha / N * np.count_nonzero(new)
            new = (u >= 1.0) & ~fired
        sizes[k] = np.count_nonzero(fired)
    return sizes


def _chi2_quantile(q, df):
    """The q-quantile of the χ² law on df degrees of freedom: bisection on its
    CDF, the regularized lower gamma function P(df/2, x/2) summed as a series."""

    def cdf(x):
        s, h = df / 2, x / 2
        term = total = 1.0 / s
        j = 0
        while term > 1e-17 * total:
            j += 1
            term *= h / (s + j)
            total += term
        return math.exp(s * math.log(h) - h - math.lgamma(s)) * total

    lo, hi = 0.0, 10.0 * df + 100.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if cdf(mid) < q else (lo, mid)
    return hi


def _chi2_statistic(sizes, pmf):
    """Pearson's χ² of sizes against pmf on {1..N}, and its bin count; bins
    merge upwards until each expects at least 5, a short tail into the last."""
    observed = np.bincount(sizes, minlength=pmf.size + 1)[1:]
    bins, o, e = [], 0, 0.0
    for ob, ex in zip(observed.tolist(), (sizes.size * pmf).tolist()):
        o, e = o + ob, e + ex
        if e >= 5.0:
            bins.append([o, e])
            o, e = 0, 0.0
    bins[-1][0] += o
    bins[-1][1] += e
    return sum((ob - ex) ** 2 / ex for ob, ex in bins), len(bins)


class TestNetworkOracle:
    """The pmf against avalanche sizes of the network it models, at N = 20
    and α = 0.9. Under slow drive the sizes follow the Abelian law; fast
    drive breaks the match, so the bound must refuse it."""

    @pytest.mark.parametrize("q, df, table", [(0.999, 1, 10.828), (0.999, 10, 29.588),
                                              (0.999, 19, 43.820)])
    def test_chi2_quantile_matches_table(self, q, df, table):
        assert _chi2_quantile(q, df) == pytest.approx(table, abs=5e-4)

    @pytest.mark.parametrize("drive, matches", [(0.05, True), (0.5, False)],
                             ids=["slow", "fast"])
    def test_avalanche_sizes_follow_the_pmf(self, drive, matches):
        pmf = abelian_pmf_vector(AbelianParams(N=20, alpha=0.9))
        sizes = np.concatenate([_avalanche_sizes(seed, 2000, drive) for seed in (1, 2, 3, 4)])
        statistic, bins = _chi2_statistic(sizes, pmf)
        # doubled: sizes within one run are serially correlated
        bound = 2.0 * _chi2_quantile(0.999, bins - 1)
        assert (statistic < bound) == matches, (statistic, bound)
