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
