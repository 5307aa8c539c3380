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
    abelian_limits,
    abelian_mean,
    abelian_pmf,
    abelian_pmf_vector,
    abelian_second_moment,
    abelian_variance,
    pl_ratio_diagnostic,
    quasibinomial1_mean,
    quasibinomial1_pmf,
    verify_mean_identity,
)
from heavytail.errors import DomainError, ParameterError


class TestParams:
    def test_alpha_to_p(self):
        params = AbelianParams(N=2, alpha=0.5)
        assert params.p == pytest.approx(0.25, rel=1e-15)

    def test_from_p_round_trip(self):
        params = AbelianParams.from_p(N=7, p=0.1)
        assert params.alpha == pytest.approx(0.7, rel=1e-15)
        assert params.p == pytest.approx(0.1, rel=1e-15)

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

    def test_log_branch_matches_direct_branch(self):
        # both evaluation routes agree where the direct one is exact
        for N in (40, 50):
            for alpha in (0.2, 0.7, 0.95):
                params = AbelianParams(N=N, alpha=alpha)
                b = np.arange(1, N + 1, dtype=np.int64)
                direct = ab._abelian_pmf_direct(params, b)
                logv = np.exp(ab._abelian_logpmf(params, b))
                np.testing.assert_allclose(logv, direct, rtol=1e-11)

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

    @pytest.mark.parametrize("N", [1000, 3000])
    @pytest.mark.parametrize("alpha", [0.9, 0.999])
    def test_log_branch_matches_exact_fraction_pmf(self, N, alpha):
        # checks the (N−b−1)·log1p(−bp) and (b−2)·log b terms, in rational
        # arithmetic with the float p the code uses
        params = AbelianParams(N=N, alpha=alpha)
        p = Fraction(params.p)
        c = (1 - N * p) / (1 - (N - 1) * p)
        pmf = abelian_pmf_vector(params)
        for b in (1, 2, 17, N // 2, N - 1, N):
            exact = float(
                c * math.comb(N - 1, b - 1) * p ** (b - 1) * (1 - b * p) ** (N - b - 1)
                * Fraction(b) ** (b - 2)
            )
            assert exact > 1e-300
            assert pmf[b - 1] == pytest.approx(exact, rel=1e-11), b

    def test_scalar_matches_vector(self):
        params = AbelianParams(N=30, alpha=0.6)
        vec = abelian_pmf_vector(params)
        for b in (1, 7, 30):
            assert abelian_pmf(params, b) == vec[b - 1]

    def test_out_of_support_raises(self):
        params = AbelianParams(N=5, alpha=0.5)
        with pytest.raises(DomainError):
            abelian_pmf(params, 0)
        with pytest.raises(DomainError):
            abelian_pmf(params, 6)


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
        mean_lim, var_lim = abelian_limits(0.5)
        assert mean_lim == pytest.approx(2.0, rel=1e-15)
        assert var_lim == pytest.approx(0.5 / 0.125, rel=1e-15)  # alpha/(1-alpha)^3
        with pytest.raises(DomainError):
            abelian_limits(1.0)

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
    def test_hand_value_n1(self):
        # N=1, p=0.3: P(0) = 0.7, P(1) = 0.3
        assert quasibinomial1_pmf(1, 0.3, 0) == pytest.approx(0.7, rel=1e-15)
        assert quasibinomial1_pmf(1, 0.3, 1) == pytest.approx(0.3, rel=1e-15)

    def test_normalization_is_identity_in_p(self):
        for N in (2, 9, 40, 80):
            p = 0.9 / (N + 1)
            total = math.fsum(quasibinomial1_pmf(N, p, b) for b in range(N + 1))
            assert abs(total - 1.0) < 1e-12

    def test_log_branch_matches_exact_fraction_pmf(self):
        N = 1000
        p = 0.9 / (N + 1)
        q = Fraction(p)
        for b in (0, 1, 17, N // 2, N - 1, N):
            exact = float(
                math.comb(N, b) * q**b * (1 - (b + 1) * q) ** (N - b) * Fraction(b + 1) ** (b - 1)
            )
            assert quasibinomial1_pmf(N, p, b) == pytest.approx(exact, rel=1e-11), b

    def test_mean_small_case(self):
        # N=2, p=0.1: E = p*N + p^2*N*(N-1) evaluated via the cumprod route
        assert quasibinomial1_mean(2, 0.1) == pytest.approx(0.22, rel=1e-13)

    def test_mean_matches_direct_sum(self):
        N, p = 7, 0.08
        direct = math.fsum(b * quasibinomial1_pmf(N, p, b) for b in range(N + 1))
        assert quasibinomial1_mean(N, p) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("N,p", [(1, 0.3), (2, 0.2), (30, 0.01), (100, 0.004)])
    def test_mean_identity(self, N, p):
        ok, residual = verify_mean_identity(N, p)
        assert ok, f"identity residual {residual}"


class TestSlopeDiagnostic:
    def test_near_critical_slope(self):
        slope = pl_ratio_diagnostic(AbelianParams(N=10**6, alpha=0.999), (10, 1000))
        assert slope == pytest.approx(-1.5, abs=0.1)

    def test_subcritical_slope_steeper(self):
        slope = pl_ratio_diagnostic(AbelianParams(N=10**4, alpha=0.5), (10, 100))
        assert slope < -3.0

    def test_bad_window(self):
        with pytest.raises(DomainError):
            pl_ratio_diagnostic(AbelianParams(N=100, alpha=0.5), (10, 10))
