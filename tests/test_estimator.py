"""Resampled statistic, weighted ecdf, quantiles, and both interval maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail import estimator
from heavytail._kernels import BATCH_MIN_ROWS, kahan_sum
from heavytail.errors import (
    CapacityError,
    DomainError,
    InputError,
    InstabilityError,
    ParameterError,
)
from heavytail.estimator import (
    DEGREE_D_LIMIT,
    ConfidenceInterval,
    TnSequence,
    _log_ecdf_quantiles,
    build_log_ecdf,
    ci_alpha,
    ci_mean,
    compute_tn,
    compute_tn_degree_d,
    ecdf_quantile,
    ecdf_sup_distance,
    permutation_average,
    pstable_estimate,
    split_pilot,
)
from heavytail.rng import RandomSource


class TestComputeTn:
    def test_single_point_by_hand(self):
        # t_1 = 1^(-1/2) * (3-1) * 2
        seq = compute_tn([3.0], [2.0], mu_hat=1.0, p=2.0)
        assert seq.values.tolist() == [4.0]
        assert seq.degree == 1
        assert seq.mu_hat == 1.0
        assert len(seq) == 1

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        x = rng.normal(5.0, 2.0, size=200)
        y = rng.normal(1.0, 1.0, size=200)
        p = 1.3
        seq = compute_tn(x, y, mu_hat=4.5, p=p)
        n = np.arange(1, 201, dtype=np.float64)
        direct = np.cumsum((x - 4.5) * y) * n ** (-1.0 / p)
        np.testing.assert_allclose(seq.values, direct, rtol=1e-12)

    def test_shift_equivariance_exact_on_integer_data(self):
        # (x - mu) is unchanged when data and pilot shift together, so the
        # statistic must match bit for bit on exactly representable inputs.
        x = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
        y = np.array([1.0, -2.0, 1.0, 3.0, -1.0])
        base = compute_tn(x, y, mu_hat=2.0, p=1.5)
        moved = compute_tn(x + 1024.0, y, mu_hat=1026.0, p=1.5)
        assert base.values.tolist() == moved.values.tolist()

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            compute_tn([], [], 0.0, 1.5)
        with pytest.raises(InputError):
            compute_tn([1.0, 2.0], [1.0], 0.0, 1.5)
        with pytest.raises(InputError):
            compute_tn(np.ones((2, 2)), np.ones(4), 0.0, 1.5)
        with pytest.raises(ParameterError):
            compute_tn([1.0], [1.0], 0.0, 1.0)
        with pytest.raises(ParameterError):
            compute_tn([1.0], [1.0], 0.0, 2.5)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match="finite"):
                compute_tn([1.0, bad], [1.0, 1.0], 0.0, 1.5)
            with pytest.raises(InputError, match="finite"):
                compute_tn([1.0, 2.0], [bad, 1.0], 0.0, 1.5)
            with pytest.raises(InputError, match="finite"):
                compute_tn([1.0, 2.0], [1.0, 1.0], bad, 1.5)

    def test_gaussian_boundary_p2_is_allowed(self):
        seq = compute_tn([1.0, 2.0], [1.0, 1.0], 0.0, 2.0)
        assert seq.p == 2.0


class TestDegreeD:
    def test_degree2_by_hand(self):
        # pairs of x*y products: t_3 = 3^(-2/p) * (1*2 + 1*3 + 2*3)
        seq = compute_tn_degree_d(
            [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], lambda a, b: a * b, p=1.5, d=2
        )
        assert seq.values[0] == 0.0
        assert seq.values[1] == pytest.approx(0.7937005259840998, rel=1e-14)
        assert seq.values[2] == pytest.approx(2.542324672618994, rel=1e-14)
        assert seq.degree == 2
        assert seq.normalization == "ddw"

    def test_degree2_alternative_normalization(self):
        seq = compute_tn_degree_d(
            [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], lambda a, b: a * b, p=1.5, d=2,
            normalization="hkm",
        )
        # exponent d-1+1/p = 5/3 instead of d/p = 4/3
        assert seq.values[2] == pytest.approx(11.0 * 3.0 ** (-5.0 / 3.0), rel=1e-13)

    def test_degree1_cross_checks_fast_path(self):
        rng = np.random.default_rng(11)
        x = rng.normal(3.0, 1.0, size=64)
        y = rng.normal(1.0, 0.5, size=64)
        slow = compute_tn_degree_d(x, y, lambda a: a - 2.5, p=1.7, d=1)
        fast = compute_tn(x, y, mu_hat=2.5, p=1.7)
        np.testing.assert_allclose(slow.values, fast.values, rtol=1e-13)

    def test_degree3_by_hand(self):
        # single triple at n=3: t_3 = 3^(-3/p) * x1*x2*x3 * y1*y2*y3
        seq = compute_tn_degree_d(
            [2.0, 3.0, 5.0], [1.0, 1.0, 2.0], lambda a, b, c: a * b * c, p=1.5, d=3
        )
        assert seq.values[0] == 0.0
        assert seq.values[1] == 0.0
        assert seq.values[2] == pytest.approx(60.0 * 3.0 ** (-2.0), rel=1e-14)

    def test_capacity_and_parameter_guards(self):
        with pytest.raises(CapacityError):
            compute_tn_degree_d(
                np.ones(DEGREE_D_LIMIT + 1), np.ones(DEGREE_D_LIMIT + 1),
                lambda a, b: a * b, p=1.5, d=2,
            )
        with pytest.raises(CapacityError):
            compute_tn_degree_d([1.0], [1.0], lambda *a: 1.0, p=1.5, d=4)
        with pytest.raises(ParameterError):
            compute_tn_degree_d([1.0], [1.0], lambda a: a, p=1.5, d=1,
                                normalization="raw")


class TestLogEcdf:
    def test_hand_example(self):
        # weights 1, 1/2, 1/3 on values 0, 1, -1; C_3 = 11/6
        e = build_log_ecdf(np.array([0.0, 1.0, -1.0]))
        assert e.normalizer == pytest.approx(11.0 / 6.0, rel=1e-15)
        assert e.cum_weights[-1] == 1.0
        assert e.evaluate(0.5) == pytest.approx(8.0 / 11.0, rel=1e-15)
        assert e.evaluate(-2.0) == 0.0
        assert e.evaluate(1.0) == 1.0

    def test_vectorized_evaluation(self):
        e = build_log_ecdf(np.array([0.0, 1.0, -1.0]))
        grid = np.array([-2.0, -1.0, -0.5, 0.0, 0.999, 1.0, 2.0])
        expected = np.array(
            [0.0, 2.0 / 11.0, 2.0 / 11.0, 8.0 / 11.0, 8.0 / 11.0, 1.0, 1.0]
        )
        np.testing.assert_allclose(e.evaluate(grid), expected, rtol=1e-14)

    def test_quantiles_left_continuous_inverse(self):
        e = build_log_ecdf(np.array([0.0, 1.0, -1.0]))
        assert e.quantile(0.5) == 0.0
        assert e.quantile(0.99) == 1.0
        assert e.quantile(1e-9) == -1.0
        # at an exact cumulative value the smallest admissible point wins
        assert e.quantile(2.0 / 11.0) == -1.0
        assert ecdf_quantile(e, 0.5) == 0.0
        with pytest.raises(DomainError):
            e.quantile(0.0)
        with pytest.raises(DomainError):
            e.quantile(1.0)

    def test_accepts_tn_sequence(self):
        seq = compute_tn([3.0, 4.0], [1.0, 1.0], mu_hat=0.0, p=2.0)
        e = build_log_ecdf(seq)
        assert e.points.shape == (2,)

    def test_burn_in_drops_leading_terms(self):
        # remaining weights 1/2, 1/3, 1/4; the n=1 outlier never enters
        e = build_log_ecdf(np.array([5.0, 0.0, 1.0, -1.0]), burn_in=1)
        assert e.normalizer == pytest.approx(13.0 / 12.0, rel=1e-15)
        assert e.points.tolist() == [-1.0, 0.0, 1.0]
        assert e.evaluate(4.0) == 1.0

    def test_burn_in_guards(self):
        with pytest.raises(InputError):
            build_log_ecdf(np.array([1.0, 2.0]), burn_in=2)
        with pytest.raises(InputError):
            build_log_ecdf(np.array([1.0, 2.0]), burn_in=-1)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_is_a_distribution_function(self, vals):
        e = build_log_ecdf(np.asarray(vals, dtype=np.float64))
        assert np.all(np.diff(e.cum_weights) >= -1e-16)
        assert e.cum_weights[-1] == 1.0
        assert e.evaluate(np.max(e.points)) == 1.0
        assert e.evaluate(np.min(e.points) - 1.0) == 0.0

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2,
            max_size=100,
        ),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantile_round_trip(self, vals, level):
        # G(q(level)) >= level and q is a support point
        e = build_log_ecdf(np.asarray(vals, dtype=np.float64))
        q = e.quantile(level)
        assert e.evaluate(q) >= level - 1e-12
        assert q in e.points


class TestLogEcdfQuantiles:
    """The batched quantile step against one WeightedEcdf per row."""

    LEVELS = (0.001, 0.05, 0.5, 0.95, 0.999)

    @pytest.mark.parametrize("burn_in", [0, 100])
    def test_rows_match_build_log_ecdf(self, burn_in):
        g = np.random.default_rng(8)
        rows = g.standard_cauchy((9, 400))
        # ties: long runs of equal values, signed zeros among them
        rows[:3, 50:300] = 0.0
        rows[:3, 60:300:7] = -0.0
        rows[3:6] = np.round(rows[3:6])
        q = _log_ecdf_quantiles(rows, burn_in, self.LEVELS)
        assert q.shape == (len(self.LEVELS), len(rows))
        for k, row in enumerate(rows):
            ecdf = build_log_ecdf(row, burn_in)
            for j, level in enumerate(self.LEVELS):
                assert q[j, k].hex() == ecdf.quantile(level).hex(), (k, level)

    def test_levels_on_the_steps(self):
        # a level equal to a cumulative weight takes that point, not the next
        row = np.array([0.0, 1.0, -1.0, 1.0])
        ecdf = build_log_ecdf(row)
        levels = tuple(ecdf.cum_weights[:-1].tolist())
        q = _log_ecdf_quantiles(row[None, :], 0, levels)
        assert q[:, 0].tolist() == [ecdf.quantile(level) for level in levels]


class TestSupDistance:
    def test_hand_example(self):
        a = build_log_ecdf(np.array([0.0, 1.0, -1.0]))
        b = build_log_ecdf(np.array([0.5]))
        # largest gap sits just left of 0.5 where A has mass 8/11, B none
        assert ecdf_sup_distance(a, b) == pytest.approx(8.0 / 11.0, rel=1e-14)
        assert ecdf_sup_distance(b, a) == ecdf_sup_distance(a, b)

    def test_identical_distributions(self):
        a = build_log_ecdf(np.array([3.0, 1.0, 2.0]))
        assert ecdf_sup_distance(a, a) == 0.0


class TestCiMean:
    def test_hand_example(self):
        # [7.5 - 2/sqrt(10), 7.5 + 2/sqrt(10)] at p = 2, n = 10
        ci = ci_mean(7.5, 1.0, 2.0, -2.0, 10, 2.0, levels=(0.05, 0.95))
        assert ci.lower == pytest.approx(6.867544467966324, abs=1e-12)
        assert ci.upper == pytest.approx(8.132455532033676, abs=1e-12)
        assert ci.level_lo == 0.05
        assert ci.level_hi == 0.95
        assert ci.target == "mean"
        assert ci.width == pytest.approx(2 * 2.0 / math.sqrt(10.0), rel=1e-12)
        assert ci.contains(7.5)
        assert not ci.contains(8.2)

    def test_negative_resampling_mean_flips_bounds(self):
        ci = ci_mean(7.5, -1.0, 2.0, -2.0, 10, 2.0, levels=(0.05, 0.95))
        assert ci.lower == pytest.approx(-8.132455532033676, abs=1e-12)
        assert ci.upper == pytest.approx(-6.867544467966324, abs=1e-12)

    def test_degenerate_quantiles_collapse_to_point(self):
        ci = ci_mean(3.3, 1.1, 0.0, 0.0, 5, 1.5, levels=(0.05, 0.95))
        assert ci.lower == ci.upper == pytest.approx(3.0, rel=1e-15)
        assert ci.width == 0.0

    def test_stability_floor(self):
        with pytest.raises(InstabilityError):
            ci_mean(1.0, 1e-9, 1.0, -1.0, 10, 1.5, levels=(0.05, 0.95))
        # floor is relative to the multiplier magnitude when supplied
        with pytest.raises(InstabilityError):
            ci_mean(1.0, 0.5, 1.0, -1.0, 10, 1.5, levels=(0.05, 0.95),
                    y_scale=1e9)
        ci = ci_mean(1.0, 0.5, 1.0, -1.0, 10, 1.5, levels=(0.05, 0.95),
                     y_scale=1.0)
        assert ci.lower_defined and ci.upper_defined

    def test_input_guards(self):
        with pytest.raises(InputError):
            ci_mean(1.0, 1.0, -1.0, 1.0, 10, 1.5, levels=(0.05, 0.95))
        with pytest.raises(InputError):
            ci_mean(1.0, 1.0, 1.0, -1.0, 0, 1.5, levels=(0.05, 0.95))
        with pytest.raises(ParameterError):
            ci_mean(1.0, 1.0, 1.0, -1.0, 10, 1.5, levels=(0.95, 0.05))
        with pytest.raises(ParameterError):
            ci_mean(1.0, 1.0, 1.0, -1.0, 10, 1.5, levels=(0.0, 0.95))


class TestCiAlpha:
    def test_positive_interval_maps_both_bounds(self):
        mu = ConfidenceInterval(lower=2.0, upper=4.0, level_lo=0.05, level_hi=0.95)
        a = ci_alpha(mu)
        assert a.lower == pytest.approx(0.5, rel=1e-15)
        assert a.upper == pytest.approx(0.75, rel=1e-15)
        assert a.target == "alpha"

    def test_nonpositive_lower_bound_is_undefined_not_an_error(self):
        mu = ConfidenceInterval(lower=-1.0, upper=5.0, level_lo=0.05, level_hi=0.95)
        a = ci_alpha(mu)
        assert a.lower is None
        assert not a.lower_defined
        assert a.upper == pytest.approx(0.8, rel=1e-15)
        assert a.width is None
        assert not a.contains(0.5)

    def test_entirely_nonpositive_interval(self):
        mu = ConfidenceInterval(lower=-3.0, upper=-1.0, level_lo=0.05, level_hi=0.95)
        a = ci_alpha(mu)
        assert a.lower is None and a.upper is None

    def test_point_interval(self):
        mu = ConfidenceInterval(lower=2.0, upper=2.0, level_lo=0.05, level_hi=0.95)
        a = ci_alpha(mu)
        assert a.lower == a.upper == pytest.approx(0.5, rel=1e-15)

    def test_requires_mean_target(self):
        mu = ConfidenceInterval(lower=2.0, upper=4.0, level_lo=0.05, level_hi=0.95)
        with pytest.raises(InputError):
            ci_alpha(ci_alpha(mu))

    def test_interval_invariants(self):
        with pytest.raises(InputError):
            ConfidenceInterval(lower=2.0, upper=1.0, level_lo=0.05, level_hi=0.95)
        with pytest.raises(InputError):
            ConfidenceInterval(lower=0.0, upper=1.0, level_lo=0.05,
                               level_hi=0.95, target="median")
        for lower, upper in ((math.nan, 1.0), (0.0, math.nan), (None, math.nan)):
            with pytest.raises(InputError, match="NaN"):
                ConfidenceInterval(lower=lower, upper=upper, level_lo=0.05, level_hi=0.95)


class TestSplitPilot:
    def test_explicit_count(self):
        x = np.arange(1.0, 11.0)
        mu_hat, rest = split_pilot(x, pilot_count=3)
        assert mu_hat == 2.0
        assert rest.tolist() == [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]

    def test_default_fraction(self):
        x = np.arange(100.0)
        mu_hat, rest = split_pilot(x)
        assert mu_hat == pytest.approx(np.mean(x[:10]))
        assert rest.size == 90

    def test_guards(self):
        x = np.arange(10.0)
        with pytest.raises(InputError):
            split_pilot(x, pilot_count=10)
        with pytest.raises(InputError):
            split_pilot(x, pilot_count=0)
        x[7] = math.nan
        with pytest.raises(InputError, match="finite"):
            split_pilot(x, pilot_count=3)


class TestPstableEstimate:
    def _data(self, n=400, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.pareto(2.0, size=n) + 3.0
        y = rng.standard_normal(size=n)
        return x, y

    def test_single_pass_matches_pipeline(self):
        x, y = self._data()
        est = pstable_estimate(x, y, mu_hat=4.0, p=1.5, levels=(0.05, 0.95))
        ecdf = build_log_ecdf(compute_tn(x, y, 4.0, 1.5))
        assert est.quantile_lo == ecdf.quantile(0.05)
        assert est.quantile_hi == ecdf.quantile(0.95)
        assert est.xy_bar == pytest.approx(float(np.mean(x * y)), rel=1e-15)
        assert est.y_bar == pytest.approx(float(np.mean(y)), rel=1e-15)
        assert est.n_perms == 1
        expected = ci_mean(
            est.xy_bar, est.y_bar, est.quantile_hi, est.quantile_lo,
            x.size, 1.5, levels=(0.05, 0.95), y_scale=float(np.max(np.abs(y))),
        )
        assert est.ci_mu.lower == expected.lower
        assert est.ci_mu.upper == expected.upper
        assert est.ci_alpha.target == "alpha"

    def test_interval_uses_unpermuted_averages(self):
        x, y = self._data()
        src = RandomSource(99).substream(3)
        est = pstable_estimate(
            x, y, mu_hat=4.0, p=1.5, levels=(0.05, 0.95), n_perms=8, src=src
        )
        assert est.xy_bar == pytest.approx(float(np.mean(x * y)), rel=1e-15)
        assert est.y_bar == pytest.approx(float(np.mean(y)), rel=1e-15)
        assert est.n_perms == 8

    def test_permuting_constant_multipliers_changes_nothing(self):
        x, _ = self._data()
        y = np.ones_like(x)
        src = RandomSource(99).substream(3)
        one = pstable_estimate(x, y, mu_hat=4.0, p=1.5, levels=(0.05, 0.95))
        avg = pstable_estimate(
            x, y, mu_hat=4.0, p=1.5, levels=(0.05, 0.95), n_perms=6, src=src
        )
        assert avg.quantile_lo == pytest.approx(one.quantile_lo, rel=1e-12)
        assert avg.quantile_hi == pytest.approx(one.quantile_hi, rel=1e-12)

    def test_permutation_averaging_is_reproducible(self):
        x, y = self._data()
        kwargs = dict(mu_hat=4.0, p=1.5, levels=(0.05, 0.95), n_perms=16)
        a = pstable_estimate(x, y, src=RandomSource(42).substream(3), **kwargs)
        b = pstable_estimate(x, y, src=RandomSource(42).substream(3), **kwargs)
        assert a.quantile_lo == b.quantile_lo
        assert a.quantile_hi == b.quantile_hi
        assert a.ci_mu.lower == b.ci_mu.lower
        c = pstable_estimate(x, y, src=RandomSource(43).substream(3), **kwargs)
        assert (c.quantile_lo, c.quantile_hi) != (a.quantile_lo, a.quantile_hi)

    def test_pair_permutation_mode_differs(self):
        x, y = self._data()
        kwargs = dict(mu_hat=4.0, p=1.5, levels=(0.05, 0.95), n_perms=8)
        y_only = pstable_estimate(x, y, src=RandomSource(7).substream(3), **kwargs)
        pairs = pstable_estimate(
            x, y, src=RandomSource(7).substream(3), permute_pairs=True, **kwargs
        )
        assert (y_only.quantile_lo, y_only.quantile_hi) != (
            pairs.quantile_lo, pairs.quantile_hi)

    def test_shift_equivariance_of_interval(self):
        x, y = self._data()
        base = pstable_estimate(x, y, mu_hat=4.0, p=1.5, levels=(0.05, 0.95))
        moved = pstable_estimate(x + 50.0, y, mu_hat=54.0, p=1.5,
                                 levels=(0.05, 0.95))
        assert moved.ci_mu.lower == pytest.approx(base.ci_mu.lower + 50.0,
                                                  rel=1e-10)
        assert moved.ci_mu.upper == pytest.approx(base.ci_mu.upper + 50.0,
                                                  rel=1e-10)

    def test_burn_in_changes_quantiles(self):
        x, y = self._data()
        plain = pstable_estimate(x, y, mu_hat=4.0, p=1.5, levels=(0.05, 0.95))
        burned = pstable_estimate(x, y, mu_hat=4.0, p=1.5, levels=(0.05, 0.95),
                                  burn_in=50)
        assert (plain.quantile_lo, plain.quantile_hi) != (
            burned.quantile_lo, burned.quantile_hi)

    def test_guards(self):
        x, y = self._data(n=16)
        with pytest.raises(ParameterError):
            pstable_estimate(x, y, 4.0, 1.5, (0.05, 0.95), n_perms=0)
        with pytest.raises(InputError):
            pstable_estimate(x, y, 4.0, 1.5, (0.05, 0.95), n_perms=2)
        y[3] = math.inf
        with pytest.raises(InputError, match="finite"):
            pstable_estimate(x, y, 4.0, 1.5, (0.05, 0.95))

    def test_instability_propagates(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(InstabilityError):
            pstable_estimate(x, y, mu_hat=2.0, p=1.5, levels=(0.05, 0.95))

    def test_permutation_average_returns_mean_interval(self):
        x, y = self._data()
        ci = permutation_average(
            x, y, mu_hat=4.0, p=1.5, n_perms=4, levels=(0.05, 0.95),
            src=RandomSource(13).substream(3),
        )
        assert ci.target == "mean"
        assert ci.lower < ci.upper


def _reference_quantiles(x, y, mu_hat, p, levels, *, burn_in, n_perms, src,
                         permute_pairs):
    """One compute_tn and WeightedEcdf per permutation, averaged in order."""
    lo_vals, hi_vals = [], []
    g = src.generator()
    for k in range(n_perms):
        if k == 0:
            xp, yp = x, y
        else:
            perm = g.permutation(x.size)
            xp, yp = (x[perm] if permute_pairs else x), y[perm]
        ecdf = build_log_ecdf(compute_tn(xp, yp, mu_hat, p), burn_in)
        lo_vals.append(ecdf.quantile(levels[0]))
        hi_vals.append(ecdf.quantile(levels[1]))
    return (kahan_sum(np.asarray(lo_vals)) / n_perms,
            kahan_sum(np.asarray(hi_vals)) / n_perms)


class TestPermutationBatch:
    """pstable_estimate's batched permutations against a per-permutation loop."""

    def _data(self, kind="pareto", n=400, seed=11):
        g = np.random.default_rng(seed)
        if kind == "walk":
            # x − μ̂ = ±1 and y in {−1, 0, 1}: the partial sums return to
            # exactly 0 again and again, so T_n has long runs of ties
            x = np.where(g.random(n) < 0.5, 3.0, 5.0)
            y = g.choice([-1.0, 0.0, 1.0], size=n, p=[0.3, 0.3, 0.4])
            return x, y
        return g.pareto(2.0, size=n) + 3.0, g.standard_normal(size=n)

    @pytest.mark.parametrize("n_perms", [5, BATCH_MIN_ROWS + 1, 64])
    @pytest.mark.parametrize("permute_pairs", [False, True])
    @pytest.mark.parametrize("burn_in", [0, 100])
    @pytest.mark.parametrize("kind", ["pareto", "walk"])
    def test_quantiles_match_reference_loop(self, n_perms, permute_pairs, burn_in, kind):
        x, y = self._data(kind)
        kwargs = dict(burn_in=burn_in, n_perms=n_perms, permute_pairs=permute_pairs)
        for levels in ((0.05, 0.95), (0.3, 0.6)):
            est = pstable_estimate(x, y, 4.0, 1.2, levels,
                                   src=RandomSource(21).substream(3), **kwargs)
            ref = _reference_quantiles(x, y, 4.0, 1.2, levels,
                                       src=RandomSource(21).substream(3), **kwargs)
            assert (est.quantile_lo.hex(), est.quantile_hi.hex()) == tuple(map(float.hex, ref))
        base = build_log_ecdf(compute_tn(x, y, 4.0, 1.2), burn_in)
        assert np.array_equal(est.tn.values, compute_tn(x, y, 4.0, 1.2).values)
        assert np.array_equal(est.ecdf.points, base.points)

    @pytest.mark.parametrize("block_rows", [5, 2 * BATCH_MIN_ROWS])
    def test_row_blocks_do_not_change_results(self, monkeypatch, block_rows):
        x, y = self._data()
        monkeypatch.setattr(estimator, "_PERMUTATION_BLOCK_ENTRIES", block_rows * x.size)
        kwargs = dict(burn_in=100, n_perms=64, permute_pairs=True)
        est = pstable_estimate(x, y, 4.0, 1.2, (0.05, 0.95),
                               src=RandomSource(5).substream(3), **kwargs)
        ref = _reference_quantiles(x, y, 4.0, 1.2, (0.05, 0.95),
                                   src=RandomSource(5).substream(3), **kwargs)
        assert (est.quantile_lo.hex(), est.quantile_hi.hex()) == tuple(map(float.hex, ref))
