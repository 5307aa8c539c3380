"""Resampled statistic, weighted ecdf, quantiles, and both interval maps."""

import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail import _kernels
from heavytail._kernels import tn_scan
from heavytail import estimator
from heavytail.baselines import draw_sample
from heavytail.errors import (
    DomainError,
    InputError,
    InstabilityError,
    ParameterError,
)
from heavytail.estimator import (
    ConfidenceInterval,
    _left_inverse,
    _sorted_log_ecdf,
    build_log_ecdf,
    ci_alpha,
    compute_tn,
    ecdf_sup_distance,
    pstable_estimate,
    quantile_interval,
    split_pilot,
)
from heavytail.rng import ParetoLikeParams, RandomSource
from test_acceptance import _clopper_pearson_lower


class TestComputeTn:
    def test_single_point_by_hand(self):
        # t_1 = 1^(-1/2) * (3-1) * 2
        seq = compute_tn([3.0], [2.0], mu_hat=1.0, p=2.0)
        assert seq.tolist() == [4.0]
        assert len(seq) == 1

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        x = rng.normal(5.0, 2.0, size=200)
        y = rng.normal(1.0, 1.0, size=200)
        p = 1.3
        seq = compute_tn(x, y, mu_hat=4.5, p=p)
        n = np.arange(1, 201, dtype=np.float64)
        direct = np.cumsum((x - 4.5) * y) * n ** (-1.0 / p)
        np.testing.assert_allclose(seq, direct, rtol=1e-12)

    def test_shift_equivariance_exact_on_integer_data(self):
        # (x - mu) is unchanged when data and pilot shift together, so the
        # statistic must match bit for bit on exactly representable inputs.
        x = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
        y = np.array([1.0, -2.0, 1.0, 3.0, -1.0])
        base = compute_tn(x, y, mu_hat=2.0, p=1.5)
        moved = compute_tn(x + 1024.0, y, mu_hat=1026.0, p=1.5)
        assert base.tolist() == moved.tolist()

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

    def test_overflowing_increment_is_instability(self):
        # finite X, Y and μ̂ whose product, or whose x − μ̂, is not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match=r"is inf at position 1, not finite"):
                compute_tn([1.0, 1e308], [1.0, 2.0], 0.0, 1.5)
            with pytest.raises(InstabilityError, match=r"is inf at position 0, not finite"):
                compute_tn([1e308, 1.0], [1.0, 1.0], -1e308, 1.5)

    def test_overflowing_running_sum_is_instability(self):
        # every increment is finite, but their sum, and so a prefix sum, is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match="running sums overflow"):
                compute_tn([1e308, 1e308, 1.0], [1.0, 1.0, 1.0], 0.0, 1.5)
            with pytest.raises(InstabilityError, match="running sums overflow"):
                pstable_estimate([1e308, -1e308, 1e308], [1.0, 1.0, 1.0], 0.0, 1.5,
                                 [(0.05, 0.95)], n_perms=4, src=RandomSource(1).substream(3))

    def test_gaussian_boundary_p2_is_allowed(self):
        seq = compute_tn([1.0, 2.0], [1.0, 1.0], 0.0, 2.0)
        np.testing.assert_allclose(seq, [1.0, 3.0 / math.sqrt(2.0)], rtol=1e-15)

    def test_degree1_cross_checks_fast_path(self):
        # reference: correctly rounded prefix sums of (x − μ̂)·y times n^(−1/p)
        rng = np.random.default_rng(11)
        x = rng.normal(3.0, 1.0, size=64)
        y = rng.normal(1.0, 0.5, size=64)
        terms = ((x - 2.5) * y).tolist()
        slow = [math.fsum(terms[:n]) * n ** (-1.0 / 1.7) for n in range(1, 65)]
        fast = compute_tn(x, y, mu_hat=2.5, p=1.7)
        np.testing.assert_allclose(fast, slow, rtol=1e-13)


class TestLogEcdf:
    def test_hand_example(self):
        # weights 1, 1/2, 1/3 on values 0, 1, -1; C_3 = 11/6
        e = build_log_ecdf(np.array([0.0, 1.0, -1.0]))
        assert e.cum_weights[-1] == 1.0
        # the lone weight 1/3 at -1 over C_3
        assert e.evaluate(-1.0) == pytest.approx(2.0 / 11.0, rel=1e-15)
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
        # weight 1/4 at -1 over C = 13/12
        assert e.evaluate(-1.0) == pytest.approx(3.0 / 13.0, rel=1e-15)
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


def _row_quantiles(rows, burn_in, levels):
    """Entry [j, k]: quantile levels[j] of row k's logarithmic ECDF."""
    points, cum, _ = _sorted_log_ecdf(rows, burn_in)
    return np.stack([_left_inverse(points, cum, level) for level in levels])


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
        q = _row_quantiles(rows, burn_in, self.LEVELS)
        assert q.shape == (len(self.LEVELS), len(rows))
        for k, row in enumerate(rows):
            ecdf = build_log_ecdf(row, burn_in)
            for j, level in enumerate(self.LEVELS):
                assert q[j, k].hex() == ecdf.quantile(level).hex(), (k, level)
                # the left-continuous inverse as a binary search
                idx = min(int(np.searchsorted(ecdf.cum_weights, level, side="left")),
                          len(ecdf.points) - 1)
                assert q[j, k].hex() == ecdf.points[idx].hex(), (k, level)

    def test_levels_on_the_steps(self):
        # a level equal to a cumulative weight takes that point, not the next
        row = np.array([0.0, 1.0, -1.0, 1.0])
        ecdf = build_log_ecdf(row)
        levels = tuple(ecdf.cum_weights[:-1].tolist())
        q = _row_quantiles(row[None, :], 0, levels)
        assert q[:, 0].tolist() == [ecdf.quantile(level) for level in levels]

    @pytest.mark.parametrize("burn_in", [0, 10])
    def test_tied_rows_match_the_stable_sort(self, burn_in):
        # Row 1 scans a ±1 walk: its partial sums return to exactly zero,
        # so its T_n row holds tied zeros. Row 0 scans Gaussian increments
        # and holds no ties. Both must come out as the stable sort gives them.
        g = np.random.default_rng(17)
        n = 1000
        z = np.stack([g.standard_normal(n), g.choice([-1.0, 1.0], size=n)])
        rows = tn_scan(z, _kernels.scale_vector(n, 1.5))
        assert np.count_nonzero(rows[1, burn_in:] == 0.0) > 10
        assert np.unique(rows[0, burn_in:]).size == n - burn_in
        points, cum, _ = _sorted_log_ecdf(rows, burn_in)
        weights = 1.0 / np.arange(burn_in + 1, n + 1, dtype=np.float64)
        for k, row in enumerate(rows[:, burn_in:]):
            order = np.argsort(row, kind="stable")
            ref_cum = np.cumsum(weights[order])
            ref_cum /= ref_cum[-1]
            assert points[k].tobytes() == row[order].tobytes(), k
            assert cum[k].tobytes() == ref_cum.tobytes(), k


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


def _constant_sample(xy_bar, y_bar, n):
    """x and y of n entries each with mean(x·y) = xy_bar and mean(y) = y_bar."""
    return np.full(n, xy_bar / y_bar), np.full(n, y_bar)


def _interval_formula(x, y, q_lo, q_hi, p):
    """(lower, upper) of [(X̄Y − U/n^(1−1/p))/Ȳ, (X̄Y − L/n^(1−1/p))/Ȳ], written out."""
    xy_bar, y_bar = float(np.mean(x * y)), float(np.mean(y))
    root = x.size ** (1.0 - 1.0 / p)
    ends = ((xy_bar - q_hi / root) / y_bar, (xy_bar - q_lo / root) / y_bar)
    return min(ends), max(ends)


class TestCiMean:
    """quantile_interval: the interval for the mean from two quantiles."""

    def test_hand_example(self):
        # [7.5 - 2/sqrt(10), 7.5 + 2/sqrt(10)] at p = 2, n = 10
        x, y = _constant_sample(7.5, 1.0, 10)
        ci = quantile_interval(x, y, -2.0, 2.0, 2.0, (0.05, 0.95))
        assert ci.lower == pytest.approx(6.867544467966324, abs=1e-12)
        assert ci.upper == pytest.approx(8.132455532033676, abs=1e-12)
        assert ci.level_lo == 0.05
        assert ci.level_hi == 0.95
        assert ci.target == "mean"
        assert ci.upper - ci.lower == pytest.approx(2 * 2.0 / math.sqrt(10.0), rel=1e-12)
        assert ci.contains(7.5)
        assert not ci.contains(8.2)

    def test_negative_resampling_mean_flips_bounds(self):
        x, y = _constant_sample(7.5, -1.0, 10)
        ci = quantile_interval(x, y, -2.0, 2.0, 2.0, (0.05, 0.95))
        assert ci.lower == pytest.approx(-8.132455532033676, abs=1e-12)
        assert ci.upper == pytest.approx(-6.867544467966324, abs=1e-12)

    def test_degenerate_quantiles_collapse_to_point(self):
        x, y = _constant_sample(3.3, 1.1, 5)
        ci = quantile_interval(x, y, 0.0, 0.0, 1.5, (0.05, 0.95))
        assert ci.lower == ci.upper == pytest.approx(3.0, rel=1e-15)

    def test_stability_floor(self):
        # the floor on |Ȳ| is 1e-8·max|Y_i|, or 1e-8 when every Y_i is 0
        x = np.ones(10)
        with pytest.raises(InstabilityError, match="stability floor"):
            quantile_interval(x, np.zeros(10), -1.0, 1.0, 1.5, (0.05, 0.95))
        y = np.zeros(10)
        y[:2] = 1e9, -1e9 + 5.0  # Ȳ = 0.5 below the floor 10
        with pytest.raises(InstabilityError, match="stability floor"):
            quantile_interval(x, y, -1.0, 1.0, 1.5, (0.05, 0.95))
        x, y = _constant_sample(1.0, 0.5, 10)
        ci = quantile_interval(x, y, -1.0, 1.0, 1.5, (0.05, 0.95))
        assert ci.bound_columns()["lower_defined"] and ci.bound_columns()["upper_defined"]

    def test_input_guards(self):
        x, y = _constant_sample(1.0, 1.0, 10)
        with pytest.raises(InputError, match="out of order"):
            quantile_interval(x, y, 1.0, -1.0, 1.5, (0.05, 0.95))
        with pytest.raises(InputError):
            quantile_interval(x[:0], y[:0], -1.0, 1.0, 1.5, (0.05, 0.95))
        with pytest.raises(ParameterError):
            quantile_interval(x, y, -1.0, 1.0, 1.5, (0.95, 0.05))
        with pytest.raises(ParameterError):
            quantile_interval(x, y, -1.0, 1.0, 1.5, (0.0, 0.95))

    def test_quantile_interval_refuses_an_infinite_quantile(self):
        x, y = np.array([2.0, 3.0, 4.0]), np.array([1.0, 0.5, 1.5])
        with pytest.raises(InstabilityError, match="lower quantile is -inf"):
            quantile_interval(x, y, -math.inf, 1.0, 1.5, (0.05, 0.95))
        with pytest.raises(InstabilityError, match="upper quantile is inf"):
            quantile_interval(x, y, -1.0, math.inf, 1.5, (0.05, 0.95))
        ci = quantile_interval(x, y, -1.0, 1.0, 1.5, (0.05, 0.95))
        assert (ci.lower, ci.upper) == _interval_formula(x, y, -1.0, 1.0, 1.5)

    def test_overflowing_mean_is_instability(self):
        # each x·y overflows though x and y are finite; no RuntimeWarning
        x, y = np.full(4, 1e200), np.full(4, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match="X̄Y is inf"):
                quantile_interval(x, y, -1.0, 1.0, 1.5, (0.05, 0.95))

    def test_pivot_quantiles_give_nominal_coverage(self):
        """The formula apart from the quantile step, on fig5's law at N = 1000.

        T_N(μ) = N^(−1/p)·Σ(X_i − μ)·Y_i = N^(1−1/p)·(X̄Y − μ·Ȳ), and μ lies
        in the interval exactly when L ≤ T_N(μ) ≤ U, so the pivot's own
        quantiles must give nominal coverage. They come from 5,000 draws of
        seed 1500 (250 beyond each level of the 90% pair). The
        Clopper–Pearson 95% bounds of the pooled coverage of 1,000 intervals
        of seed 1501 must lie inside [0.85, 0.95]. Seeds and bounds were
        fixed before the run, which read 883 of 1000, CP95 [0.861, 0.902],
        in about 1 s.
        """
        law = ParetoLikeParams(a=2.0, x_min=3.0, transform=True)
        mu, n, p, levels = law.mean(), 1000, 1.2, (0.05, 0.95)
        scale = n ** (1.0 - 1.0 / p)
        pivots = []
        for k in range(5000):
            _, x, y = draw_sample(law, RandomSource(1500).substream(k), n, "true", None, p)
            pivots.append(scale * (np.mean(x * y) - mu * np.mean(y)))
        q_lo, q_hi = np.quantile(pivots, levels)
        covered = 0
        for r in range(1000):
            _, x, y = draw_sample(law, RandomSource(1501).substream(r), n, "true", None, p)
            covered += quantile_interval(x, y, q_lo, q_hi, p, levels).contains(mu)
        lower = _clopper_pearson_lower(covered, 1000)
        upper = 1.0 - _clopper_pearson_lower(1000 - covered, 1000)
        assert 0.85 <= lower and upper <= 0.95, (
            f"pivot coverage {covered}/1000, CP95 [{lower:.3f}, {upper:.3f}]"
        )


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
        assert not a.bound_columns()["lower_defined"]
        assert a.upper == pytest.approx(0.8, rel=1e-15)
        # the undefined lower bound is unbounded below: (-inf, 0.8]
        assert a.contains(0.5)
        assert a.contains(-1e300)
        assert not a.contains(0.81)

    def test_entirely_nonpositive_interval(self):
        mu = ConfidenceInterval(lower=-3.0, upper=-1.0, level_lo=0.05, level_hi=0.95)
        a = ci_alpha(mu)
        assert a.lower is None and a.upper is None
        # no α maps from a nonpositive mean, so the interval holds nothing
        assert not any(a.contains(v) for v in (-1e300, -1.0, 0.0, 0.5, 0.99))

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

    def test_infinite_bound_is_instability(self):
        for lower, upper, target in ((-math.inf, 1.0, "mean"), (0.0, math.inf, "mean"),
                                     (None, -math.inf, "alpha")):
            with pytest.raises(InstabilityError, match="overflow"):
                ConfidenceInterval(lower, upper, 0.05, 0.95, target)
        # an α bound keeps None as "undefined"
        ci = ConfidenceInterval(None, 0.5, 0.05, 0.95, "alpha")
        columns = ci.bound_columns()
        assert not columns["lower_defined"] and columns["upper_defined"]


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
        est = pstable_estimate(x, y, mu_hat=4.0, p=1.5, level_pairs=[(0.05, 0.95)])
        ecdf = build_log_ecdf(compute_tn(x, y, 4.0, 1.5))
        [(q_lo, q_hi)], [ci] = est.quantiles, est.intervals
        assert (q_lo, q_hi) == (ecdf.quantile(0.05), ecdf.quantile(0.95))
        assert (ci.lower, ci.upper) == _interval_formula(x, y, q_lo, q_hi, 1.5)
        assert (ci.target, ci.level_lo, ci.level_hi) == ("mean", 0.05, 0.95)

    def test_interval_uses_unpermuted_averages(self):
        x, y = self._data()
        src = RandomSource(99).substream(3)
        est = pstable_estimate(
            x, y, mu_hat=4.0, p=1.5, level_pairs=[(0.05, 0.95)], n_perms=8, src=src
        )
        [(q_lo, q_hi)], [ci] = est.quantiles, est.intervals
        assert (ci.lower, ci.upper) == _interval_formula(x, y, q_lo, q_hi, 1.5)

    def test_permuting_equal_increments_changes_nothing(self):
        # x − μ̂ = ±1 and y = x − μ̂, so every (x_i − μ̂)·y_i is 1 and every
        # ordering of the pairs scans the same increments
        x = np.where(np.random.default_rng(5).random(200) < 0.5, 3.0, 5.0)
        y = x - 4.0
        src = RandomSource(99).substream(3)
        one = pstable_estimate(x, y, mu_hat=4.0, p=1.5, level_pairs=[(0.05, 0.95)])
        avg = pstable_estimate(
            x, y, mu_hat=4.0, p=1.5, level_pairs=[(0.05, 0.95)], n_perms=6, src=src
        )
        assert avg.quantiles[0] == pytest.approx(one.quantiles[0], rel=1e-12)

    def test_permutation_averaging_is_reproducible(self):
        x, y = self._data()
        kwargs = dict(mu_hat=4.0, p=1.5, level_pairs=[(0.05, 0.95)], n_perms=16)
        a = pstable_estimate(x, y, src=RandomSource(42).substream(3), **kwargs)
        b = pstable_estimate(x, y, src=RandomSource(42).substream(3), **kwargs)
        assert a.quantiles == b.quantiles
        assert a.intervals == b.intervals
        c = pstable_estimate(x, y, src=RandomSource(43).substream(3), **kwargs)
        assert c.quantiles != a.quantiles

    def test_shift_equivariance_of_interval(self):
        x, y = self._data()
        [base] = pstable_estimate(x, y, mu_hat=4.0, p=1.5,
                                  level_pairs=[(0.05, 0.95)]).intervals
        [moved] = pstable_estimate(x + 50.0, y, mu_hat=54.0, p=1.5,
                                   level_pairs=[(0.05, 0.95)]).intervals
        assert moved.lower == pytest.approx(base.lower + 50.0, rel=1e-10)
        assert moved.upper == pytest.approx(base.upper + 50.0, rel=1e-10)

    def test_burn_in_changes_quantiles(self):
        x, y = self._data()
        plain = pstable_estimate(x, y, mu_hat=4.0, p=1.5, level_pairs=[(0.05, 0.95)])
        burned = pstable_estimate(x, y, mu_hat=4.0, p=1.5, level_pairs=[(0.05, 0.95)],
                                  burn_in=50)
        assert plain.quantiles != burned.quantiles

    def test_guards(self):
        x, y = self._data(n=16)
        with pytest.raises(ParameterError):
            pstable_estimate(x, y, 4.0, 1.5, [(0.05, 0.95)], n_perms=0)
        with pytest.raises(InputError):
            pstable_estimate(x, y, 4.0, 1.5, [(0.05, 0.95)], n_perms=2)
        y[3] = math.inf
        with pytest.raises(InputError, match="finite"):
            pstable_estimate(x, y, 4.0, 1.5, [(0.05, 0.95)])

    def test_instability_propagates(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(InstabilityError):
            pstable_estimate(x, y, mu_hat=2.0, p=1.5, level_pairs=[(0.05, 0.95)])

    def test_permuted_estimate_returns_mean_interval(self):
        x, y = self._data()
        [ci] = pstable_estimate(
            x, y, mu_hat=4.0, p=1.5, level_pairs=[(0.05, 0.95)], n_perms=4,
            src=RandomSource(13).substream(3),
        ).intervals
        assert ci.target == "mean"
        assert ci.lower < ci.upper


def _reference_quantiles(x, y, mu_hat, p, levels, *, burn_in, n_perms, src):
    """One compute_tn and WeightedEcdf per ordering of the (x, y) pairs, averaged in order."""
    lo_vals, hi_vals = [], []
    g = src.generator()
    for k in range(n_perms):
        if k == 0:
            xp, yp = x, y
        else:
            perm = g.permutation(x.size)
            xp, yp = x[perm], y[perm]
        ecdf = build_log_ecdf(compute_tn(xp, yp, mu_hat, p), burn_in)
        lo_vals.append(ecdf.quantile(levels[0]))
        hi_vals.append(ecdf.quantile(levels[1]))
    return math.fsum(lo_vals) / n_perms, math.fsum(hi_vals) / n_perms


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

    # both level pairs of one call against one reference loop per pair, in
    # one block of rows or (small_blocks) in blocks of 5 with the last short;
    # the ids keep the names the suite has always reported
    @pytest.mark.parametrize("n_perms", [1, 5, 11, 64])
    @pytest.mark.parametrize("small_blocks", [False, True])
    @pytest.mark.parametrize("burn_in", [0, 100])
    @pytest.mark.parametrize("kind", ["pareto", "walk"])
    def test_quantiles_match_reference_loop(self, monkeypatch, n_perms, small_blocks, burn_in,
                                            kind):
        x, y = self._data(kind)
        if small_blocks:
            monkeypatch.setattr(estimator, "_BLOCK_ENTRIES", 5 * x.size)
        kwargs = dict(burn_in=burn_in, n_perms=n_perms)
        level_pairs = [(0.05, 0.95), (0.3, 0.6)]
        est = pstable_estimate(x, y, 4.0, 1.2, level_pairs,
                               src=RandomSource(21).substream(3), **kwargs)
        for levels, quantiles in zip(level_pairs, est.quantiles, strict=True):
            ref = _reference_quantiles(x, y, 4.0, 1.2, levels,
                                       src=RandomSource(21).substream(3), **kwargs)
            assert tuple(map(float.hex, quantiles)) == tuple(map(float.hex, ref))
        tn = compute_tn(x, y, 4.0, 1.2)
        base = build_log_ecdf(tn, burn_in)
        assert est.tn.tobytes() == tn.tobytes()
        assert est.ecdf.points.tobytes() == base.points.tobytes()
        assert est.ecdf.cum_weights.tobytes() == base.cum_weights.tobytes()

    @pytest.mark.parametrize("k_rows, n", [(63, 1000), (5, 7), (2, 180_000)])
    def test_permuted_rows_draw_the_stream_of_single_permutations(self, k_rows, n):
        # one g.permuted per block stands in for one g.permutation per row
        g_rows = RandomSource(8).substream(3).generator()
        g_block = RandomSource(8).substream(3).generator()
        rows = np.stack([g_rows.permutation(n) for _ in range(k_rows)])
        block = g_block.permuted(np.tile(np.arange(n), (k_rows, 1)), axis=1)
        assert np.array_equal(block, rows)
        assert g_block.random() == g_rows.random()

    @pytest.mark.parametrize("n_perms", [1, 64])
    def test_added_level_pair_leaves_the_first_unchanged(self, n_perms):
        x, y = self._data()
        kwargs = dict(burn_in=50, n_perms=n_perms)
        one = pstable_estimate(x, y, 4.0, 1.2, [(0.05, 0.95)],
                               src=RandomSource(3).substream(3), **kwargs)
        both = pstable_estimate(x, y, 4.0, 1.2, [(0.05, 0.95), (0.005, 0.995)],
                                src=RandomSource(3).substream(3), **kwargs)
        [ci], (first, second) = one.intervals, both.intervals
        for a, b in (*zip(one.quantiles[0], both.quantiles[0]),
                     (ci.lower, first.lower), (ci.upper, first.upper)):
            assert a.hex() == b.hex()
        assert one.tn.tobytes() == both.tn.tobytes()
        assert (second.level_lo, second.level_hi) == (0.005, 0.995)
        assert second.lower <= first.lower <= first.upper <= second.upper

    def test_level_pairs_form_a_sequence(self):
        x, y = self._data(n=16)
        with pytest.raises(ParameterError, match="level pair"):
            pstable_estimate(x, y, 4.0, 1.2, [])
        with pytest.raises(ParameterError, match="levels"):
            pstable_estimate(x, y, 4.0, 1.2, [(0.05, 0.95), (0.9, 0.1)])

    def test_returned_arrays_own_their_data(self):
        # row 0 is copied out, so an estimate does not keep its block alive
        x, y = self._data()
        est = pstable_estimate(x, y, 4.0, 1.2, [(0.05, 0.95)], n_perms=64,
                               src=RandomSource(21).substream(3))
        assert est.tn.base is None
        assert est.ecdf.points.base is None
        assert est.ecdf.cum_weights.base is None
        assert est.ecdf_index.base is None

    @pytest.mark.parametrize("burn_in", [0, 3])
    @pytest.mark.parametrize("n_perms", [1, 8])
    def test_ecdf_index_is_the_stable_order(self, burn_in, n_perms):
        # observations equal to the centring value give increments of 0, so
        # the leading T_n are tied zeros, which keep their index order
        x, y = self._data(n=300)
        x[:40] = 4.0
        est = pstable_estimate(x, y, 4.0, 1.2, [(0.05, 0.95)], burn_in=burn_in,
                               n_perms=n_perms, src=RandomSource(5).substream(3))
        assert np.count_nonzero(est.tn[burn_in:] == 0.0) >= 40 - burn_in
        stable = burn_in + np.argsort(est.tn[burn_in:], kind="stable")
        assert est.ecdf_index.tolist() == stable.tolist()
        assert est.tn[est.ecdf_index].tobytes() == est.ecdf.points.tobytes()

    # 64 rows with the identity in blocks of 1, 5 and 20 rows, the last
    # block short; with blocks of 1 the identity is alone in its block
    @pytest.mark.parametrize("block_rows", [1, 5, 20])
    def test_row_blocks_do_not_change_results(self, monkeypatch, block_rows):
        x, y = self._data()
        monkeypatch.setattr(estimator, "_BLOCK_ENTRIES", block_rows * x.size)
        kwargs = dict(burn_in=100, n_perms=64)
        [quantiles] = pstable_estimate(x, y, 4.0, 1.2, [(0.05, 0.95)],
                                       src=RandomSource(5).substream(3), **kwargs).quantiles
        ref = _reference_quantiles(x, y, 4.0, 1.2, (0.05, 0.95),
                                   src=RandomSource(5).substream(3), **kwargs)
        assert tuple(map(float.hex, quantiles)) == tuple(map(float.hex, ref))

    def test_one_scale_vector_serves_every_block(self, monkeypatch):
        # 64 orderings in 13 blocks of 5 rows: one call builds one (N, p)
        # scale vector and hands that object to every block's scan
        x, y = self._data()
        monkeypatch.setattr(estimator, "_BLOCK_ENTRIES", 5 * x.size)
        handed = []

        def recorded_scan(z, scales):
            handed.append(scales)
            return tn_scan(z, scales)

        monkeypatch.setattr(_kernels, "tn_scan", recorded_scan)
        pstable_estimate(x, y, 4.0, 1.2, [(0.05, 0.95)], n_perms=64,
                         src=RandomSource(5).substream(3))
        assert len(handed) == 13
        assert all(scales is handed[0] for scales in handed)
        assert handed[0].tobytes() == _kernels.scale_vector(x.size, 1.2).tobytes()

    def test_concurrent_calls_match_sequential_calls(self, monkeypatch):
        # two threads at different (N, p), several blocks each, share no scan
        # state: each gets the bytes of the same call run alone
        monkeypatch.setattr(estimator, "_BLOCK_ENTRIES", 5 * 400)
        calls = [(self._data(n=400, seed=11), 1.2, 7), (self._data(n=250, seed=12), 1.7, 8)]

        def run(call):
            (x, y), p, seed = call
            est = pstable_estimate(x, y, 4.0, p, [(0.05, 0.95), (0.3, 0.6)], burn_in=10,
                                   n_perms=40, src=RandomSource(seed).substream(3))
            return est.tn.tobytes(), est.ecdf.points.tobytes(), repr(est.quantiles)

        alone = [run(call) for call in calls]
        barrier = threading.Barrier(len(calls))

        def run_together(call):
            barrier.wait()
            return [run(call) for _ in range(5)]

        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            together = list(pool.map(run_together, calls))
        for ref, runs in zip(alone, together, strict=True):
            assert all(result == ref for result in runs)
