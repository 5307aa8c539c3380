"""Stream derivation, samplers, and their exact/analytic properties."""

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from heavytail.abelian import AbelianParams, abelian_mean, abelian_pmf_vector
from heavytail.errors import CapacityError, ParameterError
from heavytail.rng import (
    DISTRIBUTIONS,
    ParetoLikeParams,
    PowerLawCutoffParams,
    RandomSource,
    StableParams,
    _build_table,
    heavy_transform,
    law_table,
    pareto_like_inverse_cdf,
    sample_pareto_like,
    sample_stable,
    sample_tabled,
    table_inverse_cdf,
)


class TestStreams:
    def test_same_seed_same_draws(self):
        a = RandomSource(7).generator().standard_normal(16)
        b = RandomSource(7).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_stream_id_changes_draws(self):
        a = RandomSource(7).generator().standard_normal(16)
        b = RandomSource(7, stream_id=1).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_substream_depends_on_full_path(self):
        base = RandomSource(7)
        one = base.substream(1, 2).generator().standard_normal(8)
        two = base.substream(2, 1).generator().standard_normal(8)
        three = base.substream(1, 2).generator().standard_normal(8)
        assert np.array_equal(one, three)
        assert not np.array_equal(one, two)

    def test_substream_chaining_equals_flat_path(self):
        base = RandomSource(3)
        flat = base.substream(4, 9).generator().standard_normal(8)
        chained = base.substream(4).substream(9).generator().standard_normal(8)
        assert np.array_equal(flat, chained)


class TestStableParams:
    def test_rejects_bad_order(self):
        for p in (0.0, -1.0, 2.5):
            with pytest.raises(ParameterError):
                StableParams(p=p, gamma=1.0, delta=0.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ParameterError):
            StableParams(p=1.5, gamma=0.0, delta=0.0)


class TestStableSampler:
    def test_location_scale(self):
        src = RandomSource(11)
        base = sample_stable(StableParams(p=1.5, gamma=1.0, delta=0.0), src, 4096)
        shifted = sample_stable(StableParams(p=1.5, gamma=2.0, delta=3.0), src, 4096)
        np.testing.assert_allclose(shifted, 2.0 * base + 3.0, rtol=1e-12)

    def test_gaussian_boundary_variance(self):
        # p = 2 reduces to N(delta, 2*gamma^2): cf exp(-gamma^2 u^2)
        x = sample_stable(
            StableParams(p=2.0, gamma=1.0, delta=0.0), RandomSource(13), 200_000
        )
        assert abs(np.var(x) - 2.0) < 0.05
        assert abs(np.mean(x)) < 0.02

    def test_symmetry_about_delta(self):
        x = sample_stable(
            StableParams(p=1.3, gamma=1.0, delta=1.0), RandomSource(17), 100_000
        )
        c = x - 1.0
        pos = np.sort(c[c > 0])
        neg = np.sort(-c[c < 0])
        m = min(pos.size, neg.size)
        # KS distance between the positive and reflected negative parts
        grid = np.concatenate([pos[:m], neg[:m]])
        f1 = np.searchsorted(pos, grid, side="right") / pos.size
        f2 = np.searchsorted(neg, grid, side="right") / neg.size
        assert np.max(np.abs(f1 - f2)) < 0.02

    def test_median_location(self):
        # stream-median of per-stream means is a robust location check at p>1
        meds = []
        for k in range(20):
            x = sample_stable(
                StableParams(p=1.2, gamma=1.0, delta=1.0), RandomSource(900 + k), 50_000
            )
            meds.append(np.mean(x))
        assert abs(np.median(meds) - 1.0) < 0.15

    def test_cauchy_branch(self):
        # p=1 is the Cauchy scale family: quartiles at delta +/- gamma
        x = sample_stable(
            StableParams(p=1.0, gamma=2.0, delta=5.0), RandomSource(19), 200_000
        )
        q25, q50, q75 = np.quantile(x, [0.25, 0.5, 0.75])
        assert abs(q50 - 5.0) < 0.05
        assert abs((q75 - q25) / 2.0 - 2.0) < 0.05


class TestParetoLike:
    def test_inverse_cdf_raw(self):
        params = ParetoLikeParams(a=2.0, x_min=3.0, transform=False)
        u = np.array([0.0, 0.75, 0.99])
        np.testing.assert_allclose(
            pareto_like_inverse_cdf(params, u), [3.0, 6.0, 30.0], rtol=1e-12
        )

    def test_transform_mean_formula(self):
        #  a x_min ((a-1) ln x_min + 1) / (a-1)^2  at a=2, x_min=3 is 6(1+ln 3)
        params = ParetoLikeParams(a=2.0, x_min=3.0, transform=True)
        assert params.mean() == pytest.approx(6.0 * (1.0 + math.log(3.0)), rel=1e-14)

    def test_transform_mean_monte_carlo(self):
        params = ParetoLikeParams(a=2.0, x_min=3.0, transform=True)
        x = sample_pareto_like(params, RandomSource(29), 2_000_000)
        # infinite variance: generous band around the analytic value
        assert abs(np.mean(x) / params.mean() - 1.0) < 0.1

    def test_transform_mean_below_e(self):
        # f is the identity below e: a·x_min^a·[(e^(1−a) − x_min^(1−a))/(1 − a)
        # + a·e^(1−a)/(a − 1)^2], which meets the x_min ≥ e formula at e
        for a in (1.3, 2.0, 2.5, 4.0):
            below = ParetoLikeParams(a=a, x_min=np.nextafter(math.e, 0.0), transform=True)
            at_e = ParetoLikeParams(a=a, x_min=math.e, transform=True)
            assert below.mean() == pytest.approx(at_e.mean(), rel=1e-14), a
        params = ParetoLikeParams(a=2.5, x_min=1.0, transform=True)
        assert params.mean() == pytest.approx(1.9146, abs=1e-4)
        # finite variance at a = 2.5: within 3 standard errors of a sample mean
        x = sample_pareto_like(params, RandomSource(29), 1_000_000)
        assert abs(np.mean(x) - params.mean()) < 3.0 * np.std(x) / math.sqrt(x.size)

    def test_heavy_transform_pointwise(self):
        x = np.array([-4.0, -1.0, 0.0, 0.5, math.e, 10.0])
        expect = np.array(
            [-4.0 * math.log(4.0), -1.0, 0.0, 0.5, math.e, 10.0 * math.log(10.0)]
        )
        np.testing.assert_allclose(heavy_transform(x), expect, rtol=1e-14)


class TestPowerLawCutoff:
    def test_pmf_table_quantiles(self):
        params = PowerLawCutoffParams(tau=1.5, x_m=4)
        # weights k^-1.5 for k=1..4, cumulative normalized
        w = np.array([1.0, 2.0 ** -1.5, 3.0 ** -1.5, 4.0 ** -1.5])
        cum = np.cumsum(w) / np.sum(w)
        assert table_inverse_cdf(params, np.array([cum[0] - 1e-12]))[0] == 1
        assert table_inverse_cdf(params, np.array([cum[0] + 1e-12]))[0] == 2
        assert table_inverse_cdf(params, np.array([0.999999]))[0] == 4

    def test_table_inverse_at_and_beside_table_entries(self):
        # u exactly on cdf[j] maps to k = j + 1; one ulp above, to j + 2
        params = PowerLawCutoffParams(tau=1.5, x_m=1000)
        cdf = law_table(params)[0]
        j = np.array([0, 1, 499, 998])
        on = cdf[j]
        u = np.concatenate([np.nextafter(on, 0.0), on, np.nextafter(on, 1.0)])
        expected = np.searchsorted(cdf, u, side="left") + 1
        assert np.array_equal(expected, np.concatenate([j + 1, j + 1, j + 2]))
        k = table_inverse_cdf(params, u)
        assert k.dtype == np.int64
        assert np.array_equal(k, expected)

    def test_exact_mean_value(self):
        params = PowerLawCutoffParams(tau=1.5, x_m=100)
        assert params.mean() == pytest.approx(7.704340576564341, rel=1e-13)

    def test_sample_mean_tracks_exact(self):
        params = PowerLawCutoffParams(tau=1.5, x_m=1000)
        x = sample_tabled(params, RandomSource(31), 400_000)
        assert abs(np.mean(x) / params.mean() - 1.0) < 0.05

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            PowerLawCutoffParams(tau=1.5, x_m=1_000_001)

    def test_samples_are_integers_in_support(self):
        params = PowerLawCutoffParams(tau=1.5, x_m=50)
        x = sample_tabled(params, RandomSource(37), 10_000)
        assert x.min() >= 1 and x.max() <= 50
        assert np.all(x == np.round(x))


class TestAbelianSampler:
    def test_frequencies_match_pmf_small(self):
        params = AbelianParams(N=2, alpha=0.5)  # pmf (2/3, 1/3)
        x = sample_tabled(params, RandomSource(41), 60_000)
        assert x.dtype == np.int64
        freq1 = np.mean(x == 1)
        assert abs(freq1 - 2.0 / 3.0) < 0.01

    def test_sample_mean_matches_formula(self):
        params = AbelianParams(N=50, alpha=0.5)
        x = sample_tabled(params, RandomSource(43), 200_000)
        assert abs(np.mean(x) - abelian_mean(params)) < 0.02


class TestLawTable:
    def test_cutoff_table_and_mean_match_direct_summation(self):
        params = PowerLawCutoffParams(tau=1.5, x_m=1000)
        cdf, mean = law_table(params)
        k = np.arange(1, 1001, dtype=np.float64)
        w = k ** -1.5
        assert cdf.tobytes() == (np.cumsum(w) / np.cumsum(w)[-1]).tobytes()
        assert mean == float(np.sum(k * w) / np.sum(w))
        assert not cdf.flags.writeable
        assert law_table(PowerLawCutoffParams(tau=1.5, x_m=1000))[0] is cdf

    def test_abelian_table_and_mean(self):
        params = AbelianParams(N=500, alpha=0.9)
        cdf, mean = law_table(params)
        pmf = abelian_pmf_vector(params)
        assert cdf.tobytes() == (np.cumsum(pmf) / np.cumsum(pmf)[-1]).tobytes()
        assert mean == abelian_mean(params)

    def test_threads_that_miss_together_build_once(self, monkeypatch):
        kind = DISTRIBUTIONS["power_law_cutoff"]
        calls = []

        def slow_weights(params):
            calls.append(params)
            time.sleep(0.05)
            return kind.weights(params)

        monkeypatch.setitem(DISTRIBUTIONS, "power_law_cutoff", replace(kind, weights=slow_weights))
        params = PowerLawCutoffParams(tau=1.25, x_m=777)
        _build_table.cache_clear()
        barrier = threading.Barrier(4, timeout=10)

        def lookup(_):
            barrier.wait()
            return law_table(params)

        # more threads than cores, switching often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                tables = list(pool.map(lookup, range(4), timeout=10))
        finally:
            sys.setswitchinterval(interval)
            _build_table.cache_clear()
        assert len(calls) == 1
        assert all(t is tables[0] for t in tables)
