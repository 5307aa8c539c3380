"""Normal-quantile approximation, CLT interval, bootstrap, comparison runner."""

import math

import numpy as np
import pytest

from heavytail.abelian import AbelianParams
from heavytail.baselines import (
    _BOOTSTRAP_BLOCK_ENTRIES,
    BootstrapConfig,
    ComparisonSpec,
    bootstrap_ecdf,
    clt_ci,
    compare_methods,
    distribution_mean,
    normal_quantile,
    sample_distribution,
)
from heavytail.errors import DomainError, InputError, ParameterError
from heavytail.estimator import compute_tn
from heavytail.rng import (
    ParetoLikeParams,
    PowerLawCutoffParams,
    RandomSource,
    StableParams,
)


def _erfc_inverse_cdf(q: float) -> float:
    """Bisection against Φ(x) = erfc(−x/√2)/2.

    Only valid on q <= 1/2: there the erfc argument is nonnegative and the
    evaluation is cancellation-free, so the bisection limit carries full
    double precision.
    """
    lo, hi = -15.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormalQuantile:
    def test_against_erfc_bisection_lower_half(self):
        for q in (1e-12, 1e-9, 1e-6, 1e-3, 0.025, 0.05, 0.1, 0.3, 0.45, 0.5):
            assert normal_quantile(q) == pytest.approx(
                _erfc_inverse_cdf(q), abs=1e-12
            ), q

    def test_frozen_reference_values(self):
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
        assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-12)
        assert normal_quantile(0.99) == pytest.approx(2.3263478740408408, abs=1e-12)
        assert normal_quantile(0.9) == pytest.approx(1.2815515655446004, abs=1e-12)
        assert normal_quantile(0.75) == pytest.approx(0.6744897501960817, abs=1e-12)

    def test_antisymmetry(self):
        for u in (0.01, 0.1, 0.25, 0.4):
            assert normal_quantile(u) + normal_quantile(1.0 - u) == pytest.approx(
                0.0, abs=1e-13
            )

    def test_monotone_across_branch_joins(self):
        # rational branches change at |q-0.5| = 0.425 and r = 5
        grid = np.unique(np.concatenate(
            [
                np.linspace(1e-12, 1e-10, 20),  # brackets the r = 5 join
                np.linspace(0.070, 0.080, 40),  # brackets the |q-0.5| = 0.425 join
                np.linspace(0.4, 0.6, 40),
            ]
        ))
        vals = [normal_quantile(float(q)) for q in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            normal_quantile(0.0)
        with pytest.raises(DomainError):
            normal_quantile(1.0)
        with pytest.raises(DomainError):
            normal_quantile(-0.2)


class TestCltCi:
    def test_hand_example(self):
        # x̄ = 3, s = √2.5, half-width z·s/√5
        ci = clt_ci([1.0, 2.0, 3.0, 4.0, 5.0], (0.025, 0.975))
        assert ci.lower == pytest.approx(1.6140961756503223, abs=1e-12)
        assert ci.upper == pytest.approx(4.385903824349677, abs=1e-12)
        assert ci.lower + ci.upper == pytest.approx(6.0, rel=1e-15)
        assert ci.target == "mean"
        assert not ci.degenerate

    def test_asymmetric_levels(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        ci = clt_ci(x, (0.05, 0.9))
        half = math.sqrt(2.5) / math.sqrt(5.0)
        assert ci.lower == pytest.approx(3.0 + normal_quantile(0.05) * half, rel=1e-14)
        assert ci.upper == pytest.approx(3.0 + normal_quantile(0.9) * half, rel=1e-14)

    def test_constant_sample_degenerates_to_point(self):
        ci = clt_ci([2.0, 2.0, 2.0], (0.05, 0.95))
        assert ci.lower == ci.upper == 2.0
        assert ci.degenerate

    def test_needs_two_observations(self):
        with pytest.raises(InputError):
            clt_ci([1.0], (0.05, 0.95))


class TestBootstrapConfig:
    def test_defaults(self):
        cfg = BootstrapConfig()
        assert cfg.replicates == 1000
        assert cfg.resample_mode == "pairs"
        assert cfg.norm_exponent is None

    def test_guards(self):
        with pytest.raises(ParameterError):
            BootstrapConfig(replicates=0)
        with pytest.raises(ParameterError):
            BootstrapConfig(resample_mode="wild")


class TestBootstrapEcdf:
    def test_identity_mode_is_a_unit_step_at_the_terminal_statistic(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([3.0, 2.0, 1.0])
        cfg = BootstrapConfig(replicates=1, resample_mode="identity")
        e = bootstrap_ecdf(x, y, 0.5, 1.5, cfg, RandomSource(1).substream(4))
        assert e.points.shape == (1,)
        # 3^(-2/3) * (0.5*3 + 1.5*2 + 2.5*1)
        assert e.points[0] == pytest.approx(3.3652489973839534, rel=1e-15)
        assert e.points[0] == compute_tn(x, y, 0.5, 1.5).values[-1]
        assert e.cum_weights.tolist() == [1.0]
        assert e.normalizer == 1.0
        assert e.quantile(0.5) == e.points[0]

    def test_identity_mode_replicates_coincide(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([3.0, 2.0, 1.0])
        cfg = BootstrapConfig(replicates=5, resample_mode="identity")
        e = bootstrap_ecdf(x, y, 0.5, 1.5, cfg, RandomSource(1).substream(4))
        assert np.all(e.points == e.points[0])
        np.testing.assert_allclose(e.cum_weights, np.arange(1, 6) / 5.0)

    def test_pairs_mode_reproducible_and_stream_sensitive(self):
        rng = np.random.default_rng(3)
        x = rng.pareto(2.0, size=100) + 3.0
        y = rng.standard_normal(100)
        cfg = BootstrapConfig(replicates=64)
        a = bootstrap_ecdf(x, y, 4.0, 1.5, cfg, RandomSource(9).substream(4))
        b = bootstrap_ecdf(x, y, 4.0, 1.5, cfg, RandomSource(9).substream(4))
        c = bootstrap_ecdf(x, y, 4.0, 1.5, cfg, RandomSource(9).substream(5))
        assert a.points.tolist() == b.points.tolist()
        assert a.points.tolist() != c.points.tolist()
        assert np.all(np.diff(a.points) >= 0)
        assert a.cum_weights[-1] == 1.0

    def test_x_only_matches_pairs_when_multipliers_are_constant(self):
        # identical index draws, and constant Y makes the y-resample moot
        rng = np.random.default_rng(4)
        x = rng.pareto(2.0, size=50) + 3.0
        y = np.ones(50)
        cfg_p = BootstrapConfig(replicates=32, resample_mode="pairs")
        cfg_x = BootstrapConfig(replicates=32, resample_mode="x_only")
        a = bootstrap_ecdf(x, y, 4.0, 1.5, cfg_p, RandomSource(9).substream(4))
        b = bootstrap_ecdf(x, y, 4.0, 1.5, cfg_x, RandomSource(9).substream(4))
        assert a.points.tolist() == b.points.tolist()

    def test_custom_norm_exponent(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([3.0, 2.0, 1.0])
        cfg = BootstrapConfig(replicates=1, resample_mode="identity",
                              norm_exponent=1.0)
        e = bootstrap_ecdf(x, y, 0.5, 1.5, cfg, RandomSource(1).substream(4))
        assert e.points[0] == pytest.approx(7.0 / 3.0, rel=1e-15)

    def test_block_splitting_keeps_count(self):
        # n = 5000 forces the index matrix into multiple row blocks
        rng = np.random.default_rng(5)
        x = rng.normal(size=5000)
        y = rng.normal(size=5000)
        cfg = BootstrapConfig(replicates=500)
        e = bootstrap_ecdf(x, y, 0.0, 1.5, cfg, RandomSource(2).substream(4))
        assert e.points.shape == (500,)
        assert np.all(np.diff(e.points) >= 0)

    @pytest.mark.parametrize("mode", ["pairs", "x_only", "identity"])
    def test_matches_separate_gather_formula(self, mode):
        # reference: gather x and y separately, then form (x − μ̂)·y; n = 5000
        # splits the 1000 replicates into row blocks
        rng = np.random.default_rng(6)
        x = rng.pareto(1.5, size=5000) + 1.0
        y = rng.standard_normal(5000)
        mu_hat, p = 2.5, 1.4
        cfg = BootstrapConfig(replicates=1000, resample_mode=mode)
        e = bootstrap_ecdf(x, y, mu_hat, p, cfg, RandomSource(3).substream(4))

        g = RandomSource(3).substream(4).generator()
        n, B = x.size, cfg.replicates
        stats = np.empty(B)
        block = max(1, _BOOTSTRAP_BLOCK_ENTRIES // n)
        for start in range(0, B, block):
            rows = min(block, B - start)
            if mode == "identity":
                idx = np.tile(np.arange(n), (rows, 1))
            else:
                idx = g.integers(0, n, size=(rows, n))
            yb = y[idx] if mode != "x_only" else np.broadcast_to(y, (rows, n))
            stats[start:start + rows] = ((x[idx] - mu_hat) * yb).sum(axis=1) * n ** (-1.0 / p)
        assert np.array_equal(e.points, np.sort(stats, kind="stable"))

    def test_input_guards(self):
        with pytest.raises(InputError):
            bootstrap_ecdf([], [], 0.0, 1.5, BootstrapConfig(),
                           RandomSource(1).substream(4))
        with pytest.raises(InputError):
            bootstrap_ecdf([1.0], [1.0, 2.0], 0.0, 1.5, BootstrapConfig(),
                           RandomSource(1).substream(4))


class TestComparisonSpec:
    def _y(self, p=1.5):
        return StableParams(p=p, delta=1.0)

    def test_guards(self):
        dist = ParetoLikeParams(a=2.0, x_min=3.0, apply_transform=True)
        with pytest.raises(ParameterError):
            ComparisonSpec(distribution=dist, n=1, p=1.5, y_params=self._y())
        with pytest.raises(ParameterError):
            ComparisonSpec(distribution=dist, n=100, p=1.5, y_params=self._y(),
                           mu_mode="guess")
        with pytest.raises(ParameterError):
            ComparisonSpec(distribution=dist, n=100, p=1.5, y_params=self._y(),
                           reference_count=0)
        with pytest.raises(ParameterError):
            ComparisonSpec(distribution=dist, n=100, p=1.7, y_params=self._y(1.5))


class TestSampleDispatch:
    def test_each_family_samples(self):
        src = RandomSource(21).substream(1)
        for params, count in (
            (ParetoLikeParams(a=2.0, x_min=3.0, apply_transform=True), 50),
            (PowerLawCutoffParams(tau=1.5, x_m=100), 50),
            (StableParams(p=1.5, delta=1.0), 50),
            (AbelianParams(N=10, alpha=0.5), 50),
        ):
            out = sample_distribution(params, src, count)
            assert out.shape == (count,)
            assert out.dtype == np.float64

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            sample_distribution(object(), RandomSource(1).substream(1), 10)

    def test_analytic_means(self):
        assert distribution_mean(
            ParetoLikeParams(a=2.0, x_min=3.0, apply_transform=True)
        ) == pytest.approx(6.0 * (1.0 + math.log(3.0)), rel=1e-14)
        assert distribution_mean(
            PowerLawCutoffParams(tau=1.5, x_m=100)
        ) == pytest.approx(7.704340576564341, rel=1e-13)
        assert distribution_mean(StableParams(p=1.5, delta=2.5)) == 2.5
        with pytest.raises(ParameterError):
            distribution_mean(StableParams(p=1.0, delta=1.0))
        assert distribution_mean(AbelianParams(N=2, alpha=0.5)) == pytest.approx(
            4.0 / 3.0, rel=1e-14
        )
        with pytest.raises(ParameterError):
            distribution_mean(object())


class TestCompareMethods:
    def _spec(self, **kw):
        defaults = dict(
            distribution=ParetoLikeParams(a=2.0, x_min=3.0, apply_transform=True),
            n=300,
            p=1.2,
            y_params=StableParams(p=1.2, delta=1.0),
            reference_count=20_000,
        )
        defaults.update(kw)
        return ComparisonSpec(**defaults)

    def test_smoke_both_methods(self):
        rep = compare_methods(self._spec(), (0.05, 0.95), src=RandomSource(31))
        assert {mi.method for mi in rep.intervals} == {"pstable", "clt"}
        ps = rep.by_method("pstable")
        assert ps.mean.target == "mean"
        assert ps.alpha.target == "alpha"
        assert ps.mean.lower < ps.mean.upper
        # 20k reference draws put the reference mean near 6(1+ln 3)
        assert rep.reference_mean == pytest.approx(6.0 * (1.0 + math.log(3.0)),
                                                   rel=0.1)
        assert rep.reference_alpha == pytest.approx(
            1.0 - 1.0 / rep.reference_mean, rel=1e-15
        )
        with pytest.raises(KeyError):
            rep.by_method("waving")

    def test_rows_layout(self):
        rep = compare_methods(self._spec(), (0.05, 0.95), src=RandomSource(31))
        rows = rep.rows()
        assert len(rows) == 4
        methods = [(r[0], r[1]) for r in rows]
        assert ("pstable", "mean") in methods
        assert ("clt", "alpha") in methods
        for r in rows:
            assert r[4] == (r[2] is not None)
            assert r[5] == (r[3] is not None)

    def test_reproducible(self):
        a = compare_methods(self._spec(), (0.05, 0.95), src=RandomSource(31))
        b = compare_methods(self._spec(), (0.05, 0.95), src=RandomSource(31))
        assert a.by_method("pstable").mean.lower == b.by_method("pstable").mean.lower
        assert a.reference_mean == b.reference_mean

    def test_single_method_selection(self):
        rep = compare_methods(
            self._spec(), (0.05, 0.95), methods={"clt"}, src=RandomSource(31)
        )
        assert [mi.method for mi in rep.intervals] == ["clt"]

    def test_mu_modes(self):
        for mode, kw in (("true", {}), ("pilot", {"pilot_count": 50})):
            rep = compare_methods(
                self._spec(mu_mode=mode, **kw), (0.05, 0.95), src=RandomSource(31)
            )
            assert rep.by_method("pstable").mean.lower is not None

    def test_guards(self):
        with pytest.raises(InputError):
            compare_methods(self._spec(), (0.05, 0.95))
        with pytest.raises(ParameterError):
            compare_methods(self._spec(), (0.05, 0.95), methods={"psych"},
                            src=RandomSource(31))
