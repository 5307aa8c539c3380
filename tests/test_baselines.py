"""Normal-quantile approximation, CLT interval, bootstrap, method runner."""

import hashlib
import math

import numpy as np
import pytest
import yaml

from heavytail import cli
from heavytail.abelian import AbelianParams
from heavytail.baselines import (
    _BOOTSTRAP_BLOCK_ENTRIES,
    BootstrapConfig,
    bootstrap_ecdf,
    clt_ci,
    distribution_mean,
    method_rows,
    normal_quantile,
    sample_distribution,
    with_reference,
)
from heavytail.errors import DomainError, InputError, ParameterError
from heavytail.rng import (
    ParetoLikeParams,
    PowerLawCutoffParams,
    RandomSource,
    StableParams,
)

PARETO = ParetoLikeParams(a=2.0, x_min=3.0, apply_transform=True)

# sha256 of compare.csv for _compare(**overrides), recorded when the
# reference became the law's exact mean. The default config's CLT rows pin
# the CLT bytes under mu_mode full.
COMPARE_CSV_SHA256 = (
    ({"mu_mode": "pilot", "pilot_count": 50},
     "6b7a33f95c67945a33c7a4301b05251206d4afdccdbd3bf6fc582040cb1516d3"),
    ({},
     "f40a98bcb4be598d2a28f7f4aa94a2d46efd51b6540a43c2fa53a689d8dcd1e7"),
)

# float.hex of normal_quantile(q), recorded from the hand-coded PPND16 the
# standard library's NormalDist.inv_cdf replaced: the shipped levels, the
# centre, both neighbours of the branch edges |q - 0.5| = 0.425, and the
# deep tails. A platform whose stdlib rounds differently fails here.
NORMAL_QUANTILE_HEX = (
    (0.005, "-0x1.49b4c64d6915fp+1"),
    (0.02, "-0x1.06e13e8aadfdbp+1"),
    (0.05, "-0x1.a515209676abdp+0"),
    (0.95, "0x1.a515209676ab8p+0"),
    (0.98, "0x1.06e13e8aadfdap+1"),
    (0.995, "0x1.49b4c64d6915fp+1"),
    (0.5, "0x0.0p+0"),
    (math.nextafter(0.075, 0.0), "-0x1.7085226d3e522p+0"),
    (0.075, "-0x1.7085226d3e523p+0"),
    (math.nextafter(0.075, 1.0), "-0x1.7085226d3e523p+0"),
    (math.nextafter(0.925, 0.0), "0x1.7085226d3e521p+0"),
    (0.925, "0x1.7085226d3e524p+0"),
    (math.nextafter(0.925, 1.0), "0x1.7085226d3e528p+0"),
    (1e-300, "-0x1.286074064c26ep+5"),
    (5e-324, "-0x1.33bd3f27fcd02p+5"),
    (1 - 2**-53, "0x1.06b48528cea51p+3"),
)


def _compare(tmp_path, **overrides):
    """Exit code of `heavytail compare` on a small Pareto config, and its output dir."""
    cfg = {
        "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True},
        "n": 300, "p": 1.2, "levels": [0.05, 0.95], "seed": 31,
        **overrides,
    }
    path = tmp_path / "cmp.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    return cli.main(["compare", "--config", str(path), "--out", str(out)]), out


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

    def test_bits_are_pinned(self):
        for q, bits in NORMAL_QUANTILE_HEX:
            assert float.hex(normal_quantile(q)) == bits, q

    def test_domain(self):
        with pytest.raises(DomainError):
            normal_quantile(0.0)
        with pytest.raises(DomainError):
            normal_quantile(1.0)
        with pytest.raises(DomainError):
            normal_quantile(-0.2)
        with pytest.raises(DomainError):
            normal_quantile(float("nan"))


class TestCltCi:
    def test_hand_example(self):
        # x̄ = 3, s = √2.5, half-width z·s/√5
        ci = clt_ci([1.0, 2.0, 3.0, 4.0, 5.0], (0.025, 0.975))
        assert ci.lower == pytest.approx(1.6140961756503223, abs=1e-12)
        assert ci.upper == pytest.approx(4.385903824349677, abs=1e-12)
        assert ci.lower + ci.upper == pytest.approx(6.0, rel=1e-15)
        assert ci.target == "mean"

    def test_asymmetric_levels(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        ci = clt_ci(x, (0.05, 0.9))
        half = math.sqrt(2.5) / math.sqrt(5.0)
        assert ci.lower == pytest.approx(3.0 + normal_quantile(0.05) * half, rel=1e-14)
        assert ci.upper == pytest.approx(3.0 + normal_quantile(0.9) * half, rel=1e-14)

    def test_constant_sample_degenerates_to_point(self):
        ci = clt_ci([2.0, 2.0, 2.0], (0.05, 0.95))
        assert ci.lower == ci.upper == 2.0

    def test_needs_two_observations(self):
        with pytest.raises(InputError):
            clt_ci([1.0], (0.05, 0.95))


class TestBootstrapConfig:
    def test_defaults(self):
        cfg = BootstrapConfig()
        assert cfg.replicates == 1000
        assert cfg.resample_mode == "pairs"

    def test_guards(self):
        with pytest.raises(ParameterError):
            BootstrapConfig(replicates=0)

    def test_resample_mode_cannot_be_set(self):
        # the pairs bootstrap is the only plan; resample_mode is not a field
        for mode in ("pairs", "x_only", "identity"):
            with pytest.raises(TypeError):
                BootstrapConfig(resample_mode=mode)


class TestBootstrapEcdf:
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

    def test_block_splitting_keeps_count(self):
        # n = 5000 forces the index matrix into multiple row blocks
        rng = np.random.default_rng(5)
        x = rng.normal(size=5000)
        y = rng.normal(size=5000)
        cfg = BootstrapConfig(replicates=500)
        e = bootstrap_ecdf(x, y, 0.0, 1.5, cfg, RandomSource(2).substream(4))
        assert e.points.shape == (500,)
        assert np.all(np.diff(e.points) >= 0)

    @pytest.mark.parametrize("mode", ["pairs"])
    def test_matches_separate_gather_formula(self, mode):
        # reference: gather x and y separately, then form (x − μ̂)·y; n = 5000
        # splits the 1000 replicates into row blocks
        rng = np.random.default_rng(6)
        x = rng.pareto(1.5, size=5000) + 1.0
        y = rng.standard_normal(5000)
        mu_hat, p = 2.5, 1.4
        cfg = BootstrapConfig(replicates=1000)
        assert cfg.resample_mode == mode
        e = bootstrap_ecdf(x, y, mu_hat, p, cfg, RandomSource(3).substream(4))

        g = RandomSource(3).substream(4).generator()
        n, B = x.size, cfg.replicates
        stats = np.empty(B)
        block = max(1, _BOOTSTRAP_BLOCK_ENTRIES // n)
        for start in range(0, B, block):
            rows = min(block, B - start)
            idx = g.integers(0, n, size=(rows, n))
            stats[start:start + rows] = ((x[idx] - mu_hat) * y[idx]).sum(axis=1) * n ** (-1.0 / p)
        assert np.array_equal(e.points, np.sort(stats, kind="stable"))

    def test_input_guards(self):
        with pytest.raises(InputError):
            bootstrap_ecdf([], [], 0.0, 1.5, BootstrapConfig(),
                           RandomSource(1).substream(4))
        with pytest.raises(InputError):
            bootstrap_ecdf([1.0], [1.0, 2.0], 0.0, 1.5, BootstrapConfig(),
                           RandomSource(1).substream(4))


class TestComparisonSpec:
    """Guards on the compare config: each is a configuration error (exit 2)."""

    @pytest.fixture
    def no_sample(self, monkeypatch):
        # a refused config draws nothing
        def refuse(*args, **kwargs):
            raise AssertionError("sample drawn")

        monkeypatch.setattr(cli, "method_rows", refuse)

    def test_guards(self, tmp_path, capsys, no_sample):
        # each is refused before any draw and before any output exists
        for bad in (
            {"n": 1},
            {"mu_mode": "guess"},
            {"reference_count": 20000},
            {"y_stable": {"p": 1.7}},
            {"n": 500, "mu_mode": "pilot"},
            {"n": 500, "mu_mode": "pilot", "pilot_count": 500},
        ):
            rc, out = _compare(tmp_path, **bad)
            assert rc == 2, bad
            assert not out.exists()
        assert capsys.readouterr().err.count("error:") == 6

    def test_pilot_leaves_two_observations(self, tmp_path, capsys):
        # the CLT interval needs two observations beyond the pilot
        rc, out = _compare(tmp_path, n=12, mu_mode="pilot", pilot_count=11)
        assert rc == 2
        assert "pilot_count <= n - 2 = 10" in capsys.readouterr().err
        assert not out.exists()
        assert _compare(tmp_path, n=12, mu_mode="pilot", pilot_count=10)[0] == 0

    @pytest.mark.parametrize("law", [
        {"kind": "stable", "p": 1.0},
        {"kind": "stable", "p": 0.8, "delta": 1.0},
        {"kind": "pareto_like", "a": 1.0, "x_min": 3.0},
        {"kind": "pareto_like", "a": 0.9, "x_min": 3.0, "transform": True},
    ])
    def test_law_without_mean_is_refused(self, tmp_path, capsys, no_sample, law):
        # the reference is the law's mean: a law without one is refused, not sampled
        rc, out = _compare(tmp_path, distribution=law)
        assert rc == 2
        assert "mean" in capsys.readouterr().err
        assert not out.exists()


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
    """method_rows and with_reference: the protocol of compare and fig6."""

    def _rows(self, **kw):
        return [
            with_reference(row, distribution_mean(PARETO))
            for row in method_rows(PARETO, RandomSource(31), 300, 1.2, (0.05, 0.95), **kw)
        ]

    def test_smoke_both_methods(self):
        rows = self._rows()
        assert {r["method"] for r in rows} == {"pstable", "clt"}
        assert rows[0]["lower"] < rows[0]["upper"]
        # the reference is the exact mean 6(1+ln 3) and its α
        mean = 6.0 * (1.0 + math.log(3.0))
        alpha = 1.0 - 1.0 / mean
        assert [r["reference_value"] for r in rows] == pytest.approx(
            [mean, alpha, mean, alpha], rel=1e-14
        )
        # α is undefined for a nonpositive reference mean
        row = {"method": "clt", "target": "alpha"}
        assert with_reference(row, distribution_mean(StableParams(p=1.5, delta=-1.0))) == {
            **row, "reference_value": None,
        }

    def test_rows_layout(self):
        rows = self._rows()
        assert [(r["method"], r["target"]) for r in rows] == [
            ("pstable", "mean"), ("pstable", "alpha"), ("clt", "mean"), ("clt", "alpha"),
        ]
        for r in rows:
            assert list(r) == [
                "method", "target", "lower", "upper",
                "lower_defined", "upper_defined", "reference_value",
            ]
            assert r["lower_defined"] == (r["lower"] is not None)
            assert r["upper_defined"] == (r["upper"] is not None)

    def test_reproducible(self):
        assert self._rows() == self._rows()

    def test_mu_modes(self, tmp_path):
        for mode, kw in (("true", {}), ("pilot", {"pilot_count": 50})):
            assert self._rows(mu_mode=mode, **kw)[0]["lower"] is not None
        # YAML reads a bare `true` as a boolean; compare takes it as "true"
        rc, out = _compare(tmp_path, mu_mode=True)
        assert rc == 0
        bare = (out / "compare.csv").read_bytes()
        rc, out = _compare(tmp_path, mu_mode="true")
        assert rc == 0
        assert (out / "compare.csv").read_bytes() == bare
        # a null mu_mode reads as compare's default, full
        rc, out = _compare(tmp_path)
        full = (out / "compare.csv").read_bytes()
        rc, out = _compare(tmp_path, mu_mode=None)
        assert rc == 0
        assert (out / "compare.csv").read_bytes() == full

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        for overrides, digest in COMPARE_CSV_SHA256:
            rc, out = _compare(tmp_path, **overrides)
            assert rc == 0
            csv_bytes = (out / "compare.csv").read_bytes()
            assert hashlib.sha256(csv_bytes).hexdigest() == digest, overrides
