"""Normal-quantile approximation, CLT interval, bootstrap, sample dispatch.

A p-stable-vs-CLT comparison on one synthetic draw is a one-panel,
one-replication fig6 config run by `simulate`; the tests of that config
are here beside the CLT interval its rows hold.
"""

import csv
import hashlib
import math
import warnings

import numpy as np
import pytest
import yaml

from heavytail import baselines, cli, experiments, rng
from heavytail.abelian import AbelianParams
from heavytail.baselines import (
    BootstrapConfig,
    bootstrap_ecdf,
    clt_ci,
    normal_quantile,
    sample_distribution,
)
from heavytail.errors import DomainError, InputError, InstabilityError, ParameterError
from heavytail.estimator import ci_alpha, pstable_estimate
from heavytail.rng import (
    ParetoLikeParams,
    PowerLawCutoffParams,
    RandomSource,
    StableParams,
)

PARETO = ParetoLikeParams(a=2.0, x_min=3.0, transform=True)

# sha256 of intervals.csv for _one_panel(**overrides), recorded when every
# interval study took one row layout, which added the level_lo and level_hi
# columns (every other cell kept the bytes it had since the comparison became
# a one-panel fig6 run). The default config's CLT rows pin the CLT bytes
# under mu_mode full.
ONE_PANEL_CSV_SHA256 = (
    ({"mu_mode": "pilot", "pilot": 50},
     "4eb85191104df6f663617dc66b37a721365e2032484b2ef11c2e9182f3b4a329"),
    ({},
     "439e4a4a55c84de5ab9ca4f1ffb8ff8e5adfcfc713b572f9e970a2b21f8a2ec9"),
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


def _one_panel(tmp_path, **overrides):
    """Exit code of `heavytail simulate` on a one-panel, one-replication
    fig6 config of a Pareto-like law, and its output dir."""
    cfg = {
        "experiment": "fig6", "seed": 31, "p": 1.2, "total": 300,
        "panels": [{"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True}],
        "levels": [[0.05, 0.95]], "mu_mode": "full",
        **overrides,
    }
    path = tmp_path / "cmp.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    return cli.main(["simulate", "--config", str(path), "--out", str(out)]), out


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

    @pytest.mark.parametrize("value, name", [(1e307, "standard deviation"), (1e308, "mean")])
    def test_float64_overflow_is_instability(self, value, name):
        # finite data: six 1e307 overflow the squared deviations, six 1e308 the sum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match=f"sample {name} is inf"):
                clt_ci([value] * 6 + [1.0] * 30, (0.05, 0.95))


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
        for row in range(B):
            idx = g.integers(0, n, size=n)
            stats[row] = ((x[idx] - mu_hat) * y[idx]).sum() * n ** (-1.0 / p)
        assert np.array_equal(e.points, np.sort(stats, kind="stable"))

    # n odd and B = 200 a multiple of none of the blocks of 1 and 3 rows, each
    # against one block of all B·n entries, as is the default block at n = 333
    @pytest.mark.parametrize("block_entries", [333, 3 * 333, None])
    def test_row_blocks_do_not_change_the_draws(self, monkeypatch, block_entries):
        rng = np.random.default_rng(8)
        x = rng.pareto(1.5, size=333) + 1.0
        y = rng.standard_normal(333)
        cfg = BootstrapConfig(replicates=200)

        def draw():
            return bootstrap_ecdf(x, y, 2.5, 1.4, cfg, RandomSource(3).substream(4))

        if block_entries is not None:
            monkeypatch.setattr(baselines, "_BLOCK_ENTRIES", block_entries)
        e = draw()
        monkeypatch.setattr(baselines, "_BLOCK_ENTRIES", 200 * 333)
        ref = draw()
        assert e.points.tobytes() == ref.points.tobytes()

    def test_overflowing_resample_is_instability(self):
        # Σ|z| = 1e308 is finite, but a resample that repeats z_0 is not
        z = np.zeros(10)
        z[0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match="resampled statistic is inf"):
                bootstrap_ecdf(z, np.ones(10), 0.0, 1.5, BootstrapConfig(replicates=100),
                               RandomSource(1).substream(4))

    def test_input_guards(self):
        with pytest.raises(InputError):
            bootstrap_ecdf([], [], 0.0, 1.5, BootstrapConfig(),
                           RandomSource(1).substream(4))
        with pytest.raises(InputError):
            bootstrap_ecdf([1.0], [1.0, 2.0], 0.0, 1.5, BootstrapConfig(),
                           RandomSource(1).substream(4))


class TestComparisonSpec:
    """Guards on the one-panel comparison config: each is a configuration error (exit 2)."""

    @pytest.fixture
    def no_sample(self, monkeypatch):
        # a refused config draws nothing
        def refuse(*args, **kwargs):
            raise AssertionError("sample drawn")

        monkeypatch.setattr(experiments, "draw_sample", refuse)

    def test_guards(self, tmp_path, capsys, no_sample):
        # each is refused before any draw and before any output exists
        for bad in (
            {"total": 1},
            {"mu_mode": "guess"},
            {"reference_count": 20000},
            {"y_stable": {"p": 1.7}},
            {"total": 500, "mu_mode": "pilot"},
            {"total": 500, "mu_mode": "pilot", "pilot": 500},
        ):
            rc, out = _one_panel(tmp_path, **bad)
            assert rc == 2, bad
            assert not out.exists()
        assert capsys.readouterr().err.count("error:") == 6

    def test_pilot_leaves_two_observations(self, tmp_path, capsys):
        # the CLT interval needs two observations beyond the pilot
        rc, out = _one_panel(tmp_path, total=12, mu_mode="pilot", pilot=11)
        assert rc == 2
        assert "fig6 needs 2 observations beyond the pilot, got 1" in capsys.readouterr().err
        assert not out.exists()
        assert _one_panel(tmp_path, total=12, mu_mode="pilot", pilot=10)[0] == 0

    @pytest.mark.parametrize("law", [
        {"kind": "stable", "p": 1.0},
        {"kind": "stable", "p": 0.8, "delta": 1.0},
        {"kind": "pareto_like", "a": 1.0, "x_min": 3.0},
        {"kind": "pareto_like", "a": 0.9, "x_min": 3.0, "transform": True},
    ])
    def test_law_without_mean_is_refused(self, tmp_path, capsys, no_sample, law):
        # the reference is the law's mean: a law without one is refused, not sampled
        rc, out = _one_panel(tmp_path, panels=[law])
        assert rc == 2
        assert "needs a law with a mean" in capsys.readouterr().err
        assert not out.exists()


class TestSampleDispatch:
    def test_each_family_samples(self):
        src = RandomSource(21).substream(1)
        for params, count in (
            (ParetoLikeParams(a=2.0, x_min=3.0, transform=True), 50),
            (PowerLawCutoffParams(tau=1.5, x_m=100), 50),
            (StableParams(p=1.5, delta=1.0), 50),
            (AbelianParams(N=10, alpha=0.5), 50),
        ):
            out = sample_distribution(params, src, count)
            assert out.shape == (count,)
            assert out.dtype == np.float64

    def test_analytic_means(self):
        assert ParetoLikeParams(a=2.0, x_min=3.0, transform=True).mean() == pytest.approx(
            6.0 * (1.0 + math.log(3.0)), rel=1e-14
        )
        assert PowerLawCutoffParams(tau=1.5, x_m=100).mean() == pytest.approx(
            7.704340576564341, rel=1e-13
        )
        assert StableParams(p=1.5, delta=2.5).mean() == 2.5
        with pytest.raises(ParameterError):
            StableParams(p=1.0, delta=1.0).mean()
        assert AbelianParams(N=2, alpha=0.5).mean() == pytest.approx(4.0 / 3.0, rel=1e-14)


def _interval_rows(out):
    """intervals.csv of a one-panel run as one dict of cells per line."""
    with open(out / "intervals.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class TestCompareMethods:
    """The rows of a one-panel fig6 run: p-stable and CLT intervals on one draw."""

    def test_smoke_both_methods(self, tmp_path):
        rc, out = _one_panel(tmp_path)
        assert rc == 0
        rows = _interval_rows(out)
        assert {r["method"] for r in rows} == {"pstable", "clt"}
        assert float(rows[0]["lower"]) < float(rows[0]["upper"])
        # the reference is the exact mean 6(1+ln 3) and its α
        mean = 6.0 * (1.0 + math.log(3.0))
        alpha = 1.0 - 1.0 / mean
        assert [float(r["reference_value"]) for r in rows] == pytest.approx(
            [mean, alpha, mean, alpha], rel=1e-14
        )

    def test_rows_layout(self, tmp_path):
        rows = _interval_rows(_one_panel(tmp_path)[1])
        assert [(r["method"], r["target"]) for r in rows] == [
            ("pstable", "mean"), ("pstable", "alpha"), ("clt", "mean"), ("clt", "alpha"),
        ]
        for r in rows:
            assert list(r) == [
                "x_m", "replication", "method", "target", "level_lo", "level_hi", "lower",
                "upper", "lower_defined", "upper_defined", "reference_value",
            ]
            assert (r["x_m"], r["replication"]) == (
                "kind=pareto_like a=2.0 x_min=3.0 transform=True", "0",
            )
            assert r["lower_defined"] == ("true" if r["lower"] else "false")
            assert r["upper_defined"] == ("true" if r["upper"] else "false")

    def test_reproducible(self, tmp_path):
        first = (_one_panel(tmp_path)[1] / "intervals.csv").read_bytes()
        assert (_one_panel(tmp_path)[1] / "intervals.csv").read_bytes() == first

    def test_mu_modes(self, tmp_path):
        for kw in ({"mu_mode": "true"}, {"mu_mode": "pilot", "pilot": 50}):
            rc, out = _one_panel(tmp_path, **kw)
            assert rc == 0
            assert _interval_rows(out)[0]["lower"] != ""
        # YAML reads a bare `true` as a boolean; the config takes it as "true"
        rc, out = _one_panel(tmp_path, mu_mode=True)
        assert rc == 0
        bare = (out / "intervals.csv").read_bytes()
        rc, out = _one_panel(tmp_path, mu_mode="true")
        assert rc == 0
        assert (out / "intervals.csv").read_bytes() == bare
        # a null mu_mode reads as every study's default, pilot
        rc, out = _one_panel(tmp_path, mu_mode="pilot", pilot=50)
        pilot = (out / "intervals.csv").read_bytes()
        rc, out = _one_panel(tmp_path, mu_mode=None, pilot=50)
        assert rc == 0
        assert (out / "intervals.csv").read_bytes() == pilot

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        for overrides, digest in ONE_PANEL_CSV_SHA256:
            rc, out = _one_panel(tmp_path, **overrides)
            assert rc == 0
            csv_bytes = (out / "intervals.csv").read_bytes()
            assert hashlib.sha256(csv_bytes).hexdigest() == digest, overrides
        # the one replication, built from its parts on the panel's stream: X
        # and Y from draw_sample, the permutations from its STREAM_PERM substream
        panel_src = RandomSource(31).substream(experiments.ROLE_REPLICATION, 0, 0)
        levels = (0.05, 0.95)
        mu_hat, x, y = experiments.draw_sample(PARETO, panel_src, 300, "full", None, 1.2)
        [ci_mu] = pstable_estimate(
            x, y, mu_hat, 1.2, [levels], src=panel_src.substream(rng.STREAM_PERM)
        ).intervals
        clt_mean = clt_ci(x, levels)
        mean = PARETO.mean()
        expected = [
            ",".join(experiments._fmt_cell(v) for v in (
                method, ci.target, *levels, *ci.bound_columns().values(),
                mean if ci.target == "mean" else 1.0 - 1.0 / mean,
            ))
            for method, ci in (("pstable", ci_mu), ("pstable", ci_alpha(ci_mu)),
                               ("clt", clt_mean), ("clt", ci_alpha(clt_mean)))
        ]
        lines = (out / "intervals.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",", 2)[2] for line in lines[1:]] == expected
