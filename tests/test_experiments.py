"""Config parsing, experiment runners, artifact determinism, plotting, CLI.

Runner tests use deliberately small replication counts; statistical quality
is covered by test_acceptance.py. What matters here is the contract: valid
configs parse losslessly, invalid ones raise ConfigError, artifacts are
byte-stable across reruns and worker counts, and the CLI maps errors onto
its documented exit codes.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import yaml

from heavytail import cli, plotting
from heavytail.abelian import AbelianParams
from heavytail.baselines import BootstrapConfig
from heavytail.errors import ConfigError, HeavytailError, InstabilityError, PlotDataError
from heavytail.experiments import (
    ExperimentConfig,
    build_distribution,
    config_to_mapping,
    distribution_to_mapping,
    load_config,
    parse_config,
    run_experiment,
    write_csv,
)
from heavytail.rng import ParetoLikeParams, PowerLawCutoffParams, StableParams

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def fig4_mapping(**overrides):
    base = {
        "experiment": "fig4",
        "seed": 7,
        "p": 1.2,
        "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True},
        "total": 260,
        "pilot": 60,
        "levels": [0.05, 0.95],
        "bootstrap": {"replicates": 50, "resample_mode": "pairs"},
        "replications": 6,
    }
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


def fig6_mapping(**overrides):
    base = {
        "experiment": "fig6",
        "seed": 11,
        "p": 1.7,
        "tau": 1.5,
        "n": 150,
        "x_m_values": [500, 1000],
        "level_lo": 0.02,
        "level_hi": 0.98,
        "burn_in": 10,
        "permutations": 4,
        "permute_pairs": True,
        "reference_count": 5000,
        "replications": 5,
        "mu_mode": "full",
    }
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


class TestBuildDistribution:
    def test_round_trips_every_kind(self):
        specs = [
            {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True},
            {"kind": "power_law_cutoff", "tau": 1.5, "x_m": 1000},
            {"kind": "stable", "p": 1.3, "beta": 0.0, "gamma": 2.0, "delta": 1.0},
            {"kind": "abelian", "N": 40, "alpha": 0.5},
        ]
        for spec in specs:
            dist = build_distribution(spec)
            assert build_distribution(distribution_to_mapping(dist)) == dist

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            build_distribution({"a": 2.0})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown distribution kind"):
            build_distribution({"kind": "cauchy"})

    def test_missing_field(self):
        with pytest.raises(ConfigError, match="missing field"):
            build_distribution({"kind": "pareto_like", "a": 2.0})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            build_distribution({"kind": "power_law_cutoff", "tau": 1.5, "x_m": 10, "mean": 1})

    def test_invalid_parameter_becomes_config_error(self):
        with pytest.raises(ConfigError, match="invalid distribution parameters"):
            build_distribution({"kind": "power_law_cutoff", "tau": 1.5, "x_m": 0})


class TestParseConfig:
    def test_fig4_mapping_parses(self):
        cfg = parse_config(fig4_mapping())
        assert cfg.experiment == "fig4"
        assert cfg.levels == (0.05, 0.95)
        assert cfg.bootstrap == BootstrapConfig(replicates=50, resample_mode="pairs")
        assert cfg.y_stable == StableParams(p=1.2, beta=0.0, gamma=1.0, delta=1.0)

    def test_level_pair_shorthand(self):
        cfg = parse_config(fig6_mapping())
        assert cfg.levels == (0.02, 0.98)
        assert cfg.x_m_values == (500, 1000)

    def test_not_a_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config([1, 2])

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys.*alpha_level"):
            parse_config(fig4_mapping(alpha_level=0.05))

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(fig4_mapping(experiment="fig9"))

    def test_requires_seed_and_p(self):
        m = fig4_mapping()
        del m["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(m)
        m = fig4_mapping()
        del m["p"]
        with pytest.raises(ConfigError, match="stability order"):
            parse_config(m)

    def test_p_range(self):
        for bad in (1.0, 2.3, 0.5):
            with pytest.raises(ConfigError, match="stability order"):
                parse_config(fig4_mapping(p=bad))

    def test_p_equal_two_allowed(self):
        assert parse_config(fig4_mapping(p=2.0)).p == 2.0

    def test_y_stable_cannot_override_p(self):
        with pytest.raises(ConfigError, match="y_stable"):
            parse_config(fig4_mapping(y_stable={"p": 1.5}))

    def test_levels_must_be_ordered_interior(self):
        for bad in ([0.95, 0.05], [0.0, 0.95], [0.05, 1.0], 0.05):
            with pytest.raises(ConfigError, match="levels"):
                parse_config(fig4_mapping(levels=bad))

    def test_level_pair_conflicts_with_levels(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config(fig4_mapping(level_lo=0.05, level_hi=0.95))

    def test_level_pair_halves_must_come_together(self):
        m = fig6_mapping()
        del m["level_hi"]
        with pytest.raises(ConfigError, match="together"):
            parse_config(m)

    def test_mu_mode_values(self):
        with pytest.raises(ConfigError, match="mu_mode"):
            parse_config(fig4_mapping(mu_mode="oracle"))
        # YAML parses a bare `true` as a boolean; accept it as the string mode
        assert parse_config(fig4_mapping(mu_mode=True)).mu_mode == "true"

    def test_counts_validated(self):
        with pytest.raises(ConfigError, match="burn_in"):
            parse_config(fig4_mapping(burn_in=-1))
        with pytest.raises(ConfigError, match="permutations"):
            parse_config(fig4_mapping(permutations=0))
        with pytest.raises(ConfigError, match="replications"):
            parse_config(fig4_mapping(replications=0))

    def test_bootstrap_validation(self):
        with pytest.raises(ConfigError, match="bootstrap"):
            parse_config(fig4_mapping(bootstrap=5))
        with pytest.raises(ConfigError, match="invalid bootstrap"):
            parse_config(fig4_mapping(bootstrap={"resample_mode": "smooth"}))

    def test_fig4_needs_total_pilot_levels_bootstrap(self):
        for key in ("total", "pilot", "levels", "bootstrap"):
            m = fig4_mapping()
            del m[key]
            with pytest.raises(ConfigError):
                parse_config(m)

    def test_pilot_must_be_smaller_than_total(self):
        with pytest.raises(ConfigError, match="pilot"):
            parse_config(fig4_mapping(pilot=260))

    def test_fig1_needs_distribution_and_sizes(self):
        good = {
            "experiment": "fig1",
            "seed": 1,
            "p": 1.2,
            "mu_mode": True,
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True},
            "sizes": [200, 400],
        }
        assert parse_config(good).sizes == (200, 400)
        for key in ("distribution", "sizes"):
            m = dict(good)
            del m[key]
            with pytest.raises(ConfigError):
                parse_config(m)

    def test_fig3_requires_pilot_centering(self):
        m = {
            "experiment": "fig3",
            "seed": 1,
            "p": 1.2,
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0},
            "sizes": [100],
            "bootstrap": {"replicates": 20},
            "mu_mode": "full",
        }
        with pytest.raises(ConfigError, match="pilot"):
            parse_config(m)

    def test_fig6_needs_panel_fields_and_levels(self):
        m = fig6_mapping()
        del m["x_m_values"]
        with pytest.raises(ConfigError, match="x_m_values"):
            parse_config(m)
        m = fig6_mapping()
        del m["level_lo"]
        del m["level_hi"]
        with pytest.raises(ConfigError, match="no default pair"):
            parse_config(m)

    def test_sizes_validation(self):
        m = fig4_mapping()
        m["experiment"] = "fig1"
        for key in ("total", "pilot", "levels", "bootstrap"):
            del m[key]
        m["mu_mode"] = "true"
        m["sizes"] = [0, 10]
        with pytest.raises(ConfigError, match="sizes"):
            parse_config(m)


class TestConfigEcho:
    def test_mapping_round_trip(self):
        for mapping in (fig4_mapping(), fig6_mapping()):
            cfg = parse_config(mapping)
            assert parse_config(config_to_mapping(cfg)) == cfg

    def test_shipped_configs_round_trip(self):
        paths = sorted(
            os.path.join(CONFIG_DIR, f)
            for f in os.listdir(CONFIG_DIR)
            if f.endswith(".yaml")
        )
        assert len(paths) == 6
        for path in paths:
            cfg = load_config(path)
            assert parse_config(config_to_mapping(cfg)) == cfg

    def test_echo_survives_yaml_serialization(self):
        cfg = parse_config(fig6_mapping())
        text = yaml.safe_dump(config_to_mapping(cfg), sort_keys=True)
        assert parse_config(yaml.safe_load(text)) == cfg

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.yaml"))
        bad = tmp_path / "bad.yaml"
        bad.write_text("experiment: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(str(bad))


def run_with(mapping, tmp_path, name, workers=1):
    cfg = replace(parse_config(mapping), out_dir=str(tmp_path / name))
    return cfg, run_experiment(cfg, workers=workers)


class TestEcdfStudy:
    def test_fig1_artifacts(self, tmp_path):
        mapping = {
            "experiment": "fig1",
            "seed": 3,
            "p": 1.2,
            "mu_mode": True,
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True},
            "sizes": [200, 400],
        }
        cfg, report = run_with(mapping, tmp_path, "fig1")
        names = {os.path.basename(f) for f in report.files}
        assert names == {
            "ecdf_200.csv", "ecdf_400.csv", "fig1.svg", "config_echo.yaml", "report.json",
        }
        for f in report.files:
            assert os.path.exists(f)
        d = report.summary["consecutive_sup_distance"]["200-400"]
        assert 0.0 <= d <= 1.0
        ts, gs = plotting.read_ecdf_csv(os.path.join(cfg.out_dir, "ecdf_400.csv"))
        assert len(ts) == 400
        assert gs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_fig2_bootstrap_distributions(self, tmp_path):
        mapping = {
            "experiment": "fig2",
            "seed": 3,
            "p": 1.2,
            "mu_mode": True,
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True},
            "sizes": [150, 300],
            "bootstrap": {"replicates": 40},
        }
        cfg, report = run_with(mapping, tmp_path, "fig2")
        ts, gs = plotting.read_ecdf_csv(os.path.join(cfg.out_dir, "ecdf_150.csv"))
        assert len(ts) == 40  # one point per bootstrap replicate
        assert gs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_fig3_pilot_centering(self, tmp_path):
        mapping = {
            "experiment": "fig3",
            "seed": 4,
            "p": 1.2,
            "mu_mode": "pilot",
            "pilot": 50,
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True},
            "sizes": [150, 300],
            "bootstrap": {"replicates": 30},
        }
        cfg, report = run_with(mapping, tmp_path, "fig3")
        assert math.isfinite(report.summary["mu_hat"])
        assert os.path.exists(os.path.join(cfg.out_dir, "fig3.svg"))


class TestIntervalStudy:
    def test_fig4_summary_and_rows(self, tmp_path):
        cfg, report = run_with(fig4_mapping(), tmp_path, "fig4")
        key = "pstable@0.05-0.95"
        assert set(report.summary["methods"]) == {key, "bootstrap@0.05-0.95"}
        block = report.summary["methods"][key]
        assert block["replications"] == 6
        assert block["median_width"] > 0.0
        assert report.summary["true_mean"] == pytest.approx(6.0 * (1.0 + math.log(3.0)))
        assert len(report.per_replication) == 6 * 2
        intervals = os.path.join(cfg.out_dir, "intervals.csv")
        with open(intervals, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        assert header[:4] == ["replication", "method", "level_lo", "level_hi"]

    def test_fig4_levels_extra_adds_pairs(self, tmp_path):
        cfg, report = run_with(
            fig4_mapping(levels_extra=[0.005, 0.995]), tmp_path, "fig4x"
        )
        assert set(report.summary["methods"]) == {
            "pstable@0.05-0.95",
            "bootstrap@0.05-0.95",
            "pstable@0.005-0.995",
            "bootstrap@0.005-0.995",
        }
        # the wider nominal level cannot shrink the p-stable median width
        narrow = report.summary["methods"]["pstable@0.05-0.95"]["median_width"]
        wide = report.summary["methods"]["pstable@0.005-0.995"]["median_width"]
        assert wide >= narrow

    def test_report_json_round_trips(self, tmp_path):
        cfg, report = run_with(fig4_mapping(), tmp_path, "fig4r")
        with open(os.path.join(cfg.out_dir, "report.json"), encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded["experiment"] == "fig4"
        assert loaded["summary"] == json.loads(json.dumps(report.summary))
        assert loaded["config_echo"]["seed"] == 7


class TestPanelStudy:
    def test_fig6_summary_shape(self, tmp_path):
        cfg, report = run_with(fig6_mapping(), tmp_path, "fig6")
        panels = report.summary["panels"]
        assert set(panels) == {"500", "1000"}
        for block in panels.values():
            assert block["reference_mean"] > 1.0
            assert 0.0 < block["reference_alpha"] < 1.0
            for rate in (
                "pstable_alpha_covers_reference",
                "pstable_alpha_two_sided",
                "clt_alpha_lower_undefined",
            ):
                assert 0.0 <= block[rate] <= 1.0
        rows = report.per_replication
        assert len(rows) == 2 * 5 * 4  # panels x reps x (method, target) combos
        assert {r["method"] for r in rows} == {"pstable", "clt"}
        assert {r["target"] for r in rows} == {"mean", "alpha"}

    def test_fig6_rows_parse_back_for_plotting(self, tmp_path):
        cfg, report = run_with(fig6_mapping(), tmp_path, "fig6p")
        rows = plotting.read_intervals_csv(os.path.join(cfg.out_dir, "intervals.csv"))
        assert len(rows) == len(report.per_replication)
        assert {r["group"] for r in rows} == {"500", "1000"}


class TestDeterminism:
    def test_fig4_workers_do_not_change_csv_bytes(self, tmp_path):
        cfg1, _ = run_with(fig4_mapping(), tmp_path, "w1", workers=1)
        cfg3, _ = run_with(fig4_mapping(), tmp_path, "w3", workers=3)
        for name in ("intervals.csv", "ecdf.csv"):
            b1 = open(os.path.join(cfg1.out_dir, name), "rb").read()
            b3 = open(os.path.join(cfg3.out_dir, name), "rb").read()
            assert b1 == b3, f"{name} differs between worker counts"

    def test_fig6_workers_do_not_change_csv_bytes(self, tmp_path):
        cfg1, _ = run_with(fig6_mapping(), tmp_path, "p1", workers=1)
        cfg4, _ = run_with(fig6_mapping(), tmp_path, "p4", workers=4)
        b1 = open(os.path.join(cfg1.out_dir, "intervals.csv"), "rb").read()
        b4 = open(os.path.join(cfg4.out_dir, "intervals.csv"), "rb").read()
        assert b1 == b4

    def test_rerun_reproduces_all_artifacts(self, tmp_path):
        cfg_a, rep_a = run_with(fig6_mapping(), tmp_path, "runA", workers=2)
        cfg_b, rep_b = run_with(fig6_mapping(), tmp_path, "runB", workers=1)
        for name in ("intervals.csv", "fig6.svg"):
            ba = open(os.path.join(cfg_a.out_dir, name), "rb").read()
            bb = open(os.path.join(cfg_b.out_dir, name), "rb").read()
            assert ba == bb, f"{name} differs between reruns"
        # wall clock may differ, the statistical content may not
        assert rep_a.summary == rep_b.summary

    def test_run_requires_out_dir(self):
        cfg = parse_config(fig4_mapping())
        with pytest.raises(ConfigError, match="out"):
            run_experiment(cfg)


class TestPlotData:
    def test_ecdf_csv_errors_carry_path_and_line(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t,G\n0.0,0.1\nx,0.2\n")
        with pytest.raises(PlotDataError, match=r"e\.csv:3"):
            plotting.read_ecdf_csv(str(path))

    def test_ecdf_csv_header_required(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n0.0,0.1\n")
        with pytest.raises(PlotDataError, match="expected header"):
            plotting.read_ecdf_csv(str(path))

    def test_ecdf_csv_must_be_sorted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,G\n1.0,0.5\n0.0,1.0\n")
        with pytest.raises(PlotDataError, match="sorted"):
            plotting.read_ecdf_csv(str(path))

    def test_ecdf_csv_range_check(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("t,G\n0.0,1.5\n")
        with pytest.raises(PlotDataError, match="out-of-range"):
            plotting.read_ecdf_csv(str(path))

    def test_ecdf_csv_no_rows(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("t,G\n")
        with pytest.raises(PlotDataError, match="no data rows"):
            plotting.read_ecdf_csv(str(path))

    def test_intervals_csv_missing_columns(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("replication,method\n0,pstable\n")
        with pytest.raises(PlotDataError, match="missing columns"):
            plotting.read_intervals_csv(str(path))

    def test_intervals_csv_bad_value(self, tmp_path):
        path = tmp_path / "j.csv"
        header = "replication,method,target,lower,upper,lower_defined,upper_defined,reference_value"
        path.write_text(header + "\nzero,pstable,mean,0,1,true,true,0.5\n")
        with pytest.raises(PlotDataError, match=r"j\.csv:2"):
            plotting.read_intervals_csv(str(path))

    def test_empty_lower_cell_reads_as_none(self, tmp_path):
        path = tmp_path / "k.csv"
        header = "replication,method,target,lower,upper,lower_defined,upper_defined,reference_value"
        path.write_text(header + "\n0,pstable,alpha,,0.9,false,true,0.8\n")
        rows = plotting.read_intervals_csv(str(path))
        assert rows[0]["lower"] is None
        assert rows[0]["lower_defined"] is False


class TestEmitPlot:
    def test_unknown_kind(self):
        with pytest.raises(PlotDataError, match="unknown plot kind"):
            plotting.emit_plot(["x.csv"], {"kind": "scatter"})

    def test_ecdf_label_count_must_match(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t,G\n0.0,0.5\n1.0,1.0\n")
        with pytest.raises(PlotDataError, match="labels"):
            plotting.emit_plot([str(path)], {"kind": "ecdf", "labels": ["a", "b"]})

    def test_ecdf_document(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t,G\n-1.0,0.25\n0.0,0.5\n2.0,1.0\n")
        doc = plotting.emit_plot([str(path)], {"kind": "ecdf", "title": "a<b"})
        assert doc.startswith("<svg ")
        assert doc.rstrip().endswith("</svg>")
        assert "a&lt;b" in doc  # titles are escaped

    def test_interval_document_marks_undefined_lower(self, tmp_path):
        path = tmp_path / "iv.csv"
        header = "x_m,replication,method,target,lower,upper,lower_defined,upper_defined,reference_value"
        rows = [
            "100,0,pstable,alpha,0.1,0.9,true,true,0.5",
            "100,1,pstable,alpha,,0.9,false,true,0.5",
            "100,0,clt,alpha,0.2,0.8,true,true,0.5",
            "100,1,clt,alpha,,0.7,false,true,0.5",
        ]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        doc = plotting.emit_plot([str(path)], {"kind": "intervals", "target": "alpha"})
        assert doc.count(" Z\" fill=\"none\"") == 2  # one open triangle per undefined bound
        assert "cutoff 100" in doc

    def test_interval_plot_takes_one_file(self, tmp_path):
        with pytest.raises(PlotDataError, match="exactly one"):
            plotting.emit_plot(["a.csv", "b.csv"], {"kind": "intervals"})

    def test_interval_plot_needs_target_rows(self, tmp_path):
        path = tmp_path / "iv.csv"
        header = "x_m,replication,method,target,lower,upper,lower_defined,upper_defined,reference_value"
        path.write_text(header + "\n100,0,pstable,mean,0.1,0.9,true,true,0.5\n")
        with pytest.raises(PlotDataError, match="no rows with target"):
            plotting.emit_plot([str(path)], {"kind": "intervals", "target": "alpha"})

    def test_emitted_run_artifacts_render(self, tmp_path):
        # the runner-written CSVs must stay parseable by the plotter
        cfg, _ = run_with(fig6_mapping(), tmp_path, "render")
        doc = plotting.emit_plot(
            [os.path.join(cfg.out_dir, "intervals.csv")],
            {"kind": "intervals", "target": "alpha"},
        )
        assert doc.startswith("<svg ")


class TestGeneratorSpec:
    def test_pareto_like(self):
        dist = cli._parse_generator("pareto_like:a=2,x_min=3,transform=true")
        assert dist == ParetoLikeParams(a=2.0, x_min=3.0, apply_transform=True)

    def test_power_law_cutoff(self):
        dist = cli._parse_generator("power_law_cutoff:tau=1.5,x_m=1000")
        assert dist == PowerLawCutoffParams(tau=1.5, x_m=1000)

    def test_abelian(self):
        dist = cli._parse_generator("abelian:N=40,alpha=0.5")
        assert dist == AbelianParams(N=40, alpha=0.5)

    def test_field_without_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            cli._parse_generator("pareto_like:a")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown distribution kind"):
            cli._parse_generator("zeta:s=2")

    def test_missing_fields(self):
        with pytest.raises(ConfigError, match="missing field"):
            cli._parse_generator("pareto_like")


class TestReadObservations:
    def test_header_line_is_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("value\n1.5\n2.5\n\n3.5\n")
        x = cli._read_observations(str(path))
        assert x.tolist() == [1.5, 2.5, 3.5]

    def test_non_numeric_mid_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.5\nbad\n")
        with pytest.raises(ConfigError, match=r"x\.csv:2"):
            cli._read_observations(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="no observations"):
            cli._read_observations(str(path))


class TestCli:
    def test_simulate_runs_and_prints_summary(self, tmp_path, capsys):
        cfg_path = tmp_path / "fig1.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "experiment": "fig1",
            "seed": 3,
            "p": 1.2,
            "mu_mode": "true",
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True},
            "sizes": [100, 200],
        }))
        rc = cli.main([
            "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig1: wrote" in out
        assert os.path.exists(tmp_path / "out" / "ecdf_200.csv")

    def test_simulate_missing_config_exits_2(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--config", str(tmp_path / "nope.yaml")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_simulate_invalid_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(yaml.safe_dump({"experiment": "fig4", "seed": 1}))
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 2

    def test_estimate_from_generator(self, tmp_path, capsys):
        rc = cli.main([
            "estimate",
            "--generator", "pareto_like:a=2,x_min=3,transform=true",
            "--count", "400", "--p", "1.2", "--seed", "5",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean:" in out and "alpha:" in out
        for name in ("tn.csv", "ecdf.csv", "ci.csv"):
            assert os.path.exists(tmp_path / name)
        with open(tmp_path / "ci.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("target,")
        assert len(lines) == 3  # header + mean + alpha

    def test_estimate_from_file_with_known_mean(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        rng = np.random.default_rng(1)
        data.write_text("value\n" + "\n".join(f"{v}" for v in rng.pareto(2.0, 300) + 1.0))
        rc = cli.main([
            "estimate", "--input", str(data), "--p", "1.5", "--mu", "2.0",
            "--out", str(tmp_path / "est"),
        ])
        assert rc == 0
        assert "n=300" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_estimate_rejects_non_finite_input(self, tmp_path, capsys, bad):
        data = tmp_path / "obs.csv"
        values = [f"{v}" for v in np.random.default_rng(1).pareto(2.0, 300) + 1.0]
        values[150] = bad
        data.write_text("value\n" + "\n".join(values))
        rc = cli.main([
            "estimate", "--input", str(data), "--p", "1.5",
            "--out", str(tmp_path / "est"),
        ])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "est")

    def test_import_leaves_scipy_unloaded(self):
        # SciPy is only needed by the large-N Abelian pmf; importing it
        # would cost every command about 0.3 s of start-up
        code = "import sys, heavytail.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        assert proc.stdout.strip() == "False"

    def test_estimate_input_xor_generator(self, tmp_path, capsys):
        rc = cli.main([
            "estimate", "--input", "a.csv",
            "--generator", "pareto_like:a=2,x_min=3", "--p", "1.2",
        ])
        assert rc == 2
        rc = cli.main(["estimate", "--p", "1.2"])
        assert rc == 2

    def test_estimate_generator_needs_count(self, capsys):
        rc = cli.main([
            "estimate", "--generator", "pareto_like:a=2,x_min=3,transform=true",
            "--p", "1.2",
        ])
        assert rc == 2
        assert "--count" in capsys.readouterr().err

    def test_compare_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cmp.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True},
            "n": 400,
            "p": 1.2,
            "levels": [0.05, 0.95],
            "reference_count": 2000,
            "mu_mode": "full",
            "seed": 3,
        }))
        rc = cli.main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "cmp")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pstable" in out and "clt" in out
        with open(tmp_path / "cmp" / "compare.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 5  # header + 2 methods x 2 targets

    def test_compare_unknown_key_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cmp.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0},
            "n": 100, "p": 1.2, "levels": [0.05, 0.95], "replications": 3,
        }))
        assert cli.main(["compare", "--config", str(cfg_path)]) == 2

    def test_abelian_command(self, tmp_path, capsys):
        rc = cli.main([
            "abelian", "--n-size", "50", "--alpha", "0.5", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "mean=" in capsys.readouterr().out
        with open(tmp_path / "abelian.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 51
        pmf = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(pmf) == pytest.approx(1.0, abs=1e-9)

    def test_abelian_rejects_bad_alpha(self, capsys):
        assert cli.main(["abelian", "--n-size", "50", "--alpha", "1.5"]) == 2

    def test_stirling_check_command(self, capsys):
        rc = cli.main([
            "stirling-check", "--oracle-i", "6", "--rising-i", "6",
            "--decomposition-n", "12", "--product-n", "200", "--degree4-i", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5

    def test_plot_command(self, tmp_path, capsys):
        csv_path = tmp_path / "e.csv"
        csv_path.write_text("t,G\n0.0,0.5\n1.0,1.0\n")
        svg_path = tmp_path / "fig.svg"
        rc = cli.main([
            "plot", str(csv_path), "--kind", "ecdf", "--out", str(svg_path),
            "--labels", "N=2",
        ])
        assert rc == 0
        assert svg_path.read_text().startswith("<svg ")

    def test_plot_bad_csv_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "e.csv"
        csv_path.write_text("wrong,header\n0.0,0.5\n")
        rc = cli.main(["plot", str(csv_path), "--kind", "ecdf", "--out", str(tmp_path / "f.svg")])
        assert rc == 2

    def test_instability_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise InstabilityError("forced for the exit-code contract")

        monkeypatch.setattr(cli, "pstable_estimate", boom)
        rc = cli.main([
            "estimate", "--generator", "pareto_like:a=2,x_min=3,transform=true",
            "--count", "100", "--p", "1.2", "--out", str(tmp_path),
        ])
        assert rc == 3
        assert "instability" in capsys.readouterr().err

    def test_unexpected_package_error_maps_to_exit_1(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise HeavytailError("forced")

        monkeypatch.setattr(cli, "pstable_estimate", boom)
        rc = cli.main([
            "estimate", "--generator", "pareto_like:a=2,x_min=3,transform=true",
            "--count", "100", "--p", "1.2", "--out", str(tmp_path),
        ])
        assert rc == 1


class TestWriteCsv:
    def test_cell_formatting(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(str(path), ["a", "b", "c", "d"], [[None, True, 3, 0.1]])
        text = path.read_text()
        assert text == "a,b,c,d\n,true,3,0.1\n"

    def test_float_repr_is_lossless(self, tmp_path):
        path = tmp_path / "f.csv"
        v = 0.1 + 0.2  # not representable as a short decimal
        write_csv(str(path), ["x"], [[v]])
        back = float(path.read_text().splitlines()[1])
        assert back == v
