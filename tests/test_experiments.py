"""Config parsing, experiment runners, artifact determinism, plotting, CLI.

Runner tests use deliberately small replication counts; statistical quality
is covered by test_acceptance.py. What matters here is the contract: valid
configs parse losslessly, invalid ones raise ConfigError, artifacts are
byte-stable across reruns and worker counts, and the CLI maps errors onto
its documented exit codes.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail import _kernels as kernels, cli, experiments, plotting
from heavytail.abelian import AbelianParams, abelian_mean
from heavytail.baselines import BootstrapConfig, draw_sample
from heavytail.errors import ConfigError, HeavytailError, InstabilityError, PlotDataError
from heavytail.estimator import build_log_ecdf, ci_alpha, pstable_estimate
from heavytail.experiments import (
    CSV_CHUNK_ROWS,
    ROLE_REPLICATION,
    _DEFAULTS,
    ExperimentConfig,
    build_distribution,
    config_to_mapping,
    distribution_to_mapping,
    load_config,
    parse_config,
    run_experiment,
    write_csv,
)
from heavytail.rng import (
    _CASTS,
    DISTRIBUTIONS,
    TABLE_LIMIT,
    ParetoLikeParams,
    STREAM_PERM,
    PowerLawCutoffParams,
    RandomSource,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# One full config spec per distribution kind (every key given).
KIND_EXAMPLES = {
    "pareto_like": {"a": 2.0, "x_min": 3.0, "transform": True},
    "power_law_cutoff": {"tau": 1.5, "x_m": 1000},
    "stable": {"p": 1.3, "gamma": 2.0, "delta": 1.0},
    "abelian": {"N": 40, "alpha": 0.5},
}

# sha256 of yaml.safe_dump(config_to_mapping(load_config(f)), sort_keys=True)
# for the shipped configs; the run's config_echo.yaml holds the same text.
# Recorded when the (X, Y) pairs became the one ordering rule: each echo
# lost only its `permute_pairs` line.
SHIPPED_ECHO_SHA256 = {
    "fig1.yaml": "fa2da5571b7f8c73bd400226f01fd402c31f77ae93716bf97fae1053cc3bf4cf",
    "fig2.yaml": "d62151af5de941f9f441e8035f88b846f2535483cc6080be771e3fbb41cb0911",
    "fig3.yaml": "3bc06798e0a8ca79e5c69415d33bfa63f20e46b46a9d3096ad44406a3da0caa2",
    "fig4.yaml": "911df17e6933b2b4568c38f1515be1a3915d47153abb5e4db81a7f4239db139f",
    "fig5.yaml": "50b989a3c73898c75d166bd1ee6533f46a5c718821bc325ef4a710d276c9b5d4",
    "fig6.yaml": "c0663cc30eff1afdb6ff7a1791c5d4fd8062fc310e14dbfd9377062e07e638f5",
}


def fig4_mapping(**overrides):
    base = {
        "experiment": "fig4",
        "seed": 7,
        "p": 1.2,
        "panels": [{"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True}],
        "total": 260,
        "pilot": 60,
        "levels": [[0.05, 0.95]],
        "bootstrap": {"replicates": 50},
        "replications": 6,
    }
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


PARETO = {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True}

# Small fig1–fig3 runs: known mean for fig1/fig2, pilot centring for fig3.
ECDF_MAPPINGS = {
    "fig1": {
        "experiment": "fig1", "seed": 3, "p": 1.2, "mu_mode": True,
        "distribution": PARETO, "sizes": [200, 400],
    },
    "fig2": {
        "experiment": "fig2", "seed": 3, "p": 1.2, "mu_mode": True,
        "distribution": PARETO, "sizes": [150, 300], "bootstrap": {"replicates": 40},
    },
    "fig3": {
        "experiment": "fig3", "seed": 4, "p": 1.2, "mu_mode": "pilot", "pilot": 50,
        "distribution": PARETO, "sizes": [150, 300], "bootstrap": {"replicates": 30},
    },
}


def small_mapping(experiment):
    """The small config of one of fig1..fig6 whose output bytes are pinned."""
    if experiment == "fig4":
        return fig4_mapping()
    if experiment == "fig5":
        return fig4_mapping(
            experiment="fig5", levels=[[0.05, 0.95], [0.005, 0.995]], burn_in=20, permutations=8
        )
    if experiment == "fig6":
        return fig6_mapping()
    return ECDF_MAPPINGS[experiment]


# sha256 of every CSV and SVG the small_mapping runs write, recorded before
# every study drew and centred its sample through baselines.draw_sample;
# fig4–fig6's when every interval study took one runner and one row layout.
# fig4/fig5 then drew each replication from the (law, replication) stream
# that fig6 uses, and lost their covers_true_mean column; fig6's
# intervals.csv gained the level_lo and level_hi columns and kept every
# other cell, and fig6.svg kept its bytes. fig5's intervals.csv, when the
# (X, Y) pairs became the one ordering rule (its ecdf.csv and fig5.svg draw
# the identity ordering and kept their bytes).
SMALL_RUN_SHA256 = {
    "fig1": {
        "ecdf_200.csv": "baebd952607d09e5c03eb6ca81a4b580e3a05ea45684648d9d0498b49c88f6dc",
        "ecdf_400.csv": "9ab481b43e1ff513088aea09111795d1bd5890ad27314bb7ae7a0f0d5b1c5e06",
        "fig1.svg": "02d215a268cfcca11ebf92f3fa3b742ae7a6c8ee054b451f8cd912fd3710751d",
    },
    "fig2": {
        "ecdf_150.csv": "7dcd8c1ad042c8da4400b59dc22db6f122a6b4d2770911a6390bf86ced3f8af0",
        "ecdf_300.csv": "a2e44473e72d97c2d8c01dec41636f435fa8cec6d3623846106772a4cfbb08c9",
        "fig2.svg": "84ca4f0de6d6e0a0d7b79ce3cefe34a02602bd4252337fe027453c16a0ccda97",
    },
    "fig3": {
        "ecdf_150.csv": "6c9c3eae145d14dcc69393fc853bf4cb0ce645c753e86d2e61dc9dc2e4a4e853",
        "ecdf_300.csv": "9f51a6a8c5244f747a41d93de832f95270e14d938237f1b4dfdf94bed29f4574",
        "fig3.svg": "ebb3b02cc9dfa6b3f3b11c565a798173e8930f983782c11684144e0183384c1a",
    },
    "fig4": {
        "ecdf.csv": "dd129b70e5fc1936bc9281bf6f7e977d20db62406862fbae3b8f8dc90dc92058",
        "fig4.svg": "64a57a1a15bdc13cafeaa5e62a33de3eb2b290ddf2bd916194a558bf23369691",
        "intervals.csv": "7abbae8295814c378897ab9c3566ae61312c2151e92476efde29a4cc463405c0",
    },
    "fig5": {
        "ecdf.csv": "3a21e706f69a945254b3f8617942bb2f9bd620f103b7193609ef831a9f4988e8",
        "fig5.svg": "20e38db7a249a49ce250fdfc3bf25743baf8f5e789595abb2f77c5a043fa8ec0",
        "intervals.csv": "2390d356f1b7ed0195970a47c0b7218da982b95d3cc52cc4c59792df776c1b7e",
    },
    "fig6": {
        "fig6.svg": "924c76b146b496612a9e518943cb13f03fb43db8398ed99040e85a2b10e6c684",
        "intervals.csv": "1d9a402a4e20f1373d97ee0dafff7f78fc4adb5a4c548a092c7e9e3e00f9e5a6",
    },
}


# `heavytail estimate` runs whose tn.csv, ecdf.csv and ci.csv bytes are
# pinned: a generator run, and a run on ESTIMATE_INPUT with a known mean.
ESTIMATE_RUNS = {
    "generator": [
        "--generator", "pareto_like:a=2,x_min=3,transform=true", "--count", "3000",
        "--p", "1.3", "--perms", "8", "--burn-in", "10",
    ],
    "input": ["--mu", "8.5", "--p", "1.5", "--perms", "4", "--seed", "2"],
    # 9,000 tn.csv rows and 8,990 ecdf.csv rows: more than two CSV_CHUNK_ROWS chunks
    "generator_long": [
        "--generator", "pareto_like:a=2,x_min=3,transform=true", "--count", "10000",
        "--p", "1.3", "--perms", "8", "--burn-in", "10",
    ],
}
ESTIMATE_INPUT = "value\n" + "\n".join(repr((k * 37 % 101) / 7.0 + 1.0) for k in range(1, 61))

# sha256 of the ESTIMATE_RUNS outputs, recorded before estimate drew its
# multipliers through baselines.draw_multipliers; each ci.csv when the
# (X, Y) pairs became the one ordering rule (tn.csv and ecdf.csv hold the
# identity ordering and kept their bytes).
ESTIMATE_SHA256 = {
    "generator": {
        "tn.csv": "587325e3ed966de454b3b5301475a66e768238d78cfb29275a323a04dc155d66",
        "ecdf.csv": "7b2665d98ffea73c6d86df20d424e38362c9c22afc4b3ed6643b3bce50888c30",
        "ci.csv": "4555536d6cd69175625f32153c29d77950452113b0d975f6a14ca2b731cb7b2c",
    },
    "input": {
        "tn.csv": "bd79179c9f3e915d3a6464a22c3f80fa3ae86a8639ff234942e80a53f023267d",
        "ecdf.csv": "820f9a9745ebfed23170f4e2e4773f96672bc40b0934e4dd760575ee82250fc1",
        "ci.csv": "c7ea57426928e62a594ec336b120daf7985a6a743a466b086ec5750d99db24b9",
    },
    # recorded before write_csv took columns instead of rows
    "generator_long": {
        "tn.csv": "1ae3c8af0f830074d3d6a72dd7fefabae374f0cb99bee72068b5e9edbb2194a9",
        "ecdf.csv": "3895e5c484d9ec66e7f4c2d2c86eaa2c1b661a388f41e9c7168b84cbc02c79ca",
        "ci.csv": "f11433bec64ae481266d876367d878fae96d5e5585bbec29abd91b9a85c3ca36",
    },
}


def cutoff(x_m):
    return {"kind": "power_law_cutoff", "tau": 1.5, "x_m": x_m}


def fig6_mapping(**overrides):
    base = {
        "experiment": "fig6",
        "seed": 11,
        "p": 1.7,
        "total": 150,
        "panels": [cutoff(500), cutoff(1000)],
        "levels": [[0.02, 0.98]],
        "burn_in": 10,
        "permutations": 4,
        "replications": 5,
        "mu_mode": "full",
    }
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


# Each kind of config mapping: how it is read, a valid mapping, the `where`
# its messages name, a key with a default it sets, a required key (the
# bootstrap block has none), and keys with values their readers refuse: a
# number field refuses a boolean and a quoted number, as a count does.
MAPPING_KINDS = {
    "config": (parse_config, fig4_mapping(), "config", "replications", "seed",
               (("permutations", "4"), ("p", "1.5"), ("levels", [["0.05", "0.95"]]))),
    "distribution": (build_distribution, PARETO, "distribution pareto_like", "transform",
                     "x_min", (("a", "two"), ("a", True), ("x_min", "3"))),
    "bootstrap": (lambda m: parse_config(fig4_mapping(bootstrap=m)).bootstrap,
                  {"replicates": 50}, "bootstrap", "replicates", None, (("replicates", 49.5),)),
}


class TestReadFields:
    @pytest.mark.parametrize("kind", MAPPING_KINDS)
    def test_every_mapping_is_read_by_one_set_of_rules(self, kind):
        read, good, where, optional, required, refused = MAPPING_KINDS[kind]
        with pytest.raises(ConfigError, match=rf"^unknown {where} keys: \['bogus'\]$"):
            read(dict(good, bogus=1))
        # null reads as the default, as an absent key does
        absent = {k: v for k, v in good.items() if k != optional}
        assert read(dict(good, **{optional: None})) == read(absent) != read(good)
        if required is not None:
            with pytest.raises(ConfigError, match=f"^{where} needs {required}$"):
                read({k: v for k, v in good.items() if k != required})
        for key, bad in refused:
            with pytest.raises(ConfigError, match=f"^{where} {key}: "):
                read(dict(good, **{key: bad}))

    def test_every_law_field_has_a_cast(self):
        # a law's config keys are its params fields, read by annotated type
        for kind in DISTRIBUTIONS.values():
            for field in fields(kind.params):
                assert field.type in _CASTS, (kind.params.__name__, field.name)


class TestBuildDistribution:
    def test_round_trips_every_kind(self):
        assert set(KIND_EXAMPLES) == set(DISTRIBUTIONS)
        for kind in DISTRIBUTIONS:
            spec = {"kind": kind, **KIND_EXAMPLES[kind]}
            dist = build_distribution(spec)
            assert distribution_to_mapping(dist) == spec
            assert build_distribution(distribution_to_mapping(dist)) == dist

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            build_distribution({"a": 2.0})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown distribution kind"):
            build_distribution({"kind": "cauchy"})

    def test_missing_field(self):
        with pytest.raises(ConfigError, match="distribution pareto_like needs x_min"):
            build_distribution({"kind": "pareto_like", "a": 2.0})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown distribution power_law_cutoff keys: \['mean'\]"):
            build_distribution({"kind": "power_law_cutoff", "tau": 1.5, "x_m": 10, "mean": 1})

    def test_invalid_parameter_becomes_config_error(self):
        for bad in (
            {"kind": "power_law_cutoff", "tau": 1.5, "x_m": 0},
            {"kind": "power_law_cutoff", "tau": 1.5, "x_m": 1000.5},
            {"kind": "abelian", "N": 40.5, "alpha": 0.5},
            {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": "false"},
            {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": 1},
        ):
            with pytest.raises(ConfigError, match=f"distribution {bad['kind']}"):
                build_distribution(bad)


class TestParseConfig:
    def test_fig4_mapping_parses(self):
        cfg = parse_config(fig4_mapping())
        assert cfg.experiment == "fig4"
        assert cfg.levels == ((0.05, 0.95),)
        assert cfg.bootstrap == BootstrapConfig(replicates=50)

    def test_level_pair_shorthand(self):
        cfg = parse_config(fig6_mapping())
        assert cfg.levels == ((0.02, 0.98),)
        assert cfg.panels == (PowerLawCutoffParams(1.5, 500), PowerLawCutoffParams(1.5, 1000))

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
        with pytest.raises(ConfigError, match="config needs p"):
            parse_config(m)

    def test_p_range(self):
        for bad in (1.0, 2.3, 0.5):
            with pytest.raises(ConfigError, match="stability order"):
                parse_config(fig4_mapping(p=bad))

    def test_p_equal_two_allowed(self):
        assert parse_config(fig4_mapping(p=2.0)).p == 2.0

    def test_y_stable_is_an_unknown_key(self, tmp_path, capsys):
        # the law of the multipliers is fixed by baselines.draw_multipliers
        cfg_path = tmp_path / "fig4.yaml"
        cfg_path.write_text(yaml.safe_dump(fig4_mapping(y_stable={"beta": 0.0})))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "unknown config keys: ['y_stable']" in capsys.readouterr().err
        assert not out.exists()

    def test_levels_must_be_ordered_interior(self):
        for bad in ([[0.95, 0.05]], [[0.0, 0.95]], [[0.05, 0.95], [0.05, 1.0]], 0.05):
            with pytest.raises(ConfigError, match="levels"):
                parse_config(fig4_mapping(levels=bad))

    def test_level_pair_keys_are_unknown(self, tmp_path, capsys):
        # levels is the one spelling of the quantile pair
        m = dict(fig6_mapping(levels=None), level_lo=0.02, level_hi=0.98)
        cfg_path = tmp_path / "fig6.yaml"
        cfg_path.write_text(yaml.safe_dump(m))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "unknown config keys: ['level_hi', 'level_lo']" in capsys.readouterr().err
        assert not out.exists()

    def test_level_pair_conflicts_with_levels(self):
        # the pair beside levels is refused by name, not merged or ignored
        with pytest.raises(ConfigError, match=r"unknown config keys: \['level_hi', 'level_lo'\]"):
            parse_config(fig4_mapping(level_lo=0.05, level_hi=0.95))

    def test_level_pair_halves_must_come_together(self):
        # a lone half is refused as well, with or without levels
        for half in ("level_lo", "level_hi"):
            for levels in (None, [[0.02, 0.98]]):
                with pytest.raises(ConfigError, match=rf"unknown config keys: \['{half}'\]"):
                    parse_config(fig6_mapping(levels=levels, **{half: 0.5}))

    def test_mu_mode_values(self):
        with pytest.raises(ConfigError, match="mu_mode"):
            parse_config(fig4_mapping(mu_mode="oracle"))
        # YAML parses a bare `true` as a boolean; accept it as the string mode
        fig1 = {
            "experiment": "fig1",
            "seed": 1,
            "p": 1.2,
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0},
            "sizes": [200],
        }
        assert parse_config(dict(fig1, mu_mode=True)).mu_mode == "true"

    def test_null_levels_and_mu_mode_read_as_defaults(self):
        # null means "the default", as for every other optional key
        fig1 = {
            "experiment": "fig1",
            "seed": 1,
            "p": 1.2,
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0},
            "sizes": [200],
            "mu_mode": "full",
        }
        assert parse_config(dict(fig1, levels=None)) == parse_config(fig1)
        cfg = parse_config(dict(fig4_mapping(), mu_mode=None))
        assert cfg.mu_mode == "pilot"
        assert cfg == parse_config(fig4_mapping())
        with pytest.raises(ConfigError, match="fig4 needs levels"):
            parse_config(dict(fig4_mapping(), levels=None))

    def test_counts_validated(self):
        with pytest.raises(ConfigError, match="burn_in"):
            parse_config(fig4_mapping(burn_in=-1))
        with pytest.raises(ConfigError, match="permutations"):
            parse_config(fig4_mapping(permutations=0))
        with pytest.raises(ConfigError, match="replications"):
            parse_config(fig4_mapping(replications=0))
        # counts must be integral numbers, not truncated floats or booleans
        for key, bad in (("permutations", 2.9), ("total", 260.5), ("burn_in", True)):
            with pytest.raises(ConfigError, match=key):
                parse_config(fig4_mapping(**{key: bad}))
        with pytest.raises(ConfigError, match="seed"):
            parse_config(fig4_mapping(seed=7.5))
        # a quoted number is a string, not a count
        with pytest.raises(ConfigError, match="seed"):
            parse_config(fig4_mapping(seed="7"))
        with pytest.raises(ConfigError, match="permutations"):
            parse_config(fig4_mapping(permutations="4"))
        with pytest.raises(ConfigError, match="bootstrap replicates"):
            parse_config(fig4_mapping(bootstrap={"replicates": 49.5}))
        # integral floats are integers
        assert parse_config(fig4_mapping(permutations=4.0)).permutations == 4
        # bool("false") is true, so quoted booleans must be refused
        for bad in ("false", "true", 0):
            with pytest.raises(ConfigError, match="transform"):
                parse_config(fig4_mapping(panels=[dict(PARETO, transform=bad)]))

    def test_bootstrap_validation(self):
        with pytest.raises(ConfigError, match="bootstrap"):
            parse_config(fig4_mapping(bootstrap=5))
        # the pairs bootstrap is the only plan, so resample_mode is an unknown key
        for mode in ("pairs", "smooth"):
            with pytest.raises(ConfigError, match=r"unknown bootstrap keys: \['resample_mode'\]"):
                parse_config(fig4_mapping(bootstrap={"resample_mode": mode}))
        # a misspelt key would silently run the default 1000 replicates
        with pytest.raises(ConfigError, match="bootstrap"):
            parse_config(fig4_mapping(bootstrap={"replicate": 50}))
        # null reads as the default, as for every other optional key
        cfg = parse_config(fig4_mapping(bootstrap={"replicates": None}))
        assert cfg.bootstrap == BootstrapConfig(replicates=1000)
        for bad in (0, 49.5, "50", True):
            with pytest.raises(ConfigError, match="bootstrap"):
                parse_config(fig4_mapping(bootstrap={"replicates": bad}))

    def test_fig4_needs_total_pilot_levels_bootstrap(self):
        for key in ("total", "pilot", "levels", "bootstrap"):
            m = fig4_mapping()
            del m[key]
            with pytest.raises(ConfigError):
                parse_config(m)

    def test_pilot_must_be_smaller_than_total(self):
        with pytest.raises(ConfigError, match="pilot"):
            parse_config(fig4_mapping(pilot=260))
        with pytest.raises(ConfigError, match="fig6 needs 2 observations beyond the pilot"):
            parse_config(fig6_mapping(mu_mode="pilot", pilot=150))
        # only mu_mode pilot takes a pilot segment out of the sample; under
        # the other modes a pilot count is refused, not checked against total
        for mu_mode in ("full", "true"):
            with pytest.raises(ConfigError, match="^fig4 does not use pilot$"):
                parse_config(fig4_mapping(mu_mode=mu_mode, pilot=260))

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

    def test_fig1_pilot_mode_needs_pilot(self, tmp_path):
        # the default mu_mode is pilot; without a pilot count a fig1, fig4
        # or fig6 config must fail to parse, before a run creates its
        # output directory
        fig1 = {
            "experiment": "fig1",
            "seed": 1,
            "p": 1.2,
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0},
            "sizes": [200, 400],
        }
        for m in (fig1, fig4_mapping(pilot=None), fig6_mapping(mu_mode=None)):
            exp = m["experiment"]
            with pytest.raises(ConfigError, match="pilot count"):
                parse_config(m)
            assert parse_config(dict(m, pilot=100)).pilot == 100
            cfg_path = tmp_path / f"{exp}.yaml"
            cfg_path.write_text(yaml.safe_dump(m))
            out = tmp_path / f"out_{exp}"
            assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2, exp
            assert not out.exists(), exp

    def test_fig6_needs_panel_fields_and_levels(self):
        m = fig6_mapping()
        del m["panels"]
        with pytest.raises(ConfigError, match="fig6 needs panels"):
            parse_config(m)
        for bad in ([], cutoff(500)):
            with pytest.raises(ConfigError, match="config panels: must be a nonempty list"):
                parse_config(fig6_mapping(panels=bad))
        with pytest.raises(ConfigError, match="distribution power_law_cutoff x_m"):
            parse_config(fig6_mapping(panels=[cutoff(500), cutoff(1000.5)]))
        m = fig6_mapping()
        del m["total"]
        with pytest.raises(ConfigError, match="fig6 needs total"):
            parse_config(m)
        m = fig6_mapping()
        del m["levels"]
        with pytest.raises(ConfigError, match="fig6 needs levels"):
            parse_config(m)

    @pytest.mark.parametrize("experiment, key, value", [
        ("fig6", "distribution", PARETO),
        ("fig6", "bootstrap", {"replicates": 10}),
        ("fig1", "panels", [cutoff(500)]),
        ("fig2", "burn_in", 140),
        ("fig2", "permutations", 8),
        ("fig3", "replications", 5),
        ("fig3", "levels", [[0.05, 0.95]]),
        ("fig1", "bootstrap", {"replicates": 10}),
        ("fig4", "distribution", PARETO),
        # an interval study reads its laws from panels; a distribution key is
        # refused like any other key it does not read, before its mean is asked for
        ("fig6", "distribution", {"kind": "stable", "p": 1.0}),
        # a pilot count acts only under mu_mode pilot (fig6_mapping centres
        # by the full sample)
        ("fig6", "pilot", 100),
    ])
    def test_study_refuses_keys_it_ignores(self, tmp_path, capsys, experiment, key, value):
        mapping = fig6_mapping() if experiment == "fig6" else dict(small_mapping(experiment))
        mapping[key] = value
        with pytest.raises(ConfigError, match=f"{experiment} does not use {key}"):
            parse_config(mapping)
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(mapping))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_reference_count_is_an_unknown_key(self, tmp_path, capsys):
        # the reference is the exact mean; nothing is drawn for it
        m = fig6_mapping(reference_count=900000)
        with pytest.raises(ConfigError, match="unknown config keys.*reference_count"):
            parse_config(m)
        cfg_path = tmp_path / "fig6.yaml"
        cfg_path.write_text(yaml.safe_dump(m))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "reference_count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, False])
    def test_permute_pairs_is_an_unknown_key(self, tmp_path, capsys, value):
        # every ordering after the identity reorders the (X, Y) pairs, so an
        # old config that names the rule is refused whatever it chose
        cfg_path = tmp_path / "fig6.yaml"
        cfg_path.write_text(yaml.safe_dump(fig6_mapping(permute_pairs=value)))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "unknown config keys: ['permute_pairs']" in capsys.readouterr().err
        assert not out.exists()

    def test_abelian_size_checked_at_parse_time(self):
        m = fig4_mapping(panels=[{"kind": "abelian", "N": 2 * 10**6, "alpha": 0.5}])
        with pytest.raises(ConfigError, match="exact-table limit"):
            parse_config(m)

    @pytest.mark.parametrize("x_m", [0, TABLE_LIMIT + 1])
    def test_fig6_cutoffs_checked_before_output(self, tmp_path, x_m):
        m = fig6_mapping(panels=[cutoff(500), cutoff(x_m)])
        with pytest.raises(ConfigError, match="cutoff"):
            parse_config(m)
        cfg_path = tmp_path / "fig6.yaml"
        cfg_path.write_text(yaml.safe_dump(m))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_sizes_validation(self):
        m = dict(ECDF_MAPPINGS["fig1"])
        # a string would be read character by character: "12" as (1, 2)
        for bad in ([0, 10], [10, 20.5], [], "12"):
            m["sizes"] = bad
            with pytest.raises(ConfigError, match="sizes"):
                parse_config(m)

    @pytest.mark.parametrize("experiment", ["fig1", "fig2", "fig3"])
    def test_repeated_sizes_refused(self, tmp_path, capsys, experiment):
        # one ecdf_<size>.csv per size: a repeat would write a file twice
        mapping = dict(ECDF_MAPPINGS[experiment], sizes=[300, 300, 200])
        with pytest.raises(ConfigError, match=r"^sizes repeat \[300\]$"):
            parse_config(mapping)
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(mapping))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "sizes repeat [300]" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _simulate_refuses(tmp_path, capsys, mapping, message):
        """simulate on mapping exits 2 with message and makes no output directory."""
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(mapping))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # sizes, panels and levels are read by one list reader: a nonempty list,
    # each item read by its own reader, no item repeated
    @pytest.mark.parametrize("levels, message", [
        # a third level used to be dropped and a mapping read by its keys 0 and 1
        ([[0.05, 0.95, 0.2]], "must be a pair 0 < lo < hi < 1, got [0.05, 0.95, 0.2]"),
        ([{0: 0.05, 1: 0.95}], "must be a pair 0 < lo < hi < 1, got {0: 0.05, 1: 0.95}"),
        ([[0.05]], "must be a pair 0 < lo < hi < 1, got [0.05]"),
        # one pair is a list of one pair, not the pair itself
        ([0.05, 0.95], "must be a pair 0 < lo < hi < 1, got 0.05, "
                       "in a list such as [[0.05, 0.95], [0.005, 0.995]]"),
        ({0: 0.05, 1: 0.95}, "must be a nonempty list such as [[0.05, 0.95], [0.005, 0.995]]"),
        ([], "must be a nonempty list such as [[0.05, 0.95], [0.005, 0.995]], got []"),
        # a level is a number, not a quoted one
        ([["0.05", "0.95"]], "must be a pair 0 < lo < hi < 1, got ['0.05', '0.95']"),
        ([[0.05, 0.95], [0.005, "0.995"]], "must be a pair 0 < lo < hi < 1, got [0.005, '0.995']"),
    ], ids=["three-levels", "mapping-levels", "one-levels", "flat-levels", "not_a_list-levels",
            "empty-levels", "quoted-levels", "quoted_second-levels"])
    def test_levels_must_be_a_list_of_two(self, tmp_path, capsys, levels, message):
        mapping = fig4_mapping(levels=levels)
        message = f"config levels: {message}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(mapping)
        self._simulate_refuses(tmp_path, capsys, mapping, message)

    @pytest.mark.parametrize("experiment", ["fig4", "fig5", "fig6"])
    def test_repeated_level_pair_refused(self, tmp_path, capsys, experiment):
        # every interval row would be written twice under one summary key
        mapping = dict(small_mapping(experiment), levels=[[0.05, 0.95], [0.01, 0.99], [0.05, 0.95]])
        message = "levels repeat [[0.05, 0.95]]"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(mapping)
        self._simulate_refuses(tmp_path, capsys, mapping, message)

    def test_sizes_must_be_a_list(self, tmp_path, capsys):
        for sizes, message in (
            # a mapping used to pass as its keys
            ({300: "x", 200: None}, "config sizes: must be a nonempty list such as [1000, 5000]"),
            ([], "config sizes: must be a nonempty list such as [1000, 5000], got []"),
            ([300, 0], "config sizes: must be >= 1, got 0, in a list such as [1000, 5000]"),
            ([300, 200, 300], "sizes repeat [300]"),
        ):
            mapping = dict(ECDF_MAPPINGS["fig1"], sizes=sizes)
            with pytest.raises(ConfigError, match=re.escape(message)):
                parse_config(mapping)
            self._simulate_refuses(tmp_path, capsys, mapping, message)


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

    def test_shipped_configs_set_only_keys_their_study_lists(self):
        for name in SHIPPED_ECHO_SHA256:
            with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
            study = experiments.STUDIES[raw["experiment"]]
            listed = experiments._SHARED_KEYS + study.needs + study.reads
            assert set(raw) <= set(listed), name
            assert set(study.needs) <= set(raw), name

    def test_shipped_config_echo_bytes_are_pinned(self):
        assert sorted(SHIPPED_ECHO_SHA256) == sorted(
            f for f in os.listdir(CONFIG_DIR) if f.endswith(".yaml")
        )
        for name, digest in SHIPPED_ECHO_SHA256.items():
            cfg = load_config(os.path.join(CONFIG_DIR, name))
            text = yaml.safe_dump(config_to_mapping(cfg), sort_keys=True)
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name

    def test_readme_configs_parse(self):
        # every YAML example in README.md is a config that parse_config takes
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        blocks = re.findall(r"^```yaml\n(.*?)^```$", text, re.M | re.S)
        assert blocks
        for block in blocks:
            parse_config(yaml.safe_load(block))

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


def interval_rows(cfg):
    """The rows of a run's intervals.csv, read back by the plotter's reader."""
    return plotting.read_intervals_csv(os.path.join(cfg.out_dir, "intervals.csv"))


class TestEcdfStudy:
    def test_fig1_artifacts(self, tmp_path):
        cfg, report = run_with(ECDF_MAPPINGS["fig1"], tmp_path, "fig1")
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
        cfg, report = run_with(ECDF_MAPPINGS["fig2"], tmp_path, "fig2")
        ts, gs = plotting.read_ecdf_csv(os.path.join(cfg.out_dir, "ecdf_150.csv"))
        assert len(ts) == 40  # one point per bootstrap replicate
        assert gs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_fig3_pilot_centering(self, tmp_path):
        cfg, report = run_with(ECDF_MAPPINGS["fig3"], tmp_path, "fig3")
        assert math.isfinite(report.summary["mu_hat"])
        assert os.path.exists(os.path.join(cfg.out_dir, "fig3.svg"))


# fig4_mapping's law as it labels intervals.csv and the summary
PARETO_LABEL = "kind=pareto_like a=2.0 x_min=3.0 transform=True"
# the header of every interval study's intervals.csv
INTERVAL_HEADER = [
    "x_m", "replication", "method", "target", "level_lo", "level_hi", "lower", "upper",
    "lower_defined", "upper_defined", "reference_value",
]
INTERVAL_HEADER_TEXT = ",".join(INTERVAL_HEADER)


class TestIntervalStudy:
    def test_fig4_summary_and_rows(self, tmp_path):
        cfg, report = run_with(fig4_mapping(), tmp_path, "fig4")
        [panel] = report.summary["panels"].values()
        assert list(report.summary["panels"]) == [PARETO_LABEL]
        key = "pstable@mean@0.05-0.95"
        assert set(panel) == {
            "reference_mean", "reference_alpha", key, "bootstrap@mean@0.05-0.95",
        }
        mean = 6.0 * (1.0 + math.log(3.0))
        assert panel["reference_mean"] == pytest.approx(mean)
        assert panel["reference_alpha"] == pytest.approx(1.0 - 1.0 / mean)
        block = panel[key]
        assert block["replications"] == 6
        assert (block["two_sided"], block["lower_undefined"]) == (1.0, 0.0)
        # six widths, an even count: the median is the mean of the middle two
        rows = interval_rows(cfg)
        widths = sorted(r["upper"] - r["lower"] for r in rows if r["method"] == "pstable")
        assert len(widths) == 6 and widths[2] < widths[3]
        assert block["median_width"] == (widths[2] + widths[3]) / 2
        assert len(rows) == 6 * 2
        intervals = os.path.join(cfg.out_dir, "intervals.csv")
        with open(intervals, encoding="utf-8") as fh:
            assert fh.readline().strip().split(",") == INTERVAL_HEADER

    def test_fig4_two_level_pairs(self, tmp_path):
        cfg, report = run_with(
            fig4_mapping(levels=[[0.05, 0.95], [0.005, 0.995]], replications=5), tmp_path, "fig4x"
        )
        panel = report.summary["panels"][PARETO_LABEL]
        assert set(panel) == {
            "reference_mean", "reference_alpha",
            "pstable@mean@0.05-0.95",
            "bootstrap@mean@0.05-0.95",
            "pstable@mean@0.005-0.995",
            "bootstrap@mean@0.005-0.995",
        }
        # five widths, an odd count: the median is the middle one
        widths = sorted(
            r["upper"] - r["lower"] for r in interval_rows(cfg)
            if (r["method"], r["levels"][0]) == ("pstable", 0.05)
        )
        assert panel["pstable@mean@0.05-0.95"]["median_width"] == widths[2]
        # the wider nominal level cannot shrink the p-stable median width
        narrow = panel["pstable@mean@0.05-0.95"]["median_width"]
        wide = panel["pstable@mean@0.005-0.995"]["median_width"]
        assert wide >= narrow

    def test_overflowing_replication_is_refused_before_any_scan(self, tmp_path, monkeypatch):
        # a fig4-sized replication (1000 estimation points, 1000 bootstrap
        # replicates) on finite data whose increments overflow float64
        def huge_sample(*args):
            mu_hat, x, y = draw_sample(*args)
            x[:6] = 1e308
            return mu_hat, x, y

        def no_scan(*args):
            raise AssertionError("a T_n scan ran on non-finite increments")

        monkeypatch.setattr(experiments, "draw_sample", huge_sample)
        monkeypatch.setattr(kernels, "tn_scan", no_scan)
        mapping = fig4_mapping(total=1100, pilot=100, bootstrap={"replicates": 1000},
                               replications=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match=r"increment \(x − μ̂\)·y is -?inf"):
                run_with(mapping, tmp_path, "fig4o")

    def test_report_json_round_trips(self, tmp_path):
        cfg, report = run_with(fig4_mapping(), tmp_path, "fig4r")
        with open(os.path.join(cfg.out_dir, "report.json"), encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded["experiment"] == "fig4"
        assert loaded["summary"] == json.loads(json.dumps(report.summary))
        assert loaded["config_echo"]["seed"] == 7


# fig6_mapping's panel labels
CUTOFF_LABELS = {
    "kind=power_law_cutoff tau=1.5 x_m=500", "kind=power_law_cutoff tau=1.5 x_m=1000",
}


def abelian(N, alpha):
    return {"kind": "abelian", "N": N, "alpha": alpha}


class TestPanelStudy:
    def test_fig6_summary_shape(self, tmp_path):
        cfg, report = run_with(fig6_mapping(), tmp_path, "fig6")
        panels = report.summary["panels"]
        assert set(panels) == CUTOFF_LABELS
        keys = {
            f"{method}@{target}@0.02-0.98" for method in ("pstable", "clt")
            for target in ("mean", "alpha")
        }
        for block in panels.values():
            assert set(block) == {"reference_mean", "reference_alpha", *keys}
            assert block["reference_mean"] > 1.0
            assert block["reference_alpha"] == 1.0 - 1.0 / block["reference_mean"]
            for key in keys:
                assert block[key]["replications"] == 5
                for rate in ("coverage", "two_sided", "lower_undefined"):
                    assert 0.0 <= block[key][rate] <= 1.0
        rows = interval_rows(cfg)
        assert len(rows) == 2 * 5 * 4  # panels x reps x (method, target) combos
        assert {r["method"] for r in rows} == {"pstable", "clt"}
        assert {r["target"] for r in rows} == {"mean", "alpha"}

    def test_alpha_coverage_is_mean_coverage(self, tmp_path):
        # α = 1 - 1/μ increases on μ > 0, so an α interval holds the reference
        # α exactly when its mean interval holds the mean; short samples make
        # mean intervals that reach below zero, whose α lower bound is undefined
        mapping = fig6_mapping(panels=[cutoff(1000), abelian(200, 0.9)], total=20,
                               burn_in=0, replications=40)
        cfg, report = run_with(mapping, tmp_path, "alpha")
        for block in report.summary["panels"].values():
            for method in ("pstable", "clt"):
                mean = block[f"{method}@mean@0.02-0.98"]
                alpha = block[f"{method}@alpha@0.02-0.98"]
                assert alpha["coverage"] == mean["coverage"]
        # some of them hold it: the undefined lower bound is unbounded below
        assert any(
            r["target"] == "alpha" and r["lower"] is None and r["reference_value"] <= r["upper"]
            for r in interval_rows(cfg)
        )

    def test_fig6_two_level_pairs(self, tmp_path):
        # fig6 takes a list of level pairs, as fig4 and fig5 do
        pairs = [[0.02, 0.98], [0.05, 0.95]]
        cfg, report = run_with(fig6_mapping(levels=pairs), tmp_path, "pairs")
        rows = interval_rows(cfg)
        assert len(rows) == 2 * 5 * 2 * 4  # panels x reps x pairs x (method, target) combos
        for lo, hi in pairs:
            assert sum(r["levels"] == (lo, hi) for r in rows) == 2 * 5 * 4
            for block in report.summary["panels"].values():
                for method in ("pstable", "clt"):
                    for target in ("mean", "alpha"):
                        assert block[f"{method}@{target}@{lo}-{hi}"]["replications"] == 5
        # the first pair's rows are the rows of a run at that pair alone
        one, _ = run_with(fig6_mapping(), tmp_path, "one")
        assert [r for r in rows if r["levels"][0] == 0.02] == interval_rows(one)

    def test_each_cdf_table_is_built_once(self, tmp_path, monkeypatch, weights_calls):
        # parsing builds no table, as a tabled law's mean is at least 1; the
        # study builds each in the calling thread before its pool starts, and
        # the pool's threads only read it
        builds_at_pool_start = []
        run_tasks = experiments._run_tasks

        def spy(tasks, workers):
            builds_at_pool_start.append(len(weights_calls))
            return run_tasks(tasks, workers)

        monkeypatch.setattr(experiments, "_run_tasks", spy)
        for workers in (1, 2):
            weights_calls.clear()
            cfg = load_config(os.path.join(CONFIG_DIR, "fig6.yaml"))
            assert weights_calls == []
            out_dir = str(tmp_path / f"w{workers}")
            run_experiment(replace(cfg, out_dir=out_dir, replications=2), workers=workers)
            assert builds_at_pool_start[-1] == len(cfg.panels) == 3
            assert [law for law, _ in weights_calls] == list(cfg.panels)
            assert {thread for _, thread in weights_calls} == {threading.current_thread()}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nine_tabled_panels_build_nine_tables(self, tmp_path, workers, weights_calls):
        # more tabled panels than any shipped config has
        mapping = fig6_mapping(panels=[cutoff(x_m) for x_m in range(20, 29)], replications=2)
        _, report = run_with(mapping, tmp_path, "nine", workers=workers)
        assert len(report.summary["panels"]) == 9
        assert len(weights_calls) == 9

    def test_tables_are_built_before_the_pool_and_kept_with_the_config(
        self, tmp_path, monkeypatch, weights_calls
    ):
        # every build runs in the calling thread before the pool starts, and
        # a second run of the same parsed config builds nothing
        builds_at_pool_start = []
        run_tasks = experiments._run_tasks

        def spy(tasks, workers):
            builds_at_pool_start.append(len(weights_calls))
            return run_tasks(tasks, workers)

        monkeypatch.setattr(experiments, "_run_tasks", spy)
        laws = [cutoff(x_m) for x_m in range(20, 26)] + [abelian(N, 0.9) for N in (30, 40, 50)]
        cfg = parse_config(fig6_mapping(panels=laws, replications=2))
        for name in ("first", "second"):
            run_experiment(replace(cfg, out_dir=str(tmp_path / name)), workers=2)
        assert builds_at_pool_start == [9, 9]
        assert [law for law, _ in weights_calls] == list(cfg.panels)
        assert {thread for _, thread in weights_calls} == {threading.current_thread()}

    def test_fig6_rows_parse_back_for_plotting(self, tmp_path):
        cfg, _ = run_with(fig6_mapping(), tmp_path, "fig6p")
        rows = interval_rows(cfg)
        assert len(rows) == 2 * 5 * 4  # panels x reps x (method, target) combos
        assert {r["group"] for r in rows} == CUTOFF_LABELS

    def test_abelian_panels_parse_and_run(self, tmp_path):
        laws = [abelian(N, alpha) for N in (40, 200) for alpha in (0.5, 0.9)]
        cfg, report = run_with(fig6_mapping(panels=laws, replications=2), tmp_path, "abl")
        labels = [f"kind=abelian N={N} alpha={alpha}" for N in (40, 200) for alpha in (0.5, 0.9)]
        assert list(report.summary["panels"]) == labels
        rows = interval_rows(cfg)
        assert [r["group"] for r in rows] == [label for label in labels for _ in range(2 * 4)]
        for law, label in zip(cfg.panels, labels):
            assert report.summary["panels"][label]["reference_mean"] == abelian_mean(law)

    def test_mixed_panels_parse_and_run(self, tmp_path):
        mapping = fig6_mapping(panels=[PARETO, abelian(200, 0.9)], replications=2)
        cfg, report = run_with(mapping, tmp_path, "mixed")
        assert list(report.summary["panels"]) == [
            "kind=pareto_like a=2.0 x_min=3.0 transform=True", "kind=abelian N=200 alpha=0.9",
        ]
        assert len(interval_rows(cfg)) == 2 * 2 * 4
        assert parse_config(config_to_mapping(cfg)) == cfg

    @pytest.mark.parametrize("panels, named", [
        ([cutoff(500), {"kind": "pareto_like", "a": 1.0, "x_min": 3.0}], "needs a law with a mean"),
        ([{"kind": "stable", "p": 0.8, "delta": 1.0}], "needs a law with a mean"),
        ([cutoff(500), cutoff(1000), cutoff(500.0)], "panels repeat"),
        # α = 1 - 1/mean needs a positive mean; tabled laws skip this check
        ([{"kind": "stable", "p": 1.5, "delta": -2.0}],
         "fig6 panel kind=stable p=1.5 gamma=1.0 delta=-2.0 "
         "needs a positive mean for its α reference"),
        ([{"kind": "stable", "p": 1.5, "delta": 0.0}],
         "fig6 panel kind=stable p=1.5 gamma=1.0 delta=0.0 "
         "needs a positive mean for its α reference"),
        (cutoff(500), "config panels: must be a nonempty list"),
        ([], "config panels: must be a nonempty list"),
        # no law here is defined at an infinite parameter: a has a nan mean,
        # x_min and gamma fail only at draw time, tau = inf is a point mass
        ([{"kind": "pareto_like", "a": math.inf, "x_min": 3.0}],
         "distribution pareto_like: a must be finite, got inf"),
        ([{"kind": "pareto_like", "a": 2.0, "x_min": math.inf, "transform": True}],
         "distribution pareto_like: x_min must be finite, got inf"),
        ([{"kind": "stable", "p": 1.5, "gamma": math.inf, "delta": 1.0}],
         "distribution stable: gamma must be finite, got inf"),
        ([cutoff(500), {"kind": "power_law_cutoff", "tau": math.inf, "x_m": 500}],
         "distribution power_law_cutoff: tau must be finite, got inf"),
    ], ids=["pareto-a1", "stable-p0.8", "repeated", "negative-mean", "zero-mean", "not-a-list",
            "empty", "pareto-a-inf", "pareto-xmin-inf", "stable-gamma-inf", "cutoff-tau-inf"])
    def test_bad_panels_exit_2_before_output(self, tmp_path, capsys, panels, named):
        mapping = fig6_mapping(panels=panels)
        with pytest.raises(ConfigError, match=named):
            parse_config(mapping)
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(mapping))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


# sha256 of (intervals.csv, ecdf.csv) of small fig4 runs on the two tabled
# laws, recorded when fig4 took the one interval runner, its row layout and
# its (law, replication) streams.
TABLED_FIG4_RUNS = {
    "cutoff": (
        {"panels": [{"kind": "power_law_cutoff", "tau": 1.5, "x_m": 100000}]},
        ("a009b4415ca1b40b3c56abde8b133b658f9ccd90870e6d30fe255836436e9264",
         "75539c22a569102b9981fdda169618b9eea6e5cb413f79c33d8bcee71185bcb4"),
    ),
    "abelian": (
        {"panels": [{"kind": "abelian", "N": 100000, "alpha": 0.99}],
         "mu_mode": "true", "pilot": None},
        ("4887d9c566f2032a4fd302e944e610321440fce854c4d1c2ab23e13c52024d90",
         "891be4e115c67f476f571e49bb0abc7d489a3c9c2ee7189af6ee29971e1b7449"),
    ),
}


class TestTabledLaws:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("law", sorted(TABLED_FIG4_RUNS))
    def test_fig4_bytes_are_pinned_and_the_table_built_once(
        self, tmp_path, law, workers, weights_calls
    ):
        # one table per run, however many replications and threads sample it
        overrides, digests = TABLED_FIG4_RUNS[law]
        cfg, _ = run_with(fig4_mapping(**overrides), tmp_path, law, workers=workers)
        assert len(weights_calls) == 1
        for name, digest in zip(("intervals.csv", "ecdf.csv"), digests):
            with open(os.path.join(cfg.out_dir, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, name

    def test_cutoff_mean_is_computed_once_per_run(self, tmp_path, weights_calls):
        # mu_mode true reads the mean in every replication; the mean is
        # computed with the table, once
        overrides, _ = TABLED_FIG4_RUNS["cutoff"]
        run_with(fig4_mapping(mu_mode="true", pilot=None, **overrides), tmp_path, "m", workers=2)
        assert len(weights_calls) == 1


class TestMuModes:
    """fig4 and fig6 centre through baselines.draw_sample under every mu_mode."""

    @pytest.mark.parametrize("mu_mode", ["true", "full", "pilot"])
    @pytest.mark.parametrize("experiment", ["fig4", "fig6"])
    def test_replication_zero_matches_draw_sample(self, tmp_path, experiment, mu_mode):
        if experiment == "fig4":
            mapping = fig4_mapping(mu_mode=mu_mode, replications=2)
        else:
            mapping = fig6_mapping(mu_mode=mu_mode, pilot=30, panels=[cutoff(500)], replications=2)
        # a pilot count is given only where mu_mode pilot takes one out
        if mu_mode != "pilot":
            del mapping["pilot"]
        cfg, _ = run_with(mapping, tmp_path, experiment)

        # every interval study draws replication 0 of its first law here
        rsrc = RandomSource(cfg.seed).substream(ROLE_REPLICATION, 0, 0)
        mu_hat, x_est, y = draw_sample(cfg.panels[0], rsrc, cfg.total, mu_mode, cfg.pilot, cfg.p)
        assert x_est.size == y.size == cfg.total - (cfg.pilot or 0)
        [ci_mu] = pstable_estimate(
            x_est, y, mu_hat, cfg.p, cfg.levels, burn_in=cfg.burn_in,
            n_perms=cfg.permutations, src=rsrc.substream(STREAM_PERM),
        ).intervals
        rep0 = {
            r["target"]: r for r in interval_rows(cfg)
            if r["replication"] == 0 and r["method"] == "pstable"
        }
        # fig4/fig5 rows hold mean intervals only
        cis = [ci_mu] if experiment == "fig4" else [ci_mu, ci_alpha(ci_mu)]
        assert sorted(rep0) == sorted(ci.target for ci in cis)
        for ci in cis:
            assert {k: rep0[ci.target][k] for k in ci.bound_columns()} == ci.bound_columns()


class TestDeterminism:
    @pytest.mark.parametrize("experiment", ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"])
    def test_small_study_output_bytes_are_pinned(self, tmp_path, experiment):
        cfg, _ = run_with(small_mapping(experiment), tmp_path, experiment, workers=2)
        written = sorted(f for f in os.listdir(cfg.out_dir) if f.endswith((".csv", ".svg")))
        assert written == sorted(SMALL_RUN_SHA256[experiment])
        for name in written:
            with open(os.path.join(cfg.out_dir, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert digest == SMALL_RUN_SHA256[experiment][name], name

    @pytest.mark.parametrize("run", sorted(ESTIMATE_RUNS))
    def test_estimate_output_bytes_are_pinned(self, tmp_path, capsys, run):
        argv = ["estimate", *ESTIMATE_RUNS[run], "--out", str(tmp_path / "est")]
        if run == "input":
            data = tmp_path / "obs.csv"
            data.write_text(ESTIMATE_INPUT)
            argv += ["--input", str(data)]
        assert cli.main(argv) == 0
        for name, digest in ESTIMATE_SHA256[run].items():
            with open(tmp_path / "est" / name, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, name

    def test_fig4_workers_do_not_change_csv_bytes(self, tmp_path):
        cfg1, _ = run_with(fig4_mapping(), tmp_path, "w1", workers=1)
        cfg3, _ = run_with(fig4_mapping(), tmp_path, "w3", workers=3)
        for name in ("intervals.csv", "ecdf.csv"):
            b1 = Path(cfg1.out_dir, name).read_bytes()
            b3 = Path(cfg3.out_dir, name).read_bytes()
            assert b1 == b3, f"{name} differs between worker counts"

    def test_fig6_workers_do_not_change_csv_bytes(self, tmp_path):
        cfg1, _ = run_with(fig6_mapping(), tmp_path, "p1", workers=1)
        cfg4, _ = run_with(fig6_mapping(), tmp_path, "p4", workers=4)
        b1 = Path(cfg1.out_dir, "intervals.csv").read_bytes()
        b4 = Path(cfg4.out_dir, "intervals.csv").read_bytes()
        assert b1 == b4

    def test_fig6_workers_do_not_change_report(self, tmp_path):
        # the panels' replications share one pool; rows and summaries must
        # come out as a serial run gives them, also with more threads than
        # cores switching often
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 4):
                cfg, _ = run_with(fig6_mapping(), tmp_path, f"w{workers}", workers=workers)
                with open(os.path.join(cfg.out_dir, "report.json"), encoding="utf-8") as fh:
                    loaded = json.load(fh)
                rows = Path(cfg.out_dir, "intervals.csv").read_bytes()
                reports.append((rows, loaded["summary"]))
        finally:
            sys.setswitchinterval(interval)
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def test_rerun_reproduces_all_artifacts(self, tmp_path):
        cfg_a, rep_a = run_with(fig6_mapping(), tmp_path, "runA", workers=2)
        cfg_b, rep_b = run_with(fig6_mapping(), tmp_path, "runB", workers=1)
        for name in ("intervals.csv", "fig6.svg"):
            ba = Path(cfg_a.out_dir, name).read_bytes()
            bb = Path(cfg_b.out_dir, name).read_bytes()
            assert ba == bb, f"{name} differs between reruns"
        # wall clock may differ, the statistical content may not
        assert rep_a.summary == rep_b.summary

    @pytest.mark.parametrize("experiment", ["fig1", "fig6"])
    def test_report_json_holds_no_rows(self, tmp_path, experiment):
        # the rows are the CSVs' alone; report.json names and summarises them
        mapping = ECDF_MAPPINGS["fig1"] if experiment == "fig1" else fig6_mapping()
        cfg, _ = run_with(mapping, tmp_path, experiment)
        with open(os.path.join(cfg.out_dir, "report.json"), encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert set(loaded) == {"config_echo", "experiment", "files", "summary", "wall_clock_s"}

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
        # the level pair is read: it sets each interval's x offset
        path.write_text(
            "replication,method,target,lower,upper,lower_defined,upper_defined,reference_value\n"
            "0,pstable,mean,0,1,true,true,0.5\n"
        )
        with pytest.raises(PlotDataError, match=r"missing columns \['level_lo', 'level_hi'\]"):
            plotting.read_intervals_csv(str(path))

    def test_intervals_csv_bad_value(self, tmp_path):
        path = tmp_path / "j.csv"
        header = INTERVAL_HEADER_TEXT[len("x_m,"):]
        path.write_text(header + "\nzero,pstable,mean,0.05,0.95,0,1,true,true,0.5\n")
        with pytest.raises(PlotDataError, match=r"j\.csv:2"):
            plotting.read_intervals_csv(str(path))

    @pytest.mark.parametrize("kind", ["ecdf", "intervals"])
    def test_non_utf8_file_is_named(self, tmp_path, capsys, kind):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"t,G\n0.0,0.5\n\xff,1.0\n")
        argv = ["plot", str(path), "--kind", kind, "--out", str(tmp_path / "p.svg")]
        assert cli.main(argv) == 2
        assert f"{path}: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "p.svg").exists()

    def test_oversized_cell_is_named(self, tmp_path, capsys):
        # csv.reader refuses a field over csv.field_size_limit() characters
        path = tmp_path / "big.csv"
        path.write_text("t,G\n" + "1" * 200_000 + ",0.5\n")
        argv = ["plot", str(path), "--kind", "ecdf", "--out", str(tmp_path / "p.svg")]
        assert cli.main(argv) == 2
        assert f"{path}:2: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "p.svg").exists()

    def test_ticks_end_where_the_step_is_below_the_spacing_of_doubles(self):
        # 1e17 + 5 is 1e17 again, so a loop that only adds the step grows
        # its tick list without end: run it in a child with bounded memory
        code = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28)); "
            "from heavytail.plotting import _ticks; print(_ticks(1e17, 1e17 + 16))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[1e+17]\n"

    def test_empty_lower_cell_reads_as_none(self, tmp_path):
        path = tmp_path / "k.csv"
        header = INTERVAL_HEADER_TEXT[len("x_m,"):]
        path.write_text(header + "\n0,pstable,alpha,0.05,0.95,,0.9,false,true,0.8\n")
        rows = plotting.read_intervals_csv(str(path))
        assert rows[0]["lower"] is None
        assert rows[0]["lower_defined"] is False


class TestEmitPlot:
    """The two renderers, plotting.ecdf_svg and plotting.intervals_svg."""

    def test_ecdf_label_count_must_match(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t,G\n0.0,0.5\n1.0,1.0\n")
        with pytest.raises(PlotDataError, match="labels"):
            plotting.ecdf_svg([str(path)], ["a", "b"])

    def test_ecdf_document(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("t,G\n-1.0,0.25\n0.0,0.5\n2.0,1.0\n")
        doc = plotting.ecdf_svg([str(path)], title="a<b")
        assert doc.startswith("<svg ")
        assert doc.rstrip().endswith("</svg>")
        assert "a&lt;b" in doc  # titles are escaped

    def test_interval_document_marks_undefined_lower(self, tmp_path):
        path = tmp_path / "iv.csv"
        rows = [
            "100,0,pstable,alpha,0.05,0.95,0.1,0.9,true,true,0.5",
            "100,1,pstable,alpha,0.05,0.95,,0.9,false,true,0.5",
            "100,0,clt,alpha,0.05,0.95,0.2,0.8,true,true,0.5",
            "100,1,clt,alpha,0.05,0.95,,0.7,false,true,0.5",
        ]
        path.write_text(INTERVAL_HEADER_TEXT + "\n" + "\n".join(rows) + "\n")
        doc = plotting.intervals_svg(str(path), "alpha")
        assert doc.count(" Z\" fill=\"none\"") == 2  # one open triangle per undefined bound
        assert ">100</text>" in doc  # the group label is the panel's caption

    def test_interval_plot_needs_target_rows(self, tmp_path):
        path = tmp_path / "iv.csv"
        row = "100,0,pstable,mean,0.05,0.95,0.1,0.9,true,true,0.5"
        path.write_text(INTERVAL_HEADER_TEXT + "\n" + row + "\n")
        with pytest.raises(PlotDataError, match="no rows with target"):
            plotting.intervals_svg(str(path), "alpha")

    def test_write_svg_leaves_no_file_on_render_error(self, tmp_path):
        path = tmp_path / "fig.svg"
        with pytest.raises(PlotDataError):
            experiments._write_svg(str(path), plotting.ecdf_svg, [str(tmp_path / "missing.csv")])
        assert not path.exists()

    def test_emitted_run_artifacts_render(self, tmp_path):
        # the runner-written CSVs must stay parseable by the plotter
        cfg, _ = run_with(fig6_mapping(), tmp_path, "render")
        doc = plotting.intervals_svg(os.path.join(cfg.out_dir, "intervals.csv"), "alpha")
        assert doc.startswith("<svg ")


class TestGeneratorSpec:
    def test_pareto_like(self):
        dist = cli._parse_generator("pareto_like:a=2,x_min=3,transform=true")
        assert dist == ParetoLikeParams(a=2.0, x_min=3.0, transform=True)

    def test_power_law_cutoff(self):
        dist = cli._parse_generator("power_law_cutoff:tau=1.5,x_m=1000")
        assert dist == PowerLawCutoffParams(tau=1.5, x_m=1000)
        assert type(dist.x_m) is int  # the generator reads 1000 as 1000.0
        with pytest.raises(ConfigError, match="distribution power_law_cutoff x_m"):
            cli._parse_generator("power_law_cutoff:tau=1.5,x_m=1000.5")

    def test_abelian(self):
        dist = cli._parse_generator("abelian:N=40,alpha=0.5")
        assert dist == AbelianParams(N=40, alpha=0.5)

    def test_field_without_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            cli._parse_generator("pareto_like:a")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown distribution kind"):
            cli._parse_generator("zeta:s=2")

    def test_repeated_field(self, tmp_path, capsys):
        # a later a=5 would silently replace a=2
        with pytest.raises(ConfigError, match="generator field 'a' repeats"):
            cli._parse_generator("pareto_like:a=2,x_min=3,a=5")
        out = tmp_path / "est"
        assert cli.main([
            "estimate", "--generator", "pareto_like:a=2,x_min=3,a=5", "--count", "100",
            "--p", "1.2", "--out", str(out),
        ]) == 2
        assert "generator field 'a' repeats" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_fields(self):
        with pytest.raises(ConfigError, match="distribution pareto_like needs a"):
            cli._parse_generator("pareto_like")

    @pytest.mark.parametrize("spec, named", [
        ("pareto_like:a=inf,x_min=3", "distribution pareto_like: a must be finite, got inf"),
        ("pareto_like:a=2,x_min=inf", "distribution pareto_like: x_min must be finite, got inf"),
        ("stable:p=1.5,gamma=inf", "distribution stable: gamma must be finite, got inf"),
        ("power_law_cutoff:tau=inf,x_m=100",
         "distribution power_law_cutoff: tau must be finite, got inf"),
    ], ids=["pareto-a", "pareto-x_min", "stable-gamma", "cutoff-tau"])
    def test_non_finite_field_exits_2_before_output(self, tmp_path, capsys, spec, named):
        out = tmp_path / "est"
        argv = ["estimate", "--generator", spec, "--count", "100", "--p", "1.2", "--out", str(out)]
        assert cli.main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


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

    def test_non_utf8_file_is_named(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"value\n1.5\n\xff\n")
        argv = ["estimate", "--input", str(path), "--p", "1.5", "--out", str(tmp_path / "est")]
        assert cli.main(argv) == 2
        assert f"cannot read {path}" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_oversized_cell_is_named(self, tmp_path, capsys):
        # csv.reader refuses a field over csv.field_size_limit() characters
        path = tmp_path / "big.csv"
        path.write_text("1.5\n" + "x" * 200_000 + "\n2.5\n")
        argv = ["estimate", "--input", str(path), "--p", "1.5", "--out", str(tmp_path / "est")]
        assert cli.main(argv) == 2
        assert f"cannot read {path}: field larger than field limit" in capsys.readouterr().err

    # cells over the limit that the C reader parses: a numeric first cell, a
    # cell in a later column and a quoted one over short lines; the line loop
    # defines the outcome
    @pytest.mark.parametrize(
        "text",
        ["1.5\n" + "0" * 200_000 + "2.5\n", "1.5\n2.5," + "x" * 200_000 + "\n",
         '1.5\n2.5,"' + "x\n" * 100_000 + '"\n'],
        ids=["long_number", "long_later_cell", "long_quoted_cell_over_lines"],
    )
    def test_oversized_cell_the_c_reader_parses_is_named(self, tmp_path, capsys, text):
        path = tmp_path / "big.csv"
        path.write_text(text)
        assert cli._load_rows(str(path)) is None
        argv = ["estimate", "--input", str(path), "--p", "1.5", "--out", str(tmp_path / "est")]
        assert cli.main(argv) == 2
        assert f"cannot read {path}: field larger than field limit" in capsys.readouterr().err

    def test_long_line_of_short_cells_is_read(self, tmp_path):
        # the guard bounds cells by their line; a long line of short cells
        # goes to the line loop, which reads it
        path = tmp_path / "wide.csv"
        path.write_text("1.5\n2.5" + ",x" * 70_000 + "\n3.5\n")
        assert cli._read_observations(str(path)).tolist() == [1.5, 2.5, 3.5]

    @pytest.mark.parametrize("text", ["\ufeff1.5\n2.5\n3.5\n", "\ufeffvalue\n1.5\n2.5\n3.5\n"])
    def test_byte_order_mark_keeps_the_first_line(self, tmp_path, text):
        # Excel's "CSV UTF-8" export starts the file with a BOM
        path = tmp_path / "bom.csv"
        path.write_bytes(text.encode("utf-8"))
        assert cli._read_observations(str(path)).tolist() == [1.5, 2.5, 3.5]
        assert cli._read_rows(str(path)).tolist() == [1.5, 2.5, 3.5]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "value\n", "\ufeffvalue\n\n\n", "\n\n"])
    def test_no_data_is_refused_without_a_warning(self, tmp_path, capsys, text):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ConfigError, match="no observations"):
            cli._read_observations(str(path))
        argv = ["estimate", "--input", str(path), "--p", "1.5", "--out", str(tmp_path / "est")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: no observations\n"

    def test_quoted_multiline_header_is_read_line_by_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text('"x\n1.5\n"\n2.5\n')
        assert cli._load_rows(str(path)) is None
        assert cli._read_observations(str(path)).tolist() == [2.5]

    @staticmethod
    def _outcome(read, path):
        """The float64 bytes read, or the ConfigError message."""
        try:
            return read(path).tobytes()
        except ConfigError as exc:
            return str(exc)

    @staticmethod
    def _reference(path):
        values = cli._read_rows(path)
        if values.size == 0:
            raise ConfigError(f"{path}: no observations")
        return values

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_fast_path_reads_well_formed_files_as_the_line_loop(self, tmp_path_factory, data):
        text = data.draw(_observation_files(well_formed=True))
        path = str(tmp_path_factory.mktemp("obs") / "x.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        fast = cli._load_rows(path)
        assert fast is not None
        assert fast.tobytes() == cli._read_rows(path).tobytes()

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_both_routes_give_one_outcome(self, tmp_path_factory, data):
        text = data.draw(_observation_files(well_formed=False))
        path = str(tmp_path_factory.mktemp("obs") / "x.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        fast = cli._load_rows(path)
        expected = self._outcome(self._reference, path)
        if fast is not None:
            assert fast.tobytes() == cli._read_rows(path).tobytes()
        assert self._outcome(cli._read_observations, path) == expected


_FLOAT_CELLS = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda v: "%.17g" % v),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "NaN", "1e400", "-1e999",
                     "1e-400", "+1.5", ".5", "1.", "0", "-0"]),
)
# cells the C reader refuses and the line loop reads or names, and a number
# longer than csv.field_size_limit(), which only the C reader parses
_AWKWARD_CELLS = st.sampled_from(["1_0", "abc", "0x1p3", '"1,5"', "in f", '1.5"', "0" * 131_072 + "1"])
_EXTRA_COLUMNS = st.sampled_from(["", ",x", ",2.5", ',"a,b"', ",,"])
_LONG_COLUMN = "," + "x" * 131_073


@st.composite
def _observation_files(draw, well_formed: bool):
    """CSV text of observations: the files estimate --input reads."""
    cell = _FLOAT_CELLS if well_formed else st.one_of(_FLOAT_CELLS, _AWKWARD_CELLS)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(
            ["value", "blank"] if well_formed else ["value", "blank", "spaces", "empty_cell"]
        ))
        if kind == "blank":
            rows.append("")
        elif kind == "spaces":
            rows.append(draw(st.sampled_from([" ", "\t ", "  "])))
        elif kind == "empty_cell":
            rows.append(draw(st.sampled_from([",3", '"",3', " ,1"])))
        else:
            text = draw(cell)
            pad = draw(st.sampled_from(["", " ", "\t"]))
            text = pad + text + pad
            if draw(st.booleans()):
                text = '"' + text + '"'
            extra = _EXTRA_COLUMNS if well_formed else st.one_of(_EXTRA_COLUMNS, st.just(_LONG_COLUMN))
            rows.append(text + draw(extra))
    headers = ["", "value", "x,y", '"value"']
    # a quoted header over lines, the second of them numeric
    header = draw(st.sampled_from(headers if well_formed else [*headers, '"x\n1.5\n"']))
    if header:
        rows.insert(0, header)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(rows)
    if rows and draw(st.booleans()):
        text += newline
    return ("\ufeff" if draw(st.booleans()) else "") + text


_PLOT_INTERVALS_CSV = (
    "x_m,replication,method,target,level_lo,level_hi,lower,upper,lower_defined,upper_defined,"
    "reference_value\n"
    "100,0,pstable,alpha,0.05,0.95,0.1,0.9,true,true,0.5\n"
    "100,1,pstable,alpha,0.05,0.95,,0.9,false,true,0.5\n"
    "100,0,clt,alpha,0.05,0.95,0.2,0.8,true,true,0.5\n"
    "100,1,clt,mean,0.05,0.95,1.5,2.5,true,true,2.0\n"
)


def one_panel_mapping(**overrides):
    """A one-panel, one-replication fig6 config: p-stable vs CLT on one draw."""
    return {
        "experiment": "fig6", "seed": 3, "p": 1.2, "total": 100,
        "panels": [{"kind": "pareto_like", "a": 2.0, "x_min": 3.0}],
        "levels": [[0.05, 0.95]], "mu_mode": "full", **overrides,
    }


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

    @pytest.mark.parametrize("mapping", [
        {
            "experiment": "fig1", "seed": 3, "p": 1.2, "mu_mode": "true",
            "distribution": PARETO, "sizes": [100, 1000], "burn_in": 100,
        },
        fig4_mapping(total=300, pilot=100, burn_in=200),
        fig6_mapping(total=100, burn_in=100),
    ], ids=["fig1", "fig4", "fig6"])
    def test_simulate_checks_burn_in_before_output(self, tmp_path, capsys, mapping):
        # burn_in must leave a term of the shortest T_n sequence the study scans
        cfg_path = tmp_path / "cfg.yaml"
        out = tmp_path / "out"
        cfg_path.write_text(yaml.safe_dump(mapping))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "burn_in" in capsys.readouterr().err
        assert not out.exists()
        cfg_path.write_text(yaml.safe_dump(dict(mapping, burn_in=mapping["burn_in"] - 1)))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0

    @pytest.mark.parametrize("law", [
        {"kind": "pareto_like", "a": 0.9, "x_min": 3.0},
        {"kind": "pareto_like", "a": 1.0, "x_min": 3.0, "transform": True},
        {"kind": "stable", "p": 1.0},
        {"kind": "stable", "p": 0.8, "delta": 1.0},
    ], ids=["pareto0.9", "pareto1", "stable1", "stable0.8"])
    @pytest.mark.parametrize("experiment", ["fig1", "fig4"])
    def test_simulate_refuses_mu_mode_true_without_a_mean(
        self, tmp_path, capsys, experiment, law
    ):
        # every law of an interval study needs a mean, under any mu_mode
        if experiment == "fig1":
            mapping = dict(ECDF_MAPPINGS["fig1"], distribution=law)
            named = "fig1 with mu_mode true"
        else:
            mapping = fig4_mapping(mu_mode="true", pilot=None, panels=[law])
            named = "fig4 panel .*"
        with pytest.raises(ConfigError, match=f"{named} needs a law with a mean"):
            parse_config(mapping)
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(mapping))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "needs a law with a mean" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_refuses_bootstrap_resample_mode(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(fig4_mapping(bootstrap={"resample_mode": "pairs"})))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "unknown bootstrap keys: ['resample_mode']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"total": 1, "mu_mode": "full"},
        {"total": 12, "mu_mode": "pilot", "pilot": 11},
    ], ids=["full", "pilot"])
    def test_simulate_fig6_needs_two_observations(self, tmp_path, capsys, overrides):
        # the CLT interval needs two observations beyond the pilot
        mapping = fig6_mapping(burn_in=0, **overrides)
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(mapping))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "fig6 needs 2 observations beyond the pilot, got 1" in capsys.readouterr().err
        assert not out.exists()
        total = mapping["total"] + 1
        assert parse_config(dict(mapping, total=total)).total == total

    @pytest.mark.parametrize("mapping", [
        fig4_mapping(total=12, pilot=11),
        small_mapping("fig5") | {"total": 12, "pilot": 11},
        fig4_mapping(mu_mode="full", pilot=None, total=1),
    ], ids=["fig4-pilot", "fig5-pilot", "fig4-full"])
    def test_simulate_interval_studies_need_two_observations(self, tmp_path, capsys, mapping):
        # one observation beyond the pilot gives a zero-width interval
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(mapping))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{mapping['experiment']} needs 2 observations beyond the pilot, got 1" in err
        assert not out.exists()
        total = mapping["total"] + 1
        assert parse_config(dict(mapping, total=total, burn_in=0)).total == total

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

    @pytest.mark.parametrize("rows, flags", [
        (12, ["--pilot-count", "11"]),
        (1, ["--mu", "2.0"]),
    ], ids=["pilot", "known-mean"])
    def test_estimate_refuses_one_observation(self, tmp_path, capsys, rows, flags):
        # an interval from one observation has lower == upper
        data = tmp_path / "obs.csv"
        data.write_text("\n".join(f"{v}" for v in np.random.default_rng(1).pareto(2.0, rows) + 1.0))
        out = tmp_path / "est"
        argv = ["estimate", "--input", str(data), "--p", "1.5", *flags, "--out", str(out)]
        assert cli.main(argv) == 2
        assert "estimate needs 2 observations beyond the pilot, got 1" in capsys.readouterr().err
        assert not (out / "ci.csv").exists()

    @pytest.mark.parametrize("pilot", ["12", "13"])
    def test_estimate_pilot_counts_give_one_message(self, tmp_path, capsys, pilot):
        # a pilot that leaves none of 12 observations gets the message one
        # that leaves one gets (test_estimate_refuses_one_observation)
        data = tmp_path / "obs.csv"
        data.write_text("\n".join(f"{v}" for v in np.random.default_rng(1).pareto(2.0, 12) + 1.0))
        out = tmp_path / "est"
        argv = ["estimate", "--input", str(data), "--p", "1.5", "--pilot-count", pilot,
                "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: estimate needs 2 observations beyond the pilot, got 0\n"
        assert not out.exists()

    def test_estimate_overflowing_running_sum_exits_3(self, tmp_path, capsys):
        # each increment is finite, their running sum is not: refused before
        # the scan, with no NumPy warning on the way
        data = tmp_path / "obs.csv"
        data.write_text("3e307\n" * 6 + "1\n" * 30)
        argv = ["estimate", "--input", str(data), "--p", "1.5", "--mu", "0",
                "--out", str(tmp_path / "est")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 3
        assert "running sums overflow float64" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("command", ["simulate", "estimate", "abelian", "plot"])
    def test_unusable_out_exits_2_and_names_it(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        (tmp_path / "obs.csv").write_text("\n".join(str(v) for v in range(1, 51)))
        (tmp_path / "e.csv").write_text("t,G\n0.0,0.5\n1.0,1.0\n")
        (tmp_path / "c.yaml").write_text(yaml.safe_dump(small_mapping("fig1")))
        argv = {
            "simulate": ["simulate", "--config", "c.yaml", "--out", "afile"],
            "estimate": ["estimate", "--input", "obs.csv", "--p", "1.5", "--out", "afile"],
            "abelian": ["abelian", "--n-size", "10", "--alpha", "0.5", "--out", "afile"],
            "plot": ["plot", "e.csv", "--kind", "ecdf", "--out", "afile/x.svg"],
        }[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output:") and "afile'" in err
        assert (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize("change", [
        {"experiment": ["fig1"]},
        {5: 1, "zz": 2},
        {"out_dir": 5},
        {"distribution": {"kind": ["x"]}},
        {"distribution": {**PARETO, 5: 1, "zz": 2}},
        {"levels": {"lo": 0.05}},
    ], ids=["experiment-list", "unknown-keys", "out_dir-int", "kind-list",
            "distribution-fields", "levels-mapping"])
    def test_malformed_config_value_exits_2(self, tmp_path, monkeypatch, capsys, change):
        # a value of the wrong type is a configuration error, not a traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.yaml").write_text(
            yaml.safe_dump({**small_mapping("fig1"), "out_dir": "out", **change})
        )
        assert cli.main(["simulate", "--config", "c.yaml"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(tmp_path) == ["c.yaml"]

    def test_abelian_runs_without_scipy(self, tmp_path):
        # a fresh process where `import scipy` fails still tabulates the
        # large-N (log-evaluated) pmf
        code = "import sys; sys.modules['scipy'] = None; from heavytail import cli; sys.exit(cli.main(sys.argv[1:]))"
        args = ["abelian", "--n-size", "100000", "--alpha", "0.99", "--out", str(tmp_path)]
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "abelian.csv").exists()

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
        # p-stable vs CLT on one draw: a one-panel, one-replication fig6 config
        cfg_path = tmp_path / "cmp.yaml"
        cfg_path.write_text(yaml.safe_dump(one_panel_mapping(total=400, panels=[PARETO])))
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "cmp")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pstable" in out and "clt" in out
        with open(tmp_path / "cmp" / "intervals.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 5  # header + 2 methods x 2 targets

    def test_compare_unknown_key_exits_2(self, tmp_path, capsys):
        # the count is total and the pilot count pilot, as in every study
        cfg_path = tmp_path / "cmp.yaml"
        out = tmp_path / "o"
        for key, value in (("n", 100), ("pilot_count", 10)):
            cfg_path.write_text(yaml.safe_dump(one_panel_mapping(**{key: value})))
            assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
            assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("bad", [
        {"y_stable": {"p": 1.5}},
        {"y_stable": [1.0]},
        {"total": 100.5},
        {"panels": [{"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": "no"}]},
        {"bootstrap": {"replicates": 50}},
        {"pilot": 50.5},
        {"pilot": 0},
        # the stable law is symmetric: beta is not one of its fields
        {"panels": [{"kind": "stable", "p": 1.5, "beta": 0.5}]},
        {"methods": "clt"},
        {"methods": []},
        {"methods": ["clt", "bootstrap"]},
        {"p": [1.2]},
        {"p": 0.5, "methods": ["clt"]},
    ])
    def test_compare_rejects_malformed_fields(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "cmp.yaml"
        cfg_path.write_text(yaml.safe_dump(one_panel_mapping(**bad)))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_abelian_csv_bytes_are_pinned(self, tmp_path):
        # 10,000 rows, three CSV_CHUNK_ROWS chunks, recorded before write_csv
        # took columns instead of rows; and 50 rows of the pmf in logs, which
        # evaluates every system size
        for n_size, digest in (
            ("10000", "25470b71e94c63a41676b1707f26376894cb0a7b9dd9a423bf39151ad2d5654d"),
            ("50", "1122b40b919225b3d86000d85be7281ff36dc91e8231d57c112e50024e823c13"),
        ):
            out = tmp_path / n_size
            assert cli.main(["abelian", "--n-size", n_size, "--alpha", "0.9", "--out", str(out)]) == 0
            assert hashlib.sha256((out / "abelian.csv").read_bytes()).hexdigest() == digest, n_size

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

    def test_abelian_size_is_capped_before_allocation(self, tmp_path, capsys):
        out = tmp_path / "abl"
        rc = cli.main([
            "abelian", "--n-size", "100000000", "--alpha", "0.5", "--b-max", "3",
            "--out", str(out),
        ])
        assert rc == 2
        assert "exact-table limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("p", ["3", "0.5"])
    def test_estimate_checks_order_before_reading(self, tmp_path, capsys, p):
        out = tmp_path / "est"
        rc = cli.main([
            "estimate", "--input", str(tmp_path / "missing.csv"), "--p", p, "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --p: ")
        assert "(1, 2]" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flags, named", [
        (["--level-lo", "0.95", "--level-hi", "0.05"], "--level-lo/--level-hi"),
        (["--level-hi", "1.0"], "--level-lo/--level-hi"),
        (["--perms", "0"], "--perms"),
        (["--burn-in", "-1"], "--burn-in"),
        (["--pilot-count", "0"], "--pilot-count"),
        # a generator draws nothing before its count is read
        (["--generator", "pareto_like:a=2,x_min=3", "--count", "1"], "--count"),
        (["--seed", "-1"], "--seed"),
        (["--seed", str(2**64)], "--seed"),
        (["--mu", "nan"], "--mu"),
        (["--mu", "inf"], "--mu"),
    ])
    def test_estimate_checks_flags_before_reading(
        self, tmp_path, monkeypatch, capsys, flags, named
    ):
        monkeypatch.chdir(tmp_path)
        source = [] if "--generator" in flags else ["--input", "missing.csv"]
        rc = cli.main(["estimate", *source, "--p", "1.5", *flags, "--out", "est"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {named}: ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, named", [
        (["abelian", "--n-size", "0", "--alpha", "0.5"], "--n-size"),
        (["abelian", "--n-size", "50", "--alpha", "1.5"], "--alpha"),
        (["simulate", "--config", "missing.yaml", "--workers", "0"], "--workers"),
        (["simulate", "--config", "missing.yaml", "--seed", "-1"], "--seed"),
    ])
    def test_value_flags_name_themselves(self, tmp_path, monkeypatch, capsys, argv, named):
        # refused as "<flag>: <rule>" before the config is read or --out is made
        monkeypatch.chdir(tmp_path)
        assert cli.main([*argv, "--out", "o"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}: ")
        assert os.listdir(tmp_path) == []

    def test_seed_flag_and_config_key_give_one_reason(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "fig5.yaml"
        cfg_path.write_text(yaml.safe_dump({**small_mapping("fig5"), "seed": -1}))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", "o"]) == 2
        config_err = capsys.readouterr().err
        argv = ["estimate", "--input", "missing.csv", "--p", "1.5", "--seed", "-1", "--out", "o"]
        assert cli.main(argv) == 2
        flag_err = capsys.readouterr().err
        assert (config_err.removeprefix("error: config seed: ")
                == flag_err.removeprefix("error: --seed: ")
                == "seed must be a 64-bit unsigned integer, got -1\n")
        assert os.listdir(tmp_path) == ["fig5.yaml"]

    def test_flag_and_config_key_give_one_reason(self, tmp_path, monkeypatch, capsys):
        # --perms reads by the reader of the permutations key
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "fig5.yaml"
        cfg_path.write_text(yaml.safe_dump({**small_mapping("fig5"), "permutations": 0}))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", "o"]) == 2
        config_err = capsys.readouterr().err
        argv = ["estimate", "--input", "missing.csv", "--p", "1.5", "--perms", "0", "--out", "o"]
        assert cli.main(argv) == 2
        flag_err = capsys.readouterr().err
        assert config_err.startswith("error: config permutations: ")
        assert flag_err.startswith("error: --perms: ")
        assert (config_err.removeprefix("error: config permutations: ")
                == flag_err.removeprefix("error: --perms: "))
        assert os.listdir(tmp_path) == ["fig5.yaml"]

    @pytest.mark.parametrize("b_max", ["0", "-5"])
    def test_abelian_rejects_b_max_below_one(self, tmp_path, capsys, b_max):
        out = tmp_path / "abl"
        rc = cli.main([
            "abelian", "--n-size", "50", "--alpha", "0.5", "--b-max", b_max, "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --b-max: ")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_simulate_rejects_workers_below_one(self, tmp_path, capsys, workers):
        cfg_path = tmp_path / "fig1.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "experiment": "fig1", "seed": 3, "p": 1.2, "mu_mode": "true",
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0, "transform": True},
            "sizes": [100, 200],
        }))
        out = tmp_path / "out"
        rc = cli.main([
            "simulate", "--config", str(cfg_path), "--out", str(out), "--workers", workers,
        ])
        assert rc == 2
        assert "worker count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--count", "100"], ["--mu", "2.0", "--pilot-count", "10"]])
    def test_estimate_rejects_flags_that_would_be_ignored(self, tmp_path, capsys, extra):
        data = tmp_path / "obs.csv"
        data.write_text("\n".join(f"{v}" for v in np.random.default_rng(1).pareto(2.0, 100) + 1.0))
        out = tmp_path / "est"
        rc = cli.main(["estimate", "--input", str(data), *extra, "--p", "1.5", "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed_args", [
        {"config_seed": -3, "flags": []},
        {"config_seed": 3, "flags": ["--seed", "-1"]},
    ])
    def test_simulate_rejects_bad_seed_before_output(self, tmp_path, capsys, seed_args):
        cfg_path = tmp_path / "fig1.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "experiment": "fig1", "seed": seed_args["config_seed"], "p": 1.2, "mu_mode": "true",
            "distribution": {"kind": "pareto_like", "a": 2.0, "x_min": 3.0},
            "sizes": [100],
        }))
        out = tmp_path / "out"
        rc = cli.main([
            "simulate", "--config", str(cfg_path), "--out", str(out), *seed_args["flags"],
        ])
        assert rc == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--input", "../obs.csv", "--p", "1.5", "--pilot-fraction", "0.2",
         "--out", "est"],
        ["abelian", "--n-size", "50", "--p-raw", "1e-4", "--out", "abl"],
        ["stirling-check", "--degree4-i", "8"],
        ["abelian", "--n-size", "50", "--alpha", "0.5", "--seed", "1", "--out", "abl"],
        # a comparison is a one-panel fig6 config run by simulate
        ["compare", "--config", "../obs.csv", "--out", "cmp"],
    ])
    def test_removed_flags_are_refused(self, tmp_path, monkeypatch, capsys, argv):
        (tmp_path / "obs.csv").write_text("\n".join(str(v) for v in range(1, 101)))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert os.listdir(work) == []

    def test_option_surface_is_pinned(self):
        # A new flag or config key must be added here on purpose.
        (commands,) = [
            a.choices for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        surface = {
            name: sorted(
                s for a in sub._actions if not isinstance(a, argparse._HelpAction)
                for s in a.option_strings
            )
            for name, sub in commands.items()
        }
        assert surface == {
            "simulate": ["--config", "--out", "--seed", "--workers"],
            "estimate": [
                "--burn-in", "--count", "--generator", "--input", "--level-hi", "--level-lo",
                "--mu", "--out", "--p", "--perms", "--pilot-count", "--seed",
            ],
            "abelian": ["--alpha", "--b-max", "--n-size", "--out"],
            "stirling-check": [],
            "plot": ["--kind", "--labels", "--out", "--target", "--title"],
        }
        assert sorted(_DEFAULTS) == [
            "bootstrap", "burn_in", "distribution", "experiment", "levels", "mu_mode",
            "out_dir", "p", "panels", "permutations", "pilot", "replications", "seed",
            "sizes", "total",
        ]
        # what each study needs and what else it reads; a pilot comes out of
        # total where a study needs total
        assert {
            exp: (study.needs, study.reads) for exp, study in experiments.STUDIES.items()
        } == {
            "fig1": (("distribution", "sizes"), ("burn_in",)),
            "fig2": (("distribution", "sizes", "bootstrap"), ()),
            "fig3": (("distribution", "sizes", "bootstrap"), ()),
            "fig4": (
                ("panels", "total", "levels", "bootstrap"),
                ("burn_in", "permutations", "replications"),
            ),
            "fig5": (
                ("panels", "total", "levels", "bootstrap"),
                ("burn_in", "permutations", "replications"),
            ),
            "fig6": (
                ("panels", "total", "levels"),
                ("burn_in", "permutations", "replications"),
            ),
        }
        # the bootstrap mapping, as parsed and as echoed
        assert config_to_mapping(parse_config(fig4_mapping()))["bootstrap"] == {"replicates": 50}

    def test_stirling_check_command(self, capsys):
        rc = cli.main(["stirling-check"])
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

    @pytest.mark.parametrize("kind, csv_text, extra", [
        ("ecdf", "t,G\n0.0,0.5\n1.0,1.0\n", ["--target", "beta"]),
        ("intervals", _PLOT_INTERVALS_CSV, ["--labels", "a,b"]),
    ], ids=["ecdf-target", "intervals-labels"])
    def test_plot_refuses_flags_of_the_other_kind(self, tmp_path, capsys, kind, csv_text, extra):
        csv_path = tmp_path / "in.csv"
        csv_path.write_text(csv_text)
        svg_path = tmp_path / "fig.svg"
        rc = cli.main(["plot", str(csv_path), "--kind", kind, "--out", str(svg_path), *extra])
        assert rc == 2
        assert extra[0] in capsys.readouterr().err
        assert not svg_path.exists()

    @pytest.mark.parametrize("extra", [[], ["--target", "alpha"]])
    def test_interval_plot_target_defaults_to_alpha(self, tmp_path, capsys, extra):
        csv_path = tmp_path / "iv.csv"
        csv_path.write_text(_PLOT_INTERVALS_CSV)
        svg_path = tmp_path / "fig.svg"
        rc = cli.main(["plot", str(csv_path), "--kind", "intervals", "--out", str(svg_path), *extra])
        assert rc == 0
        # recorded when the panel caption lost its "cutoff " prefix, the one
        # change since --target lost its "alpha" default
        assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == (
            "42d161a7ee176b5d1898d7070e40e08d4b3f9abc509a40d40ca1619ceaea2586"
        )

    def test_plot_bad_csv_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "e.csv"
        csv_path.write_text("wrong,header\n0.0,0.5\n")
        rc = cli.main(["plot", str(csv_path), "--kind", "ecdf", "--out", str(tmp_path / "f.svg")])
        assert rc == 2

    def test_interval_plot_takes_one_file(self, tmp_path, capsys):
        paths = []
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text(_PLOT_INTERVALS_CSV)
            paths.append(str(tmp_path / name))
        svg_path = tmp_path / "fig.svg"
        rc = cli.main(["plot", *paths, "--kind", "intervals", "--out", str(svg_path)])
        assert rc == 2
        assert "interval plots take exactly one csv file" in capsys.readouterr().err
        assert not svg_path.exists()

    @pytest.mark.parametrize("kind, rows", [
        ("intervals", ["0,pstable,alpha,0.05,0.95,inf,0.9,true,true,0.5"]),
        ("intervals", ["0,pstable,alpha,0.05,0.95,0.1,0.9,true,true,inf"]),
        ("intervals", ["0,pstable,alpha,0.05,0.95,-1e308,1e308,true,true,0.5",
                       "1,pstable,alpha,0.05,0.95,-1e308,1e308,true,true,0.5"]),
        ("intervals", ["0,pstable,alpha,0.05,0.95,nan,0.9,true,true,0.5"]),
        ("intervals", ["0,pstable,alpha,0.05,0.95,0.9,0.1,true,true,0.5"]),
        ("ecdf", ["-1.7e308,0.5", "1.7e308,1.0"]),
    ], ids=["lower-inf", "reference-inf", "axis-overflow", "lower-nan", "lower-above-upper",
            "ecdf-axis-overflow"])
    def test_plot_refuses_data_it_cannot_draw(self, tmp_path, capsys, kind, rows):
        header = "t,G" if kind == "ecdf" else INTERVAL_HEADER_TEXT[len("x_m,"):]
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
        svg_path = tmp_path / "fig.svg"
        rc = cli.main(["plot", str(csv_path), "--kind", kind, "--out", str(svg_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(csv_path) in err
        assert "Traceback" not in err
        assert not svg_path.exists()

    @pytest.mark.parametrize("experiment", ["fig1", "fig4", "fig6"])
    def test_plot_regenerates_each_study_figure(self, tmp_path, capsys, experiment):
        # simulate and plot draw a figure through the same renderer
        cfg, report = run_with(small_mapping(experiment), tmp_path, experiment)
        out = cfg.out_dir
        if experiment == "fig1":
            argv = [*(os.path.join(out, f"ecdf_{s}.csv") for s in cfg.sizes), "--kind", "ecdf",
                    "--labels", ",".join(f"N={s}" for s in cfg.sizes),
                    "--title", "fig1: empirical distributions of the resampled statistic"]
        elif experiment == "fig4":
            ecdf_path = os.path.join(out, "ecdf.csv")
            with open(ecdf_path, encoding="utf-8") as fh:
                n_tn = cfg.burn_in + sum(1 for _ in fh) - 1
            argv = [ecdf_path, "--kind", "ecdf", "--labels", f"N={n_tn}",
                    "--title", "fig4: replication-0 logarithmic empirical distribution"]
        else:
            argv = [os.path.join(out, "intervals.csv"), "--kind", "intervals",
                    "--title", "fig6: criticality intervals by method and panel"]
        svg_path = tmp_path / "replot.svg"
        assert cli.main(["plot", *argv, "--out", str(svg_path)]) == 0
        with open(os.path.join(out, f"{experiment}.svg"), "rb") as fh:
            assert svg_path.read_bytes() == fh.read()

    @pytest.mark.parametrize("experiment", ["fig4", "fig5", "fig6"])
    def test_interval_plot_reads_every_interval_study(self, tmp_path, capsys, experiment):
        # every interval study writes one intervals.csv layout, so plot draws
        # the mean intervals of each, one panel per law
        cfg, _ = run_with(small_mapping(experiment), tmp_path, experiment)
        svg_path = tmp_path / "mean.svg"
        argv = ["plot", os.path.join(cfg.out_dir, "intervals.csv"), "--kind", "intervals",
                "--target", "mean", "--out", str(svg_path)]
        assert cli.main(argv) == 0
        doc = svg_path.read_text(encoding="utf-8")
        for law in cfg.panels:
            assert f">{experiments._panel_label(law)}</text>" in doc
        # in a panel, each interval of a replication (a method at a level
        # pair) has its own x position, fig5's two pairs too; a segment is a
        # vertical line
        xs = re.findall(
            r'<line x1="([-\d.]+)" y1="[-\d.]+" x2="\1" y2="[-\d.]+" stroke="#[0-9a-f]{6}" '
            r'stroke-width="1.3"/>', doc,
        )
        per_panel = cfg.replications * len(cfg.levels) * 2  # methods
        assert len(xs) == len(cfg.panels) * per_panel
        assert len(set(xs)) == per_panel

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

    def test_float64_overflow_in_the_data_exits_3(self, tmp_path):
        # finite data whose increments overflow: refused before any scan, so
        # one error line, no NumPy warning and no output
        data = tmp_path / "huge.csv"
        data.write_text("1e308\n" * 6 + "1\n" * 30)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "heavytail.cli", "estimate", "--input", str(data),
             "--p", "1.5", "--mu", "0", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "error: numerical instability: increment (x − μ̂)·y is inf at position 1, "
            "not finite; interval undefined"
        ]
        assert not out.exists()

    def test_unexpected_package_error_maps_to_exit_1(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise HeavytailError("forced")

        monkeypatch.setattr(cli, "pstable_estimate", boom)
        rc = cli.main([
            "estimate", "--generator", "pareto_like:a=2,x_min=3,transform=true",
            "--count", "100", "--p", "1.2", "--out", str(tmp_path),
        ])
        assert rc == 1


def _reference_cell(v) -> str:
    """The CSV cell rule, written out apart from the code under test."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _reference_csv(path, header, rows):
    """One csv.writer row per input row, every cell through _reference_cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_reference_cell(v) for v in row])


_EDGE_FLOATS = [
    -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308 / 3,
    0.1 + 0.2, -1e300, 123456789.0,
]
_LONG = 2 * CSV_CHUNK_ROWS + 7  # three chunks, the last one short


class TestWriteCsv:
    # write_csv must give the bytes of the plain writer _reference_csv, on
    # number columns and on the columns of rows of cells; no case needs csv
    # quoting, which write_csv never does
    COLUMN_CASES = {
        "float_edges": (
            ["x", "y"],
            [np.repeat(_EDGE_FLOATS, len(_EDGE_FLOATS)), np.tile(_EDGE_FLOATS, len(_EDGE_FLOATS))],
        ),
        "int_and_float": (["n", "t"], [range(-3, len(_EDGE_FLOATS) - 3), np.array(_EDGE_FLOATS)]),
        "big_ints": (["n", "t"], [range(2**70, 2**70 + 3), np.array([1.5, -0.0, 2.0])]),
        "int64_edges": (
            ["n", "m"], [range(2**63 - 2, 2**63 + 1), range(-(2**63) + 1, -(2**63) - 2, -1)],
        ),
        "single_float_column": (["t"], [np.array(_EDGE_FLOATS)]),
        "single_int_column": (["n"], [range(-5, 6)]),
        "one_row": (["n", "t"], [range(1, 2), np.array([0.1 + 0.2])]),
        "one_chunk": (
            ["n", "t"], [range(1, CSV_CHUNK_ROWS + 1), np.arange(CSV_CHUNK_ROWS) / -7.0],
        ),
        "no_rows": (["a", "b"], [range(0), np.array([])]),
        "long_numeric": (
            ["n", "t", "G"],
            [range(1, _LONG + 1), np.arange(_LONG) * 1e-3, 1.0 / np.arange(1, _LONG + 1)],
        ),
    }
    ROW_CASES = {
        "float_edges_in_rows": [{"x": v, "y": -v} for v in _EDGE_FLOATS],
        "numpy_scalars": [
            {"f": np.float64(0.1 + 0.2), "i": np.int64(-4), "b": np.bool_(True)},
            {"f": np.float64(-0.0), "i": np.int64(2**40), "b": np.bool_(False)},
        ],
        "bools_are_not_ints": [{"a": True, "b": 1}, {"a": False, "b": 0}],
        "none_cells": [{"a": None, "b": 1.0}, {"a": 2.0, "b": None}, {"a": None, "b": None}],
        "text_cells": [
            {"x_m": "kind=pareto_like a=2.0", "v": 1.0}, {"x_m": "", "v": -0.0},
            {"x_m": "pstable", "v": None},
        ],
        "mixed_types_in_column": [{"a": 1}, {"a": 1.0}, {"a": 2}],
    }

    @pytest.mark.parametrize("case", sorted(COLUMN_CASES | ROW_CASES))
    def test_same_bytes_as_reference(self, tmp_path, case):
        new = tmp_path / "new.csv"
        if case in self.COLUMN_CASES:
            header, columns = self.COLUMN_CASES[case]
            rows = list(zip(*columns))
            write_csv(str(new), header, columns)
        else:
            dict_rows = self.ROW_CASES[case]
            header, rows = list(dict_rows[0]), [list(row.values()) for row in dict_rows]
            write_csv(str(new), header, [list(column) for column in zip(*rows)])
        _reference_csv(tmp_path / "ref.csv", header, rows)
        assert new.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_generator_columns_are_consumed_once(self, tmp_path):
        yielded = []

        def columns():
            for column in (range(1, _LONG + 1), np.arange(_LONG) / 3):
                yielded.append(len(column))
                yield column

        gen = columns()
        write_csv(str(tmp_path / "g.csv"), ["n", "t"], gen)
        assert yielded == [_LONG, _LONG]
        assert next(gen, None) is None
        _reference_csv(tmp_path / "ref.csv", ["n", "t"], ((i + 1, i / 3) for i in range(_LONG)))
        assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_columns_of_different_lengths_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            write_csv(str(tmp_path / "d.csv"), ["n", "t"], [range(3), np.zeros(2)])

    def test_cell_formatting(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(str(path), ["a", "b", "c", "d"], [[None], [True], [3], [0.1]])
        text = path.read_text()
        assert text == "a,b,c,d\n,true,3,0.1\n"

    def test_float_repr_is_lossless(self, tmp_path):
        path = tmp_path / "f.csv"
        v = 0.1 + 0.2  # not representable as a short decimal
        write_csv(str(path), ["x"], [np.array([v])])
        back = float(path.read_text().splitlines()[1])
        assert back == v


class TestWriteTnEcdfCsv:
    # tn.csv and ecdf.csv share one formatting of each T_n; each file keeps
    # the bytes of write_csv over the float arrays
    @staticmethod
    def _crafted_tn(burn_in):
        """Ties, -0.0 beside 0.0 and a NaN, over more than two CSV_CHUNK_ROWS chunks."""
        g = np.random.default_rng(11)
        n = burn_in + 2 * CSV_CHUNK_ROWS + 9
        tn = g.standard_cauchy(n)
        tn[g.integers(0, n, n // 3)] = g.choice([-0.0, 0.0, 1.5, -2.25, 0.1 + 0.2, math.inf], n // 3)
        tn[[0, 1, -2, -1]] = [0.0, -0.0, math.nan, -0.0]
        return tn

    @pytest.mark.parametrize("burn_in", [0, 1, 5, CSV_CHUNK_ROWS + 3])
    def test_ecdf_t_cells_are_the_tn_cells_in_stable_order(self, tmp_path, burn_in):
        tn = self._crafted_tn(burn_in)
        ecdf = build_log_ecdf(tn, burn_in)
        order = np.argsort(tn[burn_in:], kind="stable")
        experiments.write_tn_ecdf_csv(
            str(tmp_path / "tn.csv"), str(tmp_path / "ecdf.csv"), tn, ecdf, burn_in + order
        )
        ecdf_lines = (tmp_path / "ecdf.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in ecdf_lines] == list(map(repr, tn[burn_in:][order].tolist()))

        write_csv(str(tmp_path / "tn_ref.csv"), ["n", "t_n"], [range(1, tn.size + 1), tn])
        experiments.write_ecdf_csv(str(tmp_path / "ecdf_ref.csv"), ecdf)
        for name in ("tn", "ecdf"):
            assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes()
