"""Configuration-driven reproduction of the simulation studies.

Each experiment id (fig1..fig6) names one protocol; a YAML config supplies
its parameters. Replications derive per-index substreams from the base
seed, so results are byte-identical regardless of worker count, and every
run writes a lossless config echo alongside its CSV/SVG artifacts.
Wall-clock time lives only in report.json; CSVs stay byte-stable.
"""

from __future__ import annotations

import csv
import os
import time
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import cached_property, partial

import numpy as np

# yaml, plotting and the thread pool are imported where they are used:
# estimate loads this module and needs none of them.
from .baselines import MU_MODES, BootstrapConfig, bootstrap_ecdf, clt_ci, draw_sample
from .errors import ConfigError, ParameterError
from .estimator import (
    _check_levels,
    _check_p,
    alpha_from_mean,
    build_log_ecdf,
    ci_alpha,
    compute_tn,
    ecdf_sup_distance,
    pstable_estimate,
    quantile_interval,
)
from .rng import (
    STREAM_BOOT,
    STREAM_PERM,
    RandomSource,
    as_int,
    build_distribution,
    distribution_mean,
    distribution_to_mapping,
    read_fields,
)

# First substream path component: replication-local vs run-global streams
# never share a prefix.
ROLE_REPLICATION = 0
ROLE_GLOBAL = 1

# The keys every study reads. A study refuses a value it would ignore: any
# key outside these and its STUDIES row must hold its default (the config
# echo writes every default).
_SHARED_KEYS = ("experiment", "seed", "p", "out_dir", "mu_mode", "pilot")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    p: float
    out_dir: str | None = None
    distribution: object | None = None
    sizes: tuple[int, ...] | None = None
    total: int | None = None
    pilot: int | None = None
    mu_mode: str = "pilot"  # one of MU_MODES
    levels: tuple[float, float] | None = None
    levels_extra: tuple[float, float] | None = None
    burn_in: int = 0
    permutations: int = 1
    permute_pairs: bool = False
    bootstrap: BootstrapConfig | None = None
    replications: int = 1
    panels: tuple | None = None  # fig6: one distribution params object per panel


_DEFAULTS = {
    f.name: None if f.default is MISSING else f.default for f in fields(ExperimentConfig)
}


def _read_levels(value) -> tuple[float, float]:
    """A (lo, hi) pair of quantile levels, 0 < lo < hi < 1."""
    try:
        return _check_levels(value)
    except (TypeError, ValueError, LookupError) as exc:
        raise ValueError(f"must be a pair 0 < lo < hi < 1, got {value!r}") from exc


def parse_levels(value, name: str) -> tuple[float, float]:
    """_read_levels of a flag pair; a bad pair is a ConfigError naming name."""
    try:
        return _read_levels(value)
    except ValueError as exc:
        raise ConfigError(f"{name} {exc}") from exc


def parse_order(value) -> float:
    """The stability order p of the multipliers, which must lie in (1, 2]."""
    try:
        return _check_p(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"p: {exc}") from exc


def _read_experiment(value) -> str:
    if not isinstance(value, str) or value not in STUDIES:
        raise ValueError(f"must be one of {tuple(STUDIES)}, got {value!r}")
    return value


def _read_string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def _as_count(value, minimum: int = 1) -> int:
    """A whole number of at least minimum."""
    count = as_int(value)
    if count < minimum:
        raise ValueError(f"must be >= {minimum}, got {count}")
    return count


def _read_sizes(value) -> tuple[int, ...]:
    """fig1–fig3's sample sizes, ascending, each positive and no two alike."""
    sizes = tuple(sorted(_as_count(size) for size in value))
    if not sizes:
        raise ValueError("must list at least one size")
    repeated = sorted({size for size in sizes if sizes.count(size) > 1})
    if repeated:
        raise ConfigError(f"sizes repeat {repeated}")
    return sizes


def _read_mu_mode(value) -> str:
    """One of MU_MODES; YAML reads a bare `true` as a boolean."""
    mu_mode = "true" if value is True else str(value)
    if mu_mode not in MU_MODES:
        raise ValueError(f"must be one of {MU_MODES}, got {mu_mode!r}")
    return mu_mode


def _law_mean(distribution, purpose: str) -> float:
    """The law's mean; a law without one is a ConfigError naming purpose."""
    try:
        return distribution_mean(distribution)
    except ParameterError as exc:
        raise ConfigError(f"{purpose} needs a law with a mean: {exc}") from exc


def _panel_label(distribution) -> str:
    """A fig6 panel's name in intervals.csv, the summary and the plot:
    its distribution mapping as key=value pairs."""
    return " ".join(f"{k}={v}" for k, v in distribution_to_mapping(distribution).items())


def _read_panels(value) -> tuple:
    """fig6's laws from a list of distribution mappings, no two alike."""
    if not isinstance(value, list):
        raise TypeError(f"must be a list of distribution mappings, got {value!r}")
    panels = tuple(build_distribution(spec) for spec in value)
    repeated = sorted({_panel_label(law) for law in panels if panels.count(law) > 1})
    if repeated:
        raise ConfigError(f"panels repeat {repeated}")
    return panels


def estimation_count(purpose: str, count: int, mu_mode: str, pilot) -> int:
    """The observations of count left once a pilot segment is taken out in
    mu_mode pilot; an interval needs at least two of them."""
    left = count - (pilot if mu_mode == "pilot" else 0)
    if left < 2:
        raise ConfigError(f"{purpose} needs 2 observations beyond the pilot, got {max(left, 0)}")
    return left


# The reader of each ExperimentConfig field; seed and permute_pairs are read
# by their annotated types.
_READERS = {
    "experiment": _read_experiment,
    "p": _check_p,
    "out_dir": _read_string,
    "distribution": build_distribution,
    "sizes": _read_sizes,
    "total": _as_count,
    "pilot": _as_count,
    "mu_mode": _read_mu_mode,
    "levels": _read_levels,
    "levels_extra": _read_levels,
    "burn_in": partial(_as_count, minimum=0),
    "permutations": _as_count,
    "bootstrap": lambda value: read_fields(BootstrapConfig, value, "bootstrap"),
    "replications": _as_count,
    "panels": _read_panels,
}


def parse_config(mapping: dict) -> ExperimentConfig:
    """Validate a raw config mapping; every violation is a ConfigError."""
    cfg = read_fields(ExperimentConfig, mapping, "config", _READERS)
    _validate_per_experiment(cfg)
    return cfg


def _validate_per_experiment(cfg: ExperimentConfig) -> None:
    exp = cfg.experiment
    study = STUDIES[exp]
    ignored = [
        name for name, default in _DEFAULTS.items()
        if name not in _SHARED_KEYS + study.needs + study.reads and getattr(cfg, name) != default
    ]
    if ignored:
        raise ConfigError(f"{exp} does not use {', '.join(ignored)}")
    missing = [name for name in study.needs if getattr(cfg, name) in (None, ())]
    if missing:
        raise ConfigError(f"{exp} needs {', '.join(missing)}")
    if cfg.levels_extra is not None and cfg.levels_extra == cfg.levels:
        raise ConfigError(f"{exp} levels_extra repeats levels {list(cfg.levels)}")
    if cfg.mu_mode == "pilot" and not cfg.pilot:
        raise ConfigError(f"{exp} with mu_mode pilot needs a pilot count")
    if cfg.mu_mode == "true" and cfg.distribution is not None:
        _law_mean(cfg.distribution, f"{exp} with mu_mode true")
    # each panel's reference is its law's mean and the α = 1 - 1/mean of it
    for law in cfg.panels or ():
        label = _panel_label(law)
        if _law_mean(law, f"{exp} panel {label}") <= 0.0:
            raise ConfigError(f"{exp} panel {label} needs a positive mean for its α reference")
    # the shortest T_n sequence the study scans must keep a term after burn_in;
    # fig2/fig3 scan none, and their burn_in holds its default 0. A pilot
    # comes out of total where a study needs one, else on top of sizes.
    if "total" in study.needs:
        shortest = estimation_count(exp, cfg.total, cfg.mu_mode, cfg.pilot)
    else:
        shortest = min(cfg.sizes)
    if cfg.burn_in >= shortest:
        raise ConfigError(f"burn_in must be below {shortest}, the shortest {exp} sequence")


def _echo(value):
    """A parsed config value as the YAML its config spells it in."""
    if isinstance(value, tuple):
        return [_echo(item) for item in value]
    if isinstance(value, BootstrapConfig):
        return asdict(value)
    return distribution_to_mapping(value) if is_dataclass(value) else value


def config_to_mapping(cfg: ExperimentConfig) -> dict:
    """Lossless echo: parse_config(config_to_mapping(cfg)) == cfg."""
    return {
        f.name: _echo(getattr(cfg, f.name)) for f in fields(cfg) if getattr(cfg, f.name) is not None
    }


def load_config(path: str) -> ExperimentConfig:
    """parse_config of a YAML file; an unreadable file is a ConfigError."""
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return parse_config(raw)


@dataclass
class RunReport:
    experiment: str
    config_echo: dict
    files: list[str]
    summary: dict
    per_replication: list[dict]
    wall_clock_s: float


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# Rows formatted per write call in write_csv: few enough that a chunk's text
# stays a few hundred kilobytes.
CSV_CHUNK_ROWS = 4096


class FormattedFloats:
    """A float column that write_csv formats once and can write in other orders.

    The first write formats every value (its repr, CSV_CHUNK_ROWS at a
    time) into one string of newline-terminated cells: cell i starts at
    offsets[i] and its newline sits at offsets[i + 1] - 1. taken(index)
    gives those cells in the order of index without formatting them again.
    One string and its int64 offsets cost a few bytes per cell, where a
    list of str objects would cost about 60.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self.index = None  # every cell, in order
        self._source = self

    def taken(self, index: np.ndarray) -> FormattedFloats:
        """The cells of values at index, in that order, from the same text."""
        view = FormattedFloats(self.values)
        view.index, view._source = index, self._source
        return view

    def __len__(self) -> int:
        return len(self.values) if self.index is None else len(self.index)

    @cached_property
    def _formatted(self) -> tuple[str, np.ndarray]:
        pieces, ends, start = [], [np.zeros(1, dtype=np.int64)], 0
        for s in range(0, len(self.values), CSV_CHUNK_ROWS):
            piece = "\n".join(map(repr, self.values[s:s + CSV_CHUNK_ROWS].tolist())) + "\n"
            # a float's repr is ASCII, so byte positions are str positions
            newlines = np.flatnonzero(np.frombuffer(piece.encode("ascii"), dtype=np.uint8) == 10)
            ends.append(start + 1 + newlines)
            pieces.append(piece)
            start += len(piece)
        return "".join(pieces), np.concatenate(ends)

    def cells(self, s: int, e: int) -> list[str]:
        text, offsets = self._source._formatted
        if self.index is None:
            return text[offsets[s]:offsets[min(e, len(self))] - 1].split("\n")
        rows = self.index[s:e]
        starts, ends = offsets[rows].tolist(), (offsets[rows + 1] - 1).tolist()
        return [text[a:b] for a, b in zip(starts, ends)]


def write_csv(path: str, header, columns) -> None:
    """Write header and one line per index of the columns, CSV_CHUNK_ROWS at a time.

    Every column has one length and is a range of ints, a float64 array or
    a FormattedFloats; its cells are str(int) and repr(float), the text
    _fmt_cell gives them, which csv.writer never quotes.
    """
    columns = list(columns)
    if len({len(col) for col in columns}) > 1:
        raise ValueError(f"write_csv: columns differ in length for {path}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for s in range(0, len(columns[0]) if columns else 0, CSV_CHUNK_ROWS):
            e = s + CSV_CHUNK_ROWS
            cells = [
                list(map(str, col[s:e])) if isinstance(col, range)
                else col.cells(s, e) if isinstance(col, FormattedFloats)
                else list(map(repr, col[s:e].tolist()))
                for col in columns
            ]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_ecdf_csv(path: str, ecdf) -> None:
    write_csv(path, ["t", "G"], [ecdf.points, ecdf.cum_weights])


def write_tn_ecdf_csv(tn_path: str, ecdf_path: str, tn: np.ndarray, ecdf, ecdf_index) -> None:
    """tn.csv (n, t_n) and ecdf.csv (t, G) of one sequence, each T_n formatted once.

    ecdf's points are tn[ecdf_index] (PstableEstimate.ecdf_index), so its
    t cells are tn.csv's cells taken in that order.
    """
    cells = FormattedFloats(tn)
    write_csv(tn_path, ["n", "t_n"], [range(1, tn.size + 1), cells])
    write_csv(ecdf_path, ["t", "G"], [cells.taken(ecdf_index), ecdf.cum_weights])


def write_rows_csv(path: str, rows: list[dict]) -> str:
    """One line per row dict, under the first row's keys, cells through _fmt_cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(rows[0]))
        writer.writerows([_fmt_cell(v) for v in row.values()] for row in rows)
    return path


def _write_svg(path: str, render, *args) -> str:
    """Write the SVG document render(*args) to path; nothing is written if it fails."""
    document = render(*args)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
    return path


def _run_tasks(tasks: list, workers: int) -> list:
    """[task() for task in tasks], in list order; when workers > 1, on a pool
    of that many threads, which start the tasks in list order."""
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda task: task(), tasks))
    return [task() for task in tasks]


def _run_ecdf_study(cfg: ExperimentConfig, src: RandomSource, outdir: str, workers: int):
    """fig1 (logarithmic ecdfs) and fig2/fig3 (bootstrap ecdfs) at several sizes."""
    sizes = cfg.sizes
    need = max(sizes) + (cfg.pilot if cfg.mu_mode == "pilot" else 0)
    mu_hat, x_est, y = draw_sample(
        cfg.distribution, src.substream(ROLE_GLOBAL), need, cfg.mu_mode, cfg.pilot, cfg.p
    )

    files = []
    ecdfs = []
    if cfg.experiment == "fig1":
        tn_full = compute_tn(x_est, y, mu_hat, cfg.p)
        for s in sizes:
            ecdfs.append(build_log_ecdf(tn_full[:s], cfg.burn_in))
    else:
        for k, s in enumerate(sizes):
            ecdfs.append(
                bootstrap_ecdf(
                    x_est[:s], y[:s], mu_hat, cfg.p, cfg.bootstrap,
                    src.substream(ROLE_GLOBAL, STREAM_BOOT, k),
                )
            )
    for s, ecdf in zip(sizes, ecdfs):
        path = os.path.join(outdir, f"ecdf_{s}.csv")
        write_ecdf_csv(path, ecdf)
        files.append(path)

    distances = {}
    for (s1, e1), (s2, e2) in zip(list(zip(sizes, ecdfs))[:-1], list(zip(sizes, ecdfs))[1:]):
        distances[f"{s1}-{s2}"] = ecdf_sup_distance(e1, e2)

    from . import plotting

    files.append(_write_svg(
        os.path.join(outdir, f"{cfg.experiment}.svg"), plotting.ecdf_svg, files,
        [f"N={s}" for s in sizes],
        f"{cfg.experiment}: empirical distributions of the resampled statistic",
    ))

    summary = {
        "mu_hat": mu_hat,
        "consecutive_sup_distance": distances,
        "sizes": list(sizes),
    }
    return files, summary, []


def _interval_row(rep, method, ci, true_mean):
    covered = ci.contains(true_mean) if true_mean is not None else None
    return {
        "replication": rep,
        "method": method,
        "target": ci.target,
        "level_lo": ci.level_lo,
        "level_hi": ci.level_hi,
        **ci.bound_columns(),
        "covers_true_mean": covered,
    }


def _run_interval_study(cfg: ExperimentConfig, base: RandomSource, outdir: str, workers: int):
    """fig4/fig5: replicated p-stable vs bootstrap intervals for the mean."""
    try:
        true_mean = distribution_mean(cfg.distribution)
    except ValueError:
        true_mean = None
    level_pairs = [cfg.levels] + ([cfg.levels_extra] if cfg.levels_extra else [])

    def one_rep(rep: int):
        rsrc = base.substream(ROLE_REPLICATION, rep)
        mu_hat, x_est, y = draw_sample(
            cfg.distribution, rsrc, cfg.total, cfg.mu_mode, cfg.pilot, cfg.p
        )
        rows = []
        boot = bootstrap_ecdf(
            x_est, y, mu_hat, cfg.p, cfg.bootstrap, rsrc.substream(STREAM_BOOT)
        )
        estimates = pstable_estimate(
            x_est, y, mu_hat, cfg.p, level_pairs,
            burn_in=cfg.burn_in,
            n_perms=cfg.permutations,
            src=rsrc.substream(STREAM_PERM, 0),
            permute_pairs=cfg.permute_pairs,
        )
        for pair, est in zip(level_pairs, estimates):
            rows.append(_interval_row(rep, "pstable", est.ci_mu, true_mean))
            boot_ci = quantile_interval(
                x_est, y, boot.quantile(pair[0]), boot.quantile(pair[1]), cfg.p, pair
            )
            rows.append(_interval_row(rep, "bootstrap", boot_ci, true_mean))
        return rows, estimates[0]

    results = _run_tasks([partial(one_rep, rep) for rep in range(cfg.replications)], workers)

    rows = [row for rep_rows, _ in results for row in rep_rows]
    rep0 = results[0][1]
    ecdf_path = os.path.join(outdir, "ecdf.csv")
    write_ecdf_csv(ecdf_path, rep0.ecdf)
    files = [write_rows_csv(os.path.join(outdir, "intervals.csv"), rows), ecdf_path]

    summary = {"true_mean": true_mean, "methods": {}}
    for method in ("pstable", "bootstrap"):
        for pair in level_pairs:
            sel = [
                r for r in rows
                if r["method"] == method and r["level_lo"] == pair[0] and r["level_hi"] == pair[1]
            ]
            widths = sorted(
                r["upper"] - r["lower"] for r in sel if r["lower"] is not None and r["upper"] is not None
            )
            med = widths[len(widths) // 2] if widths else None
            covered = [r["covers_true_mean"] for r in sel if r["covers_true_mean"] is not None]
            summary["methods"][f"{method}@{pair[0]}-{pair[1]}"] = {
                "coverage": (sum(covered) / len(covered)) if covered else None,
                "median_width": med,
                "replications": len(sel),
            }

    from . import plotting

    files.append(_write_svg(
        os.path.join(outdir, f"{cfg.experiment}.svg"), plotting.ecdf_svg, [ecdf_path],
        [f"N={rep0.tn.size}"],  # the estimation segment's size
        f"{cfg.experiment}: replication-0 logarithmic empirical distribution",
    ))
    return files, summary, rows


def _run_panel_study(cfg: ExperimentConfig, base: RandomSource, outdir: str, workers: int):
    """fig6: p-stable vs CLT α-intervals across panels, one law each; each
    panel's reference is its law's exact mean."""
    labels = [_panel_label(law) for law in cfg.panels]
    reps = cfg.replications

    def one_rep(panel_idx: int, rep: int):
        rsrc = base.substream(ROLE_REPLICATION, panel_idx, rep)
        mu_hat, x_est, y = draw_sample(
            cfg.panels[panel_idx], rsrc, cfg.total, cfg.mu_mode, cfg.pilot, cfg.p
        )
        [est] = pstable_estimate(
            x_est, y, mu_hat, cfg.p, [cfg.levels],
            burn_in=cfg.burn_in,
            n_perms=cfg.permutations,
            src=rsrc.substream(STREAM_PERM),
            permute_pairs=cfg.permute_pairs,
        )
        clt_mean = clt_ci(x_est, cfg.levels)
        return [
            # the group column keeps its header x_m, though a panel is any law
            {"x_m": labels[panel_idx], "replication": rep, "method": method,
             "target": ci.target, **ci.bound_columns()}
            for method, ci in (("pstable", est.ci_mu), ("pstable", est.ci_alpha),
                               ("clt", clt_mean), ("clt", ci_alpha(clt_mean)))
        ]

    results = _run_tasks(
        [partial(one_rep, panel_idx, rep) for panel_idx in range(len(labels)) for rep in range(reps)],
        workers,
    )

    rows = []
    panel_summaries = {}
    for panel_idx, (label, law) in enumerate(zip(labels, cfg.panels)):
        ref_mean = distribution_mean(law)
        ref_alpha = alpha_from_mean(ref_mean)
        panel_rows = [
            {**row, "reference_value": ref_mean if row["target"] == "mean" else ref_alpha}
            for rep_rows in results[panel_idx * reps : (panel_idx + 1) * reps]
            for row in rep_rows
        ]
        rows.extend(panel_rows)

        alpha_ps = [
            r for r in panel_rows if r["method"] == "pstable" and r["target"] == "alpha"
        ]
        alpha_clt = [r for r in panel_rows if r["method"] == "clt" and r["target"] == "alpha"]
        # An undefined lower α-bound means the mean interval dipped
        # nonpositive, so the mapped set is (-∞, upper]; containment then
        # only requires the reference to sit below the defined upper end.
        contains = [
            r["upper"] is not None
            and ref_alpha <= r["upper"]
            and (r["lower"] is None or r["lower"] <= ref_alpha)
            for r in alpha_ps
        ]
        panel_summaries[label] = {
            "reference_mean": ref_mean,
            "reference_alpha": ref_alpha,
            "pstable_alpha_covers_reference": sum(contains) / len(contains),
            "pstable_alpha_two_sided": sum(
                r["lower_defined"] and r["upper_defined"] for r in alpha_ps
            ) / len(alpha_ps),
            "clt_alpha_lower_undefined": sum(not r["lower_defined"] for r in alpha_clt)
            / len(alpha_clt),
        }

    from . import plotting

    csv_path = write_rows_csv(os.path.join(outdir, "intervals.csv"), rows)
    files = [csv_path, _write_svg(
        os.path.join(outdir, "fig6.svg"), plotting.intervals_svg, csv_path, "alpha",
        "fig6: criticality intervals by method and panel",
    )]
    return files, {"panels": panel_summaries}, rows


@dataclass(frozen=True)
class Study:
    """One experiment id: the keys it needs, the others it reads beyond
    _SHARED_KEYS, and its runner."""

    needs: tuple[str, ...]
    reads: tuple[str, ...]
    run: Callable[[ExperimentConfig, RandomSource, str, int], tuple[list, dict, list]]


_BOOTSTRAP_ECDFS = Study(("distribution", "sizes", "bootstrap"), (), _run_ecdf_study)
_INTERVALS = Study(
    ("distribution", "total", "levels", "bootstrap"),
    ("levels_extra", "burn_in", "permutations", "permute_pairs", "replications"),
    _run_interval_study,
)
STUDIES = {
    "fig1": Study(("distribution", "sizes"), ("burn_in",), _run_ecdf_study),
    "fig2": _BOOTSTRAP_ECDFS,
    "fig3": _BOOTSTRAP_ECDFS,
    "fig4": _INTERVALS,
    "fig5": _INTERVALS,
    "fig6": Study(
        ("panels", "total", "levels"),
        ("burn_in", "permutations", "permute_pairs", "replications"),
        _run_panel_study,
    ),
}


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> RunReport:
    """Run one configured experiment, writing all artifacts into out_dir."""
    if cfg.out_dir is None:
        raise ConfigError("no output directory: set out_dir in the config or pass --out")
    if workers < 1:
        raise ConfigError(f"worker count must be at least 1, got {workers}")
    t0 = time.perf_counter()
    # Checks the seed, which --seed may have replaced, before anything is written.
    src = RandomSource(cfg.seed)
    outdir = cfg.out_dir
    os.makedirs(outdir, exist_ok=True)

    files, summary, rows = STUDIES[cfg.experiment].run(cfg, src, outdir, workers)

    import json

    import yaml

    echo = config_to_mapping(cfg)
    echo_path = os.path.join(outdir, "config_echo.yaml")
    with open(echo_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(echo, fh, sort_keys=True)
    files.append(echo_path)

    report = RunReport(
        experiment=cfg.experiment,
        config_echo=echo,
        files=[os.path.abspath(f) for f in files],
        summary=summary,
        per_replication=rows,
        wall_clock_s=time.perf_counter() - t0,
    )
    report_path = os.path.join(outdir, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    report.files.append(os.path.abspath(report_path))
    return report
