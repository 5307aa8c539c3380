"""Configuration-driven reproduction of the simulation studies.

Each experiment id (fig1..fig6) names one protocol; a YAML config supplies
its parameters. Replications derive per-index substreams from the base
seed, so results are byte-identical regardless of worker count, and every
run writes a lossless config echo alongside its CSV/SVG artifacts.
Wall-clock time lives only in report.json; CSVs stay byte-stable.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import partial

import numpy as np

# yaml, plotting and the thread pool are imported where they are used:
# estimate loads this module and needs none of them.
from .abelian import Tabled
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
    as_float,
    as_int,
    build_distribution,
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
    levels: tuple[tuple[float, float], ...] | None = None  # an interval study's quantile pairs
    burn_in: int = 0
    permutations: int = 1
    bootstrap: BootstrapConfig | None = None
    replications: int = 1
    panels: tuple | None = None  # an interval study's laws, each with a positive mean


_DEFAULTS = {
    f.name: None if f.default is MISSING else f.default for f in fields(ExperimentConfig)
}


def _read_levels(value) -> tuple[float, float]:
    """A (lo, hi) pair of quantile levels, 0 < lo < hi < 1, from a list of two."""
    message = f"must be a pair 0 < lo < hi < 1, got {value!r}"
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(message)
    try:
        return _check_levels([as_float(level) for level in value])
    except (TypeError, ValueError) as exc:
        raise ValueError(message) from exc


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


def _read_list(key: str, read_item: Callable, example: str, value) -> tuple:
    """The items of a nonempty config list, each read by read_item, no two
    alike; an error shows the list form, example."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"must be a nonempty list such as {example}, got {value!r}")
    try:
        items = tuple(read_item(item) for item in value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{exc}, in a list such as {example}") from exc
    repeated = dict.fromkeys(item for k, item in enumerate(items) if item in items[:k])
    if repeated:
        raise ConfigError(f"{key} repeat {[_echo(item) for item in repeated]}")
    return items


def _read_mu_mode(value) -> str:
    """One of MU_MODES; YAML reads a bare `true` as a boolean."""
    mu_mode = "true" if value is True else str(value)
    if mu_mode not in MU_MODES:
        raise ValueError(f"must be one of {MU_MODES}, got {mu_mode!r}")
    return mu_mode


def _check_mean(distribution, purpose: str, *, positive: bool) -> None:
    """Refuse a law without a mean, or, where positive, one whose mean is not
    positive, as a ConfigError naming purpose. A tabled law, whose mean is
    at least 1, passes without its table being built."""
    if isinstance(distribution, Tabled):
        return
    try:
        mean = distribution.mean()
    except ParameterError as exc:
        raise ConfigError(f"{purpose} needs a law with a mean: {exc}") from exc
    if positive and mean <= 0.0:
        raise ConfigError(f"{purpose} needs a positive mean for its α reference")


def _panel_label(distribution) -> str:
    """A law's name in intervals.csv, report.json and the plot: its fields as key=value pairs."""
    return " ".join(f"{k}={v}" for k, v in distribution_to_mapping(distribution).items())


def estimation_count(purpose: str, count: int, pilot: int | None) -> int:
    """The observations of count left once a pilot segment, if any, is taken
    out; an interval needs at least two of them."""
    left = count - (pilot or 0)
    if left < 2:
        raise ConfigError(f"{purpose} needs 2 observations beyond the pilot, got {max(left, 0)}")
    return left


# The reader of each ExperimentConfig field.
_READERS = {
    "experiment": _read_experiment,
    "seed": lambda value: RandomSource(as_int(value)).seed,
    "p": lambda value: _check_p(as_float(value)),
    "out_dir": _read_string,
    "distribution": build_distribution,
    # fig1–fig3's sample sizes, ascending
    "sizes": lambda value: tuple(sorted(_read_list("sizes", _as_count, "[1000, 5000]", value))),
    "total": _as_count,
    "pilot": _as_count,
    "mu_mode": _read_mu_mode,
    "levels": partial(_read_list, "levels", _read_levels, "[[0.05, 0.95], [0.005, 0.995]]"),
    "burn_in": partial(_as_count, minimum=0),
    "permutations": _as_count,
    "bootstrap": lambda value: read_fields(BootstrapConfig, value, "bootstrap"),
    "replications": _as_count,
    "panels": partial(
        _read_list, "panels", build_distribution, "[{kind: pareto_like, a: 2.0, x_min: 3.0}]"
    ),
}


def read_flag(flag: str, read: Callable, value):
    """read(value) of a command-line flag's value, None where the flag is not
    given. A flag reads by the reader of the config key that sets the same
    setting, and a value it refuses is a ConfigError "<flag>: <reason>"."""
    if value is None:
        return None
    try:
        return read(value)
    except (TypeError, ValueError, LookupError) as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def parse_config(mapping: dict) -> ExperimentConfig:
    """Validate a raw config mapping; every violation is a ConfigError."""
    cfg = read_fields(ExperimentConfig, mapping, "config", _READERS)
    _validate_per_experiment(cfg)
    return cfg


def _validate_per_experiment(cfg: ExperimentConfig) -> None:
    exp = cfg.experiment
    study = STUDIES[exp]
    # a pilot acts only in mu_mode pilot
    idle = {"pilot": cfg.mu_mode != "pilot"}
    ignored = [
        name for name, default in _DEFAULTS.items()
        if (name not in _SHARED_KEYS + study.needs + study.reads or idle.get(name))
        and getattr(cfg, name) != default
    ]
    if ignored:
        raise ConfigError(f"{exp} does not use {', '.join(ignored)}")
    missing = [name for name in study.needs if getattr(cfg, name) is None]
    if missing:
        raise ConfigError(f"{exp} needs {', '.join(missing)}")
    if cfg.mu_mode == "pilot" and not cfg.pilot:
        raise ConfigError(f"{exp} with mu_mode pilot needs a pilot count")
    if cfg.mu_mode == "true" and cfg.distribution is not None:
        _check_mean(cfg.distribution, f"{exp} with mu_mode true", positive=False)
    # each panel's reference is its law's mean and the α = 1 - 1/mean of it
    for law in cfg.panels or ():
        _check_mean(law, f"{exp} panel {_panel_label(law)}", positive=True)
    # the shortest T_n sequence the study scans must keep a term after burn_in;
    # fig2/fig3 scan none, and their burn_in holds its default 0. A pilot
    # comes out of total where a study needs one, else on top of sizes.
    if "total" in study.needs:
        shortest = estimation_count(exp, cfg.total, cfg.pilot)
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
    wall_clock_s: float


def _fmt_cell(v) -> str:
    """The text of one CSV cell, the rule for every cell write_csv writes."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# Rows per chunk of write_csv: few enough that the arrays that build a
# chunk's text stay a few megabytes.
CSV_CHUNK_ROWS = 16384


class _TakenRows:
    """The rows of a slot array in the order of index, gathered a slice at a
    time, so that the gathered rows never exist whole."""

    def __init__(self, rows: np.ndarray, index: np.ndarray):
        self.rows, self.index = rows, index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, part: slice) -> np.ndarray:
        return np.take(self.rows, self.index[part], axis=0)


def _slots(column) -> np.ndarray:
    """Slot rows of an int range or a float array (_floattext's kernels), the
    slot rows given, or else of text cells, one _fmt_cell each (a range past
    2^62, which np.arange may overflow, too)."""
    if isinstance(column, np.ndarray):
        if column.ndim == 2:
            return column
        from ._floattext import float_slots

        return float_slots(column)
    if isinstance(column, range) and max(map(abs, (column.start, column.stop, column.step))) < 2**62:
        from ._floattext import int_slots

        return int_slots(np.arange(column.start, column.stop, column.step))
    cells = np.array([_fmt_cell(v).encode() for v in column], dtype=bytes)
    return cells.view(np.uint8).reshape(len(cells), cells.itemsize)


def rows_text(columns) -> bytes:
    """Lines of the cells of columns that _slots takes, joined by "," and each
    ended by "\\n"; the slot rows' 0-byte padding is dropped."""
    columns = [_slots(col) for col in columns]
    ends = np.full((len(columns), len(columns[0]), 1), ord(","), dtype=np.uint8)
    ends[-1] = ord("\n")
    block = np.hstack([part for pair in zip(columns, ends) for part in pair])
    return block.tobytes().translate(None, b"\0")


def write_csv(path: str, header, columns) -> None:
    """Write header and one line per index of the columns, CSV_CHUNK_ROWS at a time.

    The one CSV writer. Columns have one length; each is a range of ints, a
    float array, slot rows float_slots made of one, or other cells, and
    every cell is the text _fmt_cell gives it. Nothing is quoted, so no
    cell or header name may hold ",", '"' or a line break.
    """
    columns = list(columns)
    if len({len(col) for col in columns}) > 1:
        raise ValueError(f"write_csv: columns differ in length for {path}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for s in range(0, len(columns[0]) if columns else 0, CSV_CHUNK_ROWS):
            fh.write(rows_text([col[s:s + CSV_CHUNK_ROWS] for col in columns]))


def write_ecdf_csv(path: str, ecdf) -> None:
    write_csv(path, ["t", "G"], [ecdf.points, ecdf.cum_weights])


def write_tn_ecdf_csv(tn_path: str, ecdf_path: str, tn: np.ndarray, ecdf, ecdf_index) -> None:
    """tn.csv (n, t_n) and ecdf.csv (t, G) of one sequence, each T_n formatted once.

    ecdf's points are tn[ecdf_index] (PstableEstimate.ecdf_index), so its
    t cells are tn.csv's slot rows taken in that order.
    """
    from . import _floattext

    cells = _floattext.float_slots(tn, CSV_CHUNK_ROWS)
    write_csv(tn_path, ["n", "t_n"], [range(1, tn.size + 1), cells])
    write_csv(ecdf_path, ["t", "G"], [_TakenRows(cells, ecdf_index), ecdf.cum_weights])


def write_rows_csv(path: str, rows: list[dict]) -> str:
    """write_csv of the row dicts, each a line under the first row's keys."""
    write_csv(path, list(rows[0]), list(zip(*(row.values() for row in rows))))
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


def _ecdf_figure(cfg: ExperimentConfig, outdir: str, ecdfs: dict, title: str) -> list[str]:
    """One CSV per entry of ecdfs, a mapping of file name to (label, ECDF),
    and the SVG of them all under title."""
    from . import plotting

    files = [os.path.join(outdir, name) for name in ecdfs]
    for path, (_, ecdf) in zip(files, ecdfs.values()):
        write_ecdf_csv(path, ecdf)
    return files + [_write_svg(
        os.path.join(outdir, f"{cfg.experiment}.svg"), plotting.ecdf_svg, files,
        [label for label, _ in ecdfs.values()], f"{cfg.experiment}: {title}",
    )]


def _run_ecdf_study(cfg: ExperimentConfig, src: RandomSource, outdir: str, workers: int):
    """fig1 (logarithmic ecdfs) and fig2/fig3 (bootstrap ecdfs) at several sizes."""
    sizes = cfg.sizes
    need = max(sizes) + (cfg.pilot or 0)
    mu_hat, x_est, y = draw_sample(
        cfg.distribution, src.substream(ROLE_GLOBAL), need, cfg.mu_mode, cfg.pilot, cfg.p
    )

    if cfg.experiment == "fig1":
        tn_full = compute_tn(x_est, y, mu_hat, cfg.p)
        ecdfs = [build_log_ecdf(tn_full[:s], cfg.burn_in) for s in sizes]
    else:
        ecdfs = [
            bootstrap_ecdf(x_est[:s], y[:s], mu_hat, cfg.p, cfg.bootstrap,
                           src.substream(ROLE_GLOBAL, STREAM_BOOT, k))
            for k, s in enumerate(sizes)
        ]
    files = _ecdf_figure(
        cfg, outdir, {f"ecdf_{s}.csv": (f"N={s}", ecdf) for s, ecdf in zip(sizes, ecdfs)},
        "empirical distributions of the resampled statistic",
    )

    distances = {}
    for (s1, e1), (s2, e2) in zip(list(zip(sizes, ecdfs))[:-1], list(zip(sizes, ecdfs))[1:]):
        distances[f"{s1}-{s2}"] = ecdf_sup_distance(e1, e2)

    summary = {
        "mu_hat": mu_hat,
        "consecutive_sup_distance": distances,
        "sizes": list(sizes),
    }
    return files, summary


def _bootstrap_intervals(cfg: ExperimentConfig, mu_hat, x, y, rsrc: RandomSource, pairs, estimate):
    boot = bootstrap_ecdf(x, y, mu_hat, cfg.p, cfg.bootstrap, rsrc.substream(STREAM_BOOT))
    return [quantile_interval(x, y, boot.quantile(lo), boot.quantile(hi), cfg.p, (lo, hi))
            for lo, hi in pairs]


# Each method's mean interval at every level pair of one replication, from
# its sample (μ̂, x, y), its stream and its p-stable estimate.
_METHODS = {
    "pstable": lambda cfg, mu_hat, x, y, rsrc, pairs, estimate: estimate.intervals,
    "bootstrap": _bootstrap_intervals,
    "clt": lambda cfg, mu_hat, x, y, rsrc, pairs, estimate: [clt_ci(x, pair) for pair in pairs],
}


def _interval_summary(cis: list, reference: float) -> dict:
    """The share of cis that contain reference, their median width, and the
    shares that are two-sided and undefined below."""
    count = len(cis)
    widths = sorted(ci.upper - ci.lower for ci in cis if None not in (ci.lower, ci.upper))
    middle = widths[(len(widths) - 1) // 2 : len(widths) // 2 + 1]  # one value, or two
    return {
        "coverage": sum(ci.contains(reference) for ci in cis) / count,
        "median_width": sum(middle) / len(middle) if middle else None,
        "two_sided": len(widths) / count,
        "lower_undefined": sum(ci.lower is None for ci in cis) / count,
        "replications": count,
    }


def _run_interval_study(
    cfg: ExperimentConfig, base: RandomSource, outdir: str, workers: int,
    *, methods: tuple[str, ...], targets: tuple[str, ...], figure,
):
    """fig4–fig6: replicated intervals of each method for each target on each law
    of cfg.panels at each pair of cfg.levels, against the law's exact mean and its α."""
    laws, pairs, reps = cfg.panels, cfg.levels, cfg.replications

    def one_rep(law_index: int, rep: int):
        rsrc = base.substream(ROLE_REPLICATION, law_index, rep)
        mu_hat, x, y = draw_sample(laws[law_index], rsrc, cfg.total, cfg.mu_mode, cfg.pilot, cfg.p)
        # every study measures the p-stable interval, and the ECDF figure
        # draws the first replication's
        estimate = pstable_estimate(
            x, y, mu_hat, cfg.p, pairs, burn_in=cfg.burn_in, n_perms=cfg.permutations,
            src=rsrc.substream(STREAM_PERM),
        )
        by_method = [_METHODS[m](cfg, mu_hat, x, y, rsrc, pairs, estimate) for m in methods]
        cis = [
            (method, ci_alpha(ci) if target == "alpha" else ci)
            for at_pair in zip(*by_method)
            for method, ci in zip(methods, at_pair)
            for target in targets
        ]
        return cis, estimate if law_index == rep == 0 else None

    # each tabled law builds its table here, before the pool, where no
    # replication runs beside a build and adds its memory to the build's
    for law in laws:
        if isinstance(law, Tabled):
            law.table
    results = _run_tasks(
        [partial(one_rep, law_index, rep) for law_index in range(len(laws)) for rep in range(reps)],
        workers,
    )

    rows, panels = [], {}
    for law_index, law in enumerate(laws):
        label = _panel_label(law)
        # positive: parse_config checked an untabled law's, and a tabled law's is at least 1
        ref_mean = law.mean()
        reference = {"mean": ref_mean, "alpha": alpha_from_mean(ref_mean)}
        groups = {}
        for rep, (cis, _) in enumerate(results[law_index * reps : (law_index + 1) * reps]):
            for method, ci in cis:
                # the group column keeps its header x_m, though a group is any law
                rows.append({
                    "x_m": label, "replication": rep, "method": method, "target": ci.target,
                    "level_lo": ci.level_lo, "level_hi": ci.level_hi, **ci.bound_columns(),
                    "reference_value": reference[ci.target],
                })
                key = f"{method}@{ci.target}@{ci.level_lo}-{ci.level_hi}"
                groups.setdefault(key, []).append(ci)
        panels[label] = {"reference_mean": ref_mean, "reference_alpha": reference["alpha"]}
        for key, cis in groups.items():
            panels[label][key] = _interval_summary(cis, reference[cis[0].target])

    csv_path = write_rows_csv(os.path.join(outdir, "intervals.csv"), rows)
    files = [csv_path, *figure(cfg, outdir, csv_path, results[0][1])]
    return files, {"panels": panels}


def _first_ecdf_figure(cfg: ExperimentConfig, outdir: str, csv_path: str, rep0) -> list[str]:
    """fig4/fig5: the first replication's ECDF, labelled by its estimation segment's size."""
    return _ecdf_figure(cfg, outdir, {"ecdf.csv": (f"N={rep0.tn.size}", rep0.ecdf)},
                        "replication-0 logarithmic empirical distribution")


def _alpha_figure(cfg: ExperimentConfig, outdir: str, csv_path: str, rep0) -> list[str]:
    """fig6: every α interval, one panel per law."""
    from . import plotting

    return [_write_svg(
        os.path.join(outdir, f"{cfg.experiment}.svg"), plotting.intervals_svg, csv_path, "alpha",
        f"{cfg.experiment}: criticality intervals by method and panel",
    )]


@dataclass(frozen=True)
class Study:
    """One experiment id: the keys it needs, the others it reads beyond
    _SHARED_KEYS, and its runner."""

    needs: tuple[str, ...]
    reads: tuple[str, ...]
    run: Callable[[ExperimentConfig, RandomSource, str, int], tuple[list, dict]]


_BOOTSTRAP_ECDFS = Study(("distribution", "sizes", "bootstrap"), (), _run_ecdf_study)
_INTERVAL_NEEDS = ("panels", "total", "levels")
_INTERVAL_READS = ("burn_in", "permutations", "replications")
_MEAN_INTERVALS = Study((*_INTERVAL_NEEDS, "bootstrap"), _INTERVAL_READS, partial(
    _run_interval_study, methods=("pstable", "bootstrap"), targets=("mean",),
    figure=_first_ecdf_figure,
))
STUDIES = {
    "fig1": Study(("distribution", "sizes"), ("burn_in",), _run_ecdf_study),
    "fig2": _BOOTSTRAP_ECDFS,
    "fig3": _BOOTSTRAP_ECDFS,
    "fig4": _MEAN_INTERVALS,
    "fig5": _MEAN_INTERVALS,
    "fig6": Study(_INTERVAL_NEEDS, _INTERVAL_READS, partial(
        _run_interval_study, methods=("pstable", "clt"), targets=("mean", "alpha"),
        figure=_alpha_figure,
    )),
}


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> RunReport:
    """Run one configured experiment, writing all artifacts into out_dir."""
    if cfg.out_dir is None:
        raise ConfigError("no output directory: set out_dir in the config or pass --out")
    workers = read_flag("workers", _as_count, workers)
    t0 = time.perf_counter()
    # Checks a seed that replace() may have set, before anything is written.
    src = RandomSource(cfg.seed)
    outdir = cfg.out_dir
    os.makedirs(outdir, exist_ok=True)

    files, summary = STUDIES[cfg.experiment].run(cfg, src, outdir, workers)

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
        wall_clock_s=time.perf_counter() - t0,
    )
    report_path = os.path.join(outdir, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(vars(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    report.files.append(os.path.abspath(report_path))
    return report
