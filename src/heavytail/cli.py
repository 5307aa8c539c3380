"""Command-line entry points.

Subcommands:

* ``simulate``        run a configured experiment (fig1..fig6)
* ``estimate``        p-stable mean/criticality interval for a data file or
                      a synthetic generator
* ``abelian``         tabulate an Abelian pmf and its exact moments
* ``stirling-check``  run the exact combinatorial identity suite
* ``plot``            re-render an SVG figure from CSV artifacts

Exit codes: 0 success, 2 configuration/input error or an output that
cannot be created, 3 numerical instability, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
import warnings
from functools import partial

# No command calls BLAS, yet NumPy's OpenBLAS starts a thread pool at import
# that spins for CPU. A user's value, or a process that loaded NumPy, is kept.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import experiments
from .abelian import (
    AbelianParams,
    _check_alpha,
    _check_size,
    abelian_mean,
    abelian_pmf_vector,
    abelian_variance,
)
from .baselines import draw_multipliers
from .errors import ConfigError, HeavytailError, InstabilityError
from .estimator import ci_alpha, pstable_estimate, split_pilot
from .rng import (
    STREAM_PERM,
    STREAM_X,
    STREAM_Y,
    RandomSource,
    build_distribution,
    sample_distribution,
)

# stirling and plotting are imported by the commands that run them;
# estimate loads neither.


def _add_common(parser: argparse.ArgumentParser, out_default=None) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    parser.add_argument("--out", default=out_default, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavytail",
        description="mean and criticality estimation for heavy-tailed data via p-stable resampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured experiment")
    sim.add_argument("--config", required=True, help="YAML experiment config")
    sim.add_argument("--workers", type=int, default=1, help="thread count for replications")
    _add_common(sim)

    est = sub.add_parser("estimate", help="estimate a mean interval from data")
    est.add_argument("--input", help="CSV/text file, one observation per line")
    est.add_argument(
        "--generator",
        help="synthetic source, e.g. pareto_like:a=2,x_min=3,transform=true",
    )
    est.add_argument("--count", type=int, default=None, help="observations to draw (generator)")
    est.add_argument("--p", type=float, required=True, help="stability order in (1, 2]")
    est.add_argument("--level-lo", type=float, default=0.05)
    est.add_argument("--level-hi", type=float, default=0.95)
    est.add_argument("--burn-in", type=int, default=0)
    est.add_argument("--perms", type=int, default=1, help="orderings of the (X, Y) pairs to average")
    est.add_argument("--mu", type=float, default=None, help="known centering value")
    est.add_argument(
        "--pilot-count", type=int, default=None,
        help="pilot observations for the mean estimate (default: the first 10%%)",
    )
    _add_common(est, out_default=".")

    abl = sub.add_parser("abelian", help="tabulate an Abelian pmf")
    abl.add_argument("--n-size", type=int, required=True, help="system size N")
    abl.add_argument("--alpha", type=float, required=True, help="criticality parameter in (0, 1)")
    abl.add_argument("--b-max", type=int, default=None, help="truncate the table at this size")
    abl.add_argument("--out", default=".", help="output directory")

    sub.add_parser("stirling-check", help="run the exact identity suite")

    plt = sub.add_parser("plot", help="re-render a figure from CSV artifacts")
    plt.add_argument("csv", nargs="+", help="input CSV files")
    plt.add_argument("--kind", required=True, choices=("ecdf", "intervals"))
    plt.add_argument("--out", required=True, help="output SVG path")
    plt.add_argument("--title", default=None)
    plt.add_argument("--target", default=None, help="interval plots: mean or alpha (default alpha)")
    plt.add_argument("--labels", default=None, help="ecdf plots: comma-separated curve labels")

    return parser


def _parse_generator(text: str):
    """kind:key=value,... into a distribution params object."""
    kind, _, rest = text.partition(":")
    fields: dict[str, object] = {"kind": kind.strip()}
    if rest.strip():
        for piece in rest.split(","):
            key, sep, value = piece.partition("=")
            if not sep:
                raise ConfigError(f"generator field {piece!r} is not key=value")
            key, value = key.strip(), value.strip()
            if key in fields:
                raise ConfigError(f"generator field {key!r} repeats")
            if value.lower() in ("true", "false"):
                fields[key] = value.lower() == "true"
            else:
                try:
                    fields[key] = float(value)
                except ValueError as exc:
                    raise ConfigError(f"generator field {piece!r}: {exc}") from exc
    return build_distribution(fields)


def _read_observations(path: str) -> np.ndarray:
    """The first comma-separated column of a UTF-8 file as float64 observations.

    A byte-order mark is allowed; one non-numeric first line is a header;
    blank lines and rows whose first cell is blank are skipped. NumPy's C
    reader parses the file; a file it refuses goes to _read_rows, whose
    line loop defines what is accepted and names the first bad line.
    """
    values = _load_rows(path)
    if values is None:
        values = _read_rows(path)
    if values.size == 0:
        raise ConfigError(f"{path}: no observations")
    return values


def _is_header(row: list[str]) -> bool:
    """Whether a first row is a header: its first cell is neither blank nor a number."""
    cell = row[0].strip() if row else ""
    try:
        float(cell)
    except ValueError:
        return cell != ""
    return False


def _load_rows(path: str) -> np.ndarray | None:
    """The observations as NumPy's C reader parses them, or None where it refuses the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = _is_header(next(reader, []))
            if header and reader.line_num != 1:
                return None  # a quoted header spans lines; skiprows counts lines
        if not _cells_within_field_limit(path):
            return None
        with warnings.catch_warnings():
            # a file with no data rows is refused by _read_observations instead
            warnings.filterwarnings("ignore", ".*input contained no data")
            return np.loadtxt(
                path, delimiter=",", usecols=0, comments=None, quotechar='"',
                ndmin=1, skiprows=int(header), encoding="utf-8-sig",
            )
    except (OSError, ValueError, csv.Error):
        return None


def _cells_within_field_limit(path: str) -> bool:
    """Whether no cell past the first row can be longer than csv.field_size_limit().

    csv.reader has parsed the first row. If the rest of the file is within
    the limit, so is each cell in it. Else, with no quote in the rest every
    cell lies inside one line and the longest line bounds them; a quoted
    cell may span lines, so a quote there gives False.
    """
    limit = csv.field_size_limit()
    data = np.fromfile(path, dtype=np.uint8)
    ends = np.flatnonzero((data == ord("\n")) | (data == ord("\r")))
    if ends.size == 0 or data.size - ends[0] - 1 <= limit:
        return True
    if np.any(data[ends[0] + 1 :] == ord('"')):
        return False
    return int(np.diff(ends, append=data.size).max()) - 1 <= limit


def _read_rows(path: str) -> np.ndarray:
    """The observations read line by line, as _read_observations defines them."""
    values: list[float] = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                cell = row[0].strip() if row else ""
                if not cell or (lineno == 1 and _is_header(row)):
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: non-numeric observation {cell!r}")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return np.asarray(values, dtype=np.float64)


def _cmd_simulate(args) -> int:
    read = experiments.read_flag
    workers = read("--workers", experiments._read_workers, args.workers)
    seed = read("--seed", experiments._READERS["seed"], args.seed)
    cfg = experiments.load_config(args.config)
    updates = {}
    if seed is not None:
        updates["seed"] = seed
    if args.out is not None:
        updates["out_dir"] = args.out
    if updates:
        from dataclasses import replace

        cfg = replace(cfg, **updates)
    report = experiments.run_experiment(cfg, workers=workers)
    print(f"{cfg.experiment}: wrote {len(report.files)} files to {cfg.out_dir}")
    for key, value in sorted(report.summary.items()):
        print(f"  {key}: {value}")
    return 0


def _interval_line(ci) -> str:
    lo = "undefined" if ci.lower is None else f"{ci.lower:.6g}"
    hi = "undefined" if ci.upper is None else f"{ci.upper:.6g}"
    return f"{ci.target}: [{lo}, {hi}] at levels ({ci.level_lo}, {ci.level_hi})"


def _read_mu(value) -> float:
    """A known centering value, finite."""
    if not np.isfinite(value):
        raise ValueError(f"centering value must be finite, got {value}")
    return value


def _cmd_estimate(args) -> int:
    if bool(args.input) == bool(args.generator):
        raise ConfigError("give exactly one of --input or --generator")
    if args.input and args.count is not None:
        raise ConfigError("--count draws from --generator; it does not apply to --input")
    if args.generator and args.count is None:
        raise ConfigError("--generator needs --count")
    if args.mu is not None and args.pilot_count is not None:
        raise ConfigError("give at most one of --mu or --pilot-count")
    # each flag reads as the config key that sets the same value does
    read, readers = experiments.read_flag, experiments._READERS
    p = read("--p", readers["p"], args.p)
    levels = read("--level-lo/--level-hi", experiments._read_levels, [args.level_lo, args.level_hi])
    n_perms = read("--perms", readers["permutations"], args.perms)
    burn_in = read("--burn-in", readers["burn_in"], args.burn_in)
    pilot = read("--pilot-count", readers["pilot"], args.pilot_count)
    count = read("--count", partial(experiments._as_count, minimum=2), args.count)
    seed = read("--seed", readers["seed"], args.seed)
    mu = read("--mu", _read_mu, args.mu)
    src = RandomSource(0 if seed is None else seed)
    if args.input:
        x = _read_observations(args.input)
    else:
        dist = _parse_generator(args.generator)
        x = sample_distribution(dist, src.substream(experiments.ROLE_GLOBAL, STREAM_X), count)

    # a given pilot is counted before split_pilot, and its default once it
    # is out of x_est, so every count too short gets the one message
    experiments.estimation_count("estimate", x.size, pilot)
    if mu is not None:
        mu_hat, x_est = mu, x
    else:
        mu_hat, x_est = split_pilot(x, pilot_count=pilot)
    experiments.estimation_count("estimate", x_est.size, None)

    y = draw_multipliers(p, src.substream(experiments.ROLE_GLOBAL, STREAM_Y), x_est.size)
    est = pstable_estimate(
        x_est, y, mu_hat, p, [levels],
        burn_in=burn_in, n_perms=n_perms,
        src=src.substream(experiments.ROLE_GLOBAL, STREAM_PERM),
    )
    [(q_lo, q_hi)], [ci_mu] = est.quantiles, est.intervals
    cis = (ci_mu, ci_alpha(ci_mu))

    os.makedirs(args.out, exist_ok=True)
    tn_path = os.path.join(args.out, "tn.csv")
    ecdf_path = os.path.join(args.out, "ecdf.csv")
    experiments.write_tn_ecdf_csv(tn_path, ecdf_path, est.tn, est.ecdf, est.ecdf_index)
    ci_path = experiments.write_rows_csv(
        os.path.join(args.out, "ci.csv"),
        [
            {"target": ci.target, "level_lo": ci.level_lo, "level_hi": ci.level_hi,
             **ci.bound_columns()}
            for ci in cis
        ],
    )
    print(f"n={x_est.size} mu_hat={mu_hat:.6g} quantiles=({q_lo:.6g}, {q_hi:.6g})")
    for ci in cis:
        print(_interval_line(ci))
    print(f"wrote {tn_path}, {ecdf_path}, {ci_path}")
    return 0


def _cmd_abelian(args) -> int:
    # each flag reads as the abelian law's field that sets the same value does
    read = experiments.read_flag
    params = AbelianParams(
        N=read("--n-size", _check_size, args.n_size),
        alpha=read("--alpha", _check_alpha, args.alpha),
    )
    b_max = read("--b-max", experiments._as_count, args.b_max)
    pmf = abelian_pmf_vector(params)
    b_max = params.N if b_max is None else min(b_max, params.N)

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "abelian.csv")
    experiments.write_csv(out_path, ["b", "pmf"], [range(1, b_max + 1), pmf[:b_max]])
    print(
        f"N={params.N} alpha={params.alpha:.6g} p={params.p:.6g} "
        f"mean={abelian_mean(params):.10g} variance={abelian_variance(params):.10g}"
    )
    print(f"wrote {out_path} ({b_max} rows)")
    return 0


def _cmd_stirling(args) -> int:
    from .stirling import run_lemma_suite

    results = run_lemma_suite()
    all_pass = True
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] {res.name}: {res.detail}")
        all_pass = all_pass and res.passed
    return 0 if all_pass else 1


def _cmd_plot(args) -> int:
    from . import plotting

    if args.kind == "ecdf":
        if args.target is not None:
            raise ConfigError("--target applies to interval plots, not to ecdf plots")
        labels = [lbl.strip() for lbl in args.labels.split(",")] if args.labels else None
        document = plotting.ecdf_svg(args.csv, labels, args.title)
    else:
        if args.labels is not None:
            raise ConfigError("--labels applies to ecdf plots, not to interval plots")
        if len(args.csv) != 1:
            raise ConfigError("interval plots take exactly one csv file")
        target = "alpha" if args.target is None else args.target
        document = plotting.intervals_svg(args.csv[0], target, args.title)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(document)
    print(f"wrote {args.out}")
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "abelian": _cmd_abelian,
    "stirling-check": _cmd_stirling,
    "plot": _cmd_plot,
}


# mallopt's parameters in <malloc.h>, and the values the CLI sets: the freed
# heap kept at the top of each arena, and the request size from which a
# block is mapped on its own and unmapped when freed.
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_HEAP_TOP_PAD = 16 << 20
_MMAP_THRESHOLD = 4 << 20
# Environment variables through which a user sets these themselves.
_ALLOCATOR_VARS = ("MALLOC_TOP_PAD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")


def _keep_freed_heap() -> None:
    """Ask glibc to keep _HEAP_TOP_PAD bytes of freed heap per arena.

    Setting the pad also stops glibc from raising its mmap threshold (128
    KiB) as mapped blocks are freed, so the threshold is set with it: else
    each block above it is mapped, faulted in and unmapped on every call,
    and the heap may never grow to take the pad. A no-op off glibc, and
    where the user set one of _ALLOCATOR_VARS.
    """
    if any(name in os.environ for name in _ALLOCATOR_VARS):
        return
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if libc.startswith("glibc"):
        import ctypes  # NumPy has loaded it already

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # glibc hands the freed top of the heap back after each replication, and
    # the next faults the same pages in again. A user's setting is kept.
    _keep_freed_heap()
    # What the imports made lives until exit: frozen, no collection and not
    # the exit walks it again. Only the first call freezes, so a program
    # that calls main() again does not pin what it made in between.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    try:
        return _DISPATCH[args.command](args)
    except InstabilityError as exc:
        print(f"error: numerical instability: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        # ValueError covers parameter/domain/input violations from the library
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # input paths are ConfigErrors already; this is an output that cannot
        # be created, e.g. --out naming an existing file
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except HeavytailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
