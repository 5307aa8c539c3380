"""Time the scan kernel on one long sequence and on a (K, N) matrix, and
the log-ECDF sort on that matrix.

Run:  python3 benchmarks/bench_kernels.py [--sizes 10000,180000,1000000]
                                          [--fault-launches 3]

Every line runs under the CLI's allocator settings: main() first calls
cli._keep_freed_heap, as `heavytail` does, so an allocation-heavy step is
not charged for glibc handing its freed heap back and faulting it in again.

The table times tn_scan on the increments z = (x − μ̂)·y of one sequence
of each size (z and its scale vector are formed before timing); 180000 is
the length of the long_estimate benchmark's scan. The scales lines time
_kernels.scale_vector at each size and p = 1.5, the vector that each
compute_tn and pstable_estimate call builds once for its scans (nothing
caches it), and the math_pow lines the one math.pow call per entry that
it used to make, after asserting both give the same bytes. The next line times tn_scan on MATRIX_SHAPE, the permuted
rows of one interval in the permutation studies (fig5, fig6), after
asserting each row bit-identical to that row scanned alone. The two lines
after it time the sorted points and cumulative 1/n weights of those T_n
rows: _sorted_log_ecdf, after asserting its bytes equal to a stable sort
of every row, and that stable sort itself. The last lines time a cold build
(the table of a fresh copy of the law, which keeps no table yet) of the
CDF table of each cutoff power law in configs/fig6.yaml and of an Abelian
law at N = 10^6, after asserting each table's bytes equal to
np.cumsum(w) / total over the law's weights w.

The bootstrap lines time baselines.bootstrap_ecdf on BOOTSTRAP_SHAPE (B
replicates of n pairs, the fig5 protocol's size) in row blocks of the
default _BLOCK_ENTRIES and of OLD_BLOCK_ENTRIES, after asserting both give
the same bytes.

The estimate and I/O lines run at the long_estimate benchmark's sizes: an
input of IO_ROWS values, whose last nine tenths are estimated, or of the
largest of --sizes values if that is smaller (so `--sizes 1000` runs them
at 1000 rows). The estimate lines time estimator.pstable_estimate on
ESTIMATE_ROWS orderings of the estimated points, as `estimate --perms 64`
runs them, in row blocks of the default _BLOCK_ENTRIES and of
OLD_PERMUTATION_BLOCK_ENTRIES, after asserting both give the same bytes.

The I/O lines time estimate's text layer. read times
cli._read_observations (NumPy's C reader) on a file of the input's
values written with %.17g, after asserting its bytes equal to
those of the line loop cli._read_rows, which read_loop times. format
times the text of as many Cauchy values, one in 50 scaled into exponent
form, as write_csv makes it (_floattext's array kernel and
experiments.rows_text, CSV_CHUNK_ROWS values at a time), and repr times
one repr per value, after asserting the two texts equal. write times
experiments.write_tn_ecdf_csv, which formats each T_n once for tn.csv and
ecdf.csv, on as many points as are estimated, with a burn-in of 100 and
the stable sort order of the rest as the ECDF's index, after asserting
both files equal to write_csv called once per file on the float arrays,
which write_2x times.

The startup line launches `python -c "import heavytail.cli"`
STARTUP_LAUNCHES times, with no BLAS thread variable in the environment, and
gives the median wall and CPU (user + system, from os.wait4) per child, and
the child's thread count after the import. CPU well above wall, or more than
one thread, means a library started a thread pool that no command uses.

The faults lines launch the shipped fig5 study (`heavytail simulate`) at
--workers 1 and 2, --fault-launches times each (default 3), and give the
median wall and CPU time and minor page faults (ru_minflt, from os.wait4)
per child. Its replications shrink with the estimate and I/O lines: all of
them at IO_ROWS input rows, else in proportion, at least one (so `--sizes
1000` runs one). Faults in the tens of thousands mean the heap is handed
back to the kernel and faulted in again between replications.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import yaml

from heavytail import _floattext, baselines, estimator, experiments
from heavytail._kernels import scale_vector, tn_scan
from heavytail.abelian import AbelianParams, abelian_pmf_vector
from heavytail.cli import _keep_freed_heap, _read_observations, _read_rows
from heavytail.estimator import _sorted_log_ecdf, build_log_ecdf
from heavytail.rng import RandomSource, build_distribution

FIG6_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fig6.yaml"
FIG5_CONFIG = FIG6_CONFIG.with_name("fig5.yaml")

# The identity and 63 permutations of an estimation segment of 1000 points.
MATRIX_SHAPE = (64, 1000)
# (B, n) of one fig5 bootstrap, and the row-block cap it used to run in.
BOOTSTRAP_SHAPE = (1000, 1000)
OLD_BLOCK_ENTRIES = 2_000_000
# Orderings of `estimate --perms 64`, and the row blocks its permutations
# used to be scanned in.
ESTIMATE_ROWS = 64
OLD_PERMUTATION_BLOCK_ENTRIES = 1 << 20
# Rows of the long_estimate input; its pilot takes the first tenth.
IO_ROWS = 200_000
IO_BURN_IN = 100
# Child processes the startup line launches, and the variables OpenBLAS
# reads for its thread count, which the children do not inherit.
STARTUP_LAUNCHES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_STARTUP_SCRIPT = (
    "import heavytail.cli, os\n"
    "task = '/proc/self/task'\n"
    "print(len(os.listdir(task)) if os.path.isdir(task) else '?')\n"
)


def _time(fn, *args, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _pow_scales(n: int, exponent: float) -> np.ndarray:
    """(i+1)^(−exponent) for i = 0..n−1, one math.pow call per entry."""
    bases = np.arange(1.0, n + 1).tolist()
    return np.fromiter(map(math.pow, bases, [-exponent] * n), np.float64, n)


def _stable_log_ecdf(tn: np.ndarray):
    """Every row of tn sorted stably, and its 1/n weights summed in that order."""
    order = np.argsort(tn, axis=1, kind="stable")
    weights = 1.0 / np.arange(1, tn.shape[1] + 1, dtype=np.float64)
    cum = np.cumsum(weights[order], axis=1)
    cum /= cum[:, -1:]
    return np.take_along_axis(tn, order, axis=1), cum


def _write_twice(tmp: Path, tn: np.ndarray, ecdf) -> None:
    """tn.csv and ecdf.csv through write_csv on the float arrays, each T_n formatted twice."""
    experiments.write_csv(str(tmp / "tn_2x.csv"), ["n", "t_n"], [range(1, tn.size + 1), tn])
    experiments.write_ecdf_csv(str(tmp / "ecdf_2x.csv"), ecdf)


def _time_io(rng, tmp: Path, io_rows: int) -> None:
    x = 3.0 * (1.0 + rng.pareto(2.0, io_rows))
    path = tmp / "input.csv"
    np.savetxt(path, x * np.maximum(np.log(x), 1.0), fmt="%.17g")
    assert _read_observations(str(path)).tobytes() == _read_rows(str(path)).tobytes()
    rows = f"{io_rows}"
    print(f"{'read':10s} {rows:>12s} {1e3 * _time(_read_observations, str(path), repeats=3):10.2f}")
    print(f"{'read_loop':10s} {rows:>12s} {1e3 * _time(_read_rows, str(path), repeats=3):10.2f}")

    values = rng.standard_cauchy(io_rows)
    values[::50] *= 1e-9  # some in d.ddde-XX form

    def by_kernel():
        return experiments.rows_text([_floattext.float_slots(values, experiments.CSV_CHUNK_ROWS)])

    def by_repr():
        return ("\n".join(map(repr, values.tolist())) + "\n").encode()

    assert by_kernel() == by_repr()
    print(f"{'format':10s} {rows:>12s} {1e3 * _time(by_kernel, repeats=3):10.2f}")
    print(f"{'repr':10s} {rows:>12s} {1e3 * _time(by_repr, repeats=3):10.2f}")

    tn = rng.standard_cauchy(io_rows - io_rows // 10)
    ecdf = build_log_ecdf(tn, IO_BURN_IN)
    ecdf_index = IO_BURN_IN + np.argsort(tn[IO_BURN_IN:], kind="stable")
    args = (str(tmp / "tn.csv"), str(tmp / "ecdf.csv"), tn, ecdf, ecdf_index)
    experiments.write_tn_ecdf_csv(*args)
    _write_twice(tmp, tn, ecdf)
    for name in ("tn", "ecdf"):
        assert (tmp / f"{name}.csv").read_bytes() == (tmp / f"{name}_2x.csv").read_bytes()
    points = f"{tn.size}"
    print(f"{'write':10s} {points:>12s} {1e3 * _time(experiments.write_tn_ecdf_csv, *args, repeats=3):10.2f}")
    print(f"{'write_2x':10s} {points:>12s} {1e3 * _time(_write_twice, tmp, tn, ecdf, repeats=3):10.2f}")


def _time_bootstrap(rng) -> None:
    replicates, n = BOOTSTRAP_SHAPE
    x = rng.pareto(2.0, n) + 3.0
    y = rng.standard_normal(n) + 1.0
    cfg = baselines.BootstrapConfig(replicates=replicates)

    def run():
        return baselines.bootstrap_ecdf(x, y, 4.0, 1.2, cfg, RandomSource(1).substream(4))

    default = baselines._BLOCK_ENTRIES
    new = run().points.tobytes()
    baselines._BLOCK_ENTRIES = OLD_BLOCK_ENTRIES
    try:
        assert run().points.tobytes() == new
        old_s = _time(run)
    finally:
        baselines._BLOCK_ENTRIES = default
    shape = f"({replicates}, {n})"
    print(f"{'bootstrap':10s} {shape:>12s} {1e3 * _time(run):10.2f}")
    print(f"{'boot_2M':10s} {shape:>12s} {1e3 * old_s:10.2f}")


def _time_estimate(rng, n: int) -> None:
    k_rows = ESTIMATE_ROWS
    x = rng.pareto(2.0, n) + 3.0
    y = rng.standard_normal(n) + 1.0

    def run():
        est = estimator.pstable_estimate(x, y, 4.0, 1.2, [(0.05, 0.95)], burn_in=100,
                                         n_perms=k_rows, src=RandomSource(1).substream(3))
        return *map(float.hex, est.quantiles[0]), est.tn.tobytes()

    default = estimator._BLOCK_ENTRIES
    new = run()
    estimator._BLOCK_ENTRIES = OLD_PERMUTATION_BLOCK_ENTRIES
    try:
        assert run() == new
        old_s = _time(run, repeats=3)
    finally:
        estimator._BLOCK_ENTRIES = default
    shape = f"({k_rows}, {n})"
    print(f"{'estimate':10s} {shape:>12s} {1e3 * _time(run, repeats=3):10.2f}")
    print(f"{'est_1M':10s} {shape:>12s} {1e3 * old_s:10.2f}")


def _launch(argv: list[str], env=None):
    """(wall seconds, stdout, os.wait4 rusage) of one child run to completion."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True) as child:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, f"{' '.join(argv[1:])} exited {child.returncode}"
    return wall, out, usage


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _time_startup() -> None:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    runs = [_launch([sys.executable, "-c", _STARTUP_SCRIPT], env) for _ in range(STARTUP_LAUNCHES)]
    label = f"threads={','.join(sorted({out.strip() for _, out, _ in runs}))}"
    print(f"{'startup':10s} {label:>12s} {1e3 * statistics.median(w for w, _, _ in runs):10.2f}"
          f"   cpu {1e3 * statistics.median(_cpu(u) for _, _, u in runs):.2f}")


def _time_faults(tmp: Path, launches: int, scale: float) -> None:
    fig5 = yaml.safe_load(FIG5_CONFIG.read_text())
    fig5["replications"] = max(1, round(fig5["replications"] * scale))
    config = tmp / "fig5.yaml"
    config.write_text(yaml.safe_dump(fig5, sort_keys=False))
    for workers in (1, 2):
        argv = [sys.executable, "-m", "heavytail.cli", "simulate", "--config", str(config),
                "--workers", str(workers), "--out", str(tmp / f"fig5_w{workers}")]
        runs = [_launch(argv) for _ in range(launches)]
        label = f"fig5 r{fig5['replications']} w{workers}"
        print(f"{'faults':10s} {label:>12s} {1e3 * statistics.median(w for w, _, _ in runs):10.2f}"
              f"   cpu {1e3 * statistics.median(_cpu(u) for _, _, u in runs):.2f}"
              f"   minflt {statistics.median(u.ru_minflt for _, _, u in runs):.0f}")


def _cold_table(law):
    return dataclasses.replace(law).table


def _tabled_laws():
    """(label, law, weights) for each fig6 cutoff panel and an Abelian law at N = 10^6."""
    fig6 = yaml.safe_load(FIG6_CONFIG.read_text())
    laws = []
    for law in map(build_distribution, fig6["panels"]):
        k = np.arange(1, law.x_m + 1, dtype=np.float64)
        laws.append((f"x_m={law.x_m}", law, k ** -law.tau))
    abelian = AbelianParams(N=10**6, alpha=0.99)
    laws.append(("N=1000000", abelian, abelian_pmf_vector(abelian)))
    return laws


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="10000,180000,1000000")
    parser.add_argument("--fault-launches", type=int, default=3)
    args = parser.parse_args()
    _keep_freed_heap()
    rng = np.random.default_rng(12345)
    sizes = [int(s) for s in args.sizes.split(",")]
    io_rows = min(IO_ROWS, max(sizes))
    print(f"{'kernel':10s} {'shape':>12s} {'time (ms)':>10s}")
    for n in sizes:
        x = rng.standard_cauchy(n)
        y = rng.standard_normal(n) + 1.0
        scales = scale_vector(n, 1.5)
        print(f"{'tn_scan':10s} {n:12d} {1e3 * _time(tn_scan, (x - 0.5) * y, scales):10.2f}")
    for n in sizes:
        assert scale_vector(n, 1.5).tobytes() == _pow_scales(n, 1 / 1.5).tobytes()
        print(f"{'scales':10s} {n:12d} {1e3 * _time(scale_vector, n, 1.5):10.2f}")
        print(f"{'math_pow':10s} {n:12d} {1e3 * _time(_pow_scales, n, 1 / 1.5):10.2f}")

    k_rows, n = MATRIX_SHAPE
    x = rng.pareto(2.0, n) + 3.0
    y = rng.standard_normal(n)
    mu, p = 4.0, 1.2
    perms = np.stack([rng.permutation(n) for _ in range(k_rows)])
    z = ((x - mu) * y)[perms]
    scales = scale_vector(n, p)
    ref = np.stack([tn_scan(row, scales) for row in z])
    assert tn_scan(z, scales).tobytes() == ref.tobytes()
    shape = f"({k_rows}, {n})"
    print(f"{'tn_scan':10s} {shape:>12s} {1e3 * _time(tn_scan, z, scales):10.2f}")
    tn = tn_scan(z, scales)
    points, cum, _ = _sorted_log_ecdf(tn, 0)
    ref_points, ref_cum = _stable_log_ecdf(tn)
    assert points.tobytes() == ref_points.tobytes() and cum.tobytes() == ref_cum.tobytes()
    print(f"{'log_ecdf':10s} {shape:>12s} {1e3 * _time(_sorted_log_ecdf, tn, 0):10.2f}")
    print(f"{'stable':10s} {shape:>12s} {1e3 * _time(_stable_log_ecdf, tn):10.2f}")
    _time_bootstrap(rng)
    _time_estimate(rng, io_rows - io_rows // 10)
    for label, law, w in _tabled_laws():
        cum = np.cumsum(w)
        assert _cold_table(law)[0].tobytes() == (cum / cum[-1]).tobytes()
        print(f"{'table':10s} {label:>12s} {1e3 * _time(_cold_table, law):10.2f}")
    with tempfile.TemporaryDirectory() as tmp:
        _time_io(rng, Path(tmp), io_rows)
        _time_faults(Path(tmp), args.fault_launches, io_rows / IO_ROWS)
    _time_startup()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
