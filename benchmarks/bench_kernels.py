"""Time the scan kernels: one long sequence, and batched vs row by row.

Run:  python3 benchmarks/bench_kernels.py [--sizes 10000,180000,1000000]

The first table times kahan_sum and tn_scan on one sequence of each size
(tn_scan on the increments z = (x − μ̂)·y, formed before timing).
One sequence is a Python loop, because the running compensation term
keeps NumPy from vectorizing along it; 180000 is the length of the
long_estimate benchmark's scan. The second table scans K permuted rows
of length BATCH_N, for each K in ROWS, once with the NumPy batch
(vectorised across rows) and once row by row, and prints the smallest K
from which the batch wins. That crossover is the value to keep in
heavytail._kernels.BATCH_MIN_ROWS. Both batch paths are asserted
bit-identical to one tn_scan per row.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from heavytail import _kernels
from heavytail._kernels import BATCH_MIN_ROWS, kahan_sum, tn_scan

# Row counts K and row length N of the batched-vs-row-loop table; the rows
# straddle BATCH_MIN_ROWS and N matches the permutation studies (fig5, fig6).
ROWS = (4, 8, 12, 16, 20, 24, 32, 64)
BATCH_N = 1000


def _time(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _numpy_batch(z, p):
    return _kernels._batch_prefix_sums(z) * _kernels._scales(z.shape[1], 1.0 / p)


def _row_loop(z, p):
    sums = np.stack([_kernels._prefix_sums(row) for row in z])
    return sums * _kernels._scales(z.shape[1], 1.0 / p)


def _single(sizes, rng) -> None:
    print(f"{'kernel':10s} {'n':>9s} {'time (s)':>10s}")
    for n in sizes:
        x = rng.standard_cauchy(n)
        y = rng.standard_normal(n) + 1.0
        print(f"{'kahan_sum':10s} {n:9d} {_time(kahan_sum, x):10.4f}")
        print(f"{'tn_scan':10s} {n:9d} {_time(tn_scan, (x - 0.5) * y, 1.5):10.4f}")


def _batch_vs_rows(row_counts, n, rng) -> None:
    x = rng.pareto(2.0, n) + 3.0
    y = rng.standard_normal(n)
    mu, p = 4.0, 1.2
    print(f"\npermuted T_n scans, N={n}")
    print(f"{'K':>5s} {'batch (ms)':>11s} {'rows (ms)':>10s} {'rows/batch':>11s}")
    crossover = None
    for k in row_counts:
        perms = np.stack([rng.permutation(n) for _ in range(k)])
        z = (x - mu) * y[perms]
        ref = np.stack([tn_scan((x - mu) * y[perm], p) for perm in perms])
        assert np.array_equal(_numpy_batch(z, p), ref), k
        assert np.array_equal(_row_loop(z, p), ref), k
        t_batch = _time(_numpy_batch, z, p, repeats=5)
        t_rows = _time(_row_loop, z, p, repeats=5)
        if t_batch < t_rows and crossover is None:
            crossover = k
        elif t_batch >= t_rows:
            crossover = None
        print(f"{k:5d} {1e3 * t_batch:11.2f} {1e3 * t_rows:10.2f} {t_rows / t_batch:10.1f}x")
    found = "none in the tested range" if crossover is None else f"K={crossover}"
    print(f"batch faster from {found} on; BATCH_MIN_ROWS is {BATCH_MIN_ROWS}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="10000,180000,1000000")
    args = parser.parse_args()
    rng = np.random.default_rng(12345)
    _single([int(s) for s in args.sizes.split(",")], rng)
    _batch_vs_rows(ROWS, BATCH_N, rng)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
