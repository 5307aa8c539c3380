"""Time the scan kernels: compiled vs pure-Python, and batched vs row by row.

Run:  python3 benchmarks/bench_kernels.py [--sizes 10000,100000,1000000]

The first table compares the compiled kernels against the pure-Python
fallback; the compiled path is the constant factor on the sequential
scans, which NumPy cannot vectorize along one sequence because of the
running compensation term. The second table scans K permuted rows of
length BATCH_N with the pure backend, for each K in ROWS, once with the
NumPy batch (_pure.tn_scan_batch, vectorised across rows) and once row by
row, and prints the smallest K from which the batch wins. That crossover
is the value to keep in heavytail._kernels.BATCH_MIN_ROWS. Where the
compiled backend is built, its row-by-row time is printed too;
tn_scan_batch always takes that path there. Every output is asserted
bit-identical to its reference.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from heavytail._kernels import BATCH_MIN_ROWS, _pure

# Row counts K and row length N of the batched-vs-row-loop table; the rows
# straddle BATCH_MIN_ROWS and N matches the permutation studies (fig5, fig6).
ROWS = (4, 8, 10, 12, 16, 64)
BATCH_N = 1000


def _load_compiled():
    try:
        from heavytail._kernels import _core
    except ImportError:
        return None
    return _core


def _time(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _row_loop(scan, z, p):
    ones = np.ones(z.shape[1])
    return np.stack([scan(row, ones, 0.0, p) for row in z])


def _backends(sizes, rng, core) -> None:
    if core is None:
        print("compiled backend unavailable; timing the pure path only")
    print(f"{'kernel':12s} {'n':>9s} {'pure (s)':>10s} {'compiled':>10s} {'speedup':>8s}")
    for n in sizes:
        x = rng.standard_cauchy(n)
        y = rng.standard_normal(n) + 1.0
        cases = [
            ("kahan_sum", (x,)),
            ("kahan_cumsum", (x,)),
            ("tn_scan", (x, y, 0.5, 1.5)),
        ]
        for name, call_args in cases:
            t_pure = _time(getattr(_pure, name), *call_args)
            if core is not None:
                t_core = _time(getattr(core, name), *call_args)
                out_p = getattr(_pure, name)(*call_args)
                out_c = getattr(core, name)(*call_args)
                assert np.array_equal(np.asarray(out_p), np.asarray(out_c)), name
                print(
                    f"{name:12s} {n:9d} {t_pure:10.4f} {t_core:10.4f} "
                    f"{t_pure / t_core:7.1f}x"
                )
            else:
                print(f"{name:12s} {n:9d} {t_pure:10.4f} {'-':>10s} {'-':>8s}")


def _batch_vs_rows(row_counts, n, rng, core) -> None:
    x = rng.pareto(2.0, n) + 3.0
    y = rng.standard_normal(n)
    mu, p = 4.0, 1.2
    print(f"\npermuted T_n scans, pure backend, N={n}")
    print(f"{'K':>5s} {'batch (ms)':>11s} {'rows (ms)':>10s} {'rows/batch':>11s} {'compiled rows':>14s}")
    crossover = None
    for k in row_counts:
        perms = np.stack([rng.permutation(n) for _ in range(k)])
        z = (x - mu) * y[perms]
        ref = np.stack([_pure.tn_scan(x, y[perm], mu, p) for perm in perms])
        assert np.array_equal(_pure.tn_scan_batch(z, p), ref), k
        assert np.array_equal(_row_loop(_pure.tn_scan, z, p), ref), k
        t_batch = _time(_pure.tn_scan_batch, z, p, repeats=5)
        t_rows = _time(_row_loop, _pure.tn_scan, z, p, repeats=5)
        if t_batch < t_rows and crossover is None:
            crossover = k
        elif t_batch >= t_rows:
            crossover = None
        t_core = "-"
        if core is not None:
            assert np.array_equal(_row_loop(core.tn_scan, z, p), ref), k
            t_core = f"{1e3 * _time(_row_loop, core.tn_scan, z, p, repeats=5):.2f}"
        print(
            f"{k:5d} {1e3 * t_batch:11.2f} {1e3 * t_rows:10.2f} "
            f"{t_rows / t_batch:10.1f}x {t_core:>14s}"
        )
    found = "none in the tested range" if crossover is None else f"K={crossover}"
    print(f"batch faster from {found} on; BATCH_MIN_ROWS is {BATCH_MIN_ROWS}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="10000,100000,1000000")
    args = parser.parse_args()
    rng = np.random.default_rng(12345)
    core = _load_compiled()
    _backends([int(s) for s in args.sizes.split(",")], rng, core)
    _batch_vs_rows(ROWS, BATCH_N, rng, core)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
