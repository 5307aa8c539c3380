"""Time the scan kernel on one long sequence and on a (K, N) matrix, and
the log-ECDF sort on that matrix.

Run:  python3 benchmarks/bench_kernels.py [--sizes 10000,180000,1000000]

The table times tn_scan on the increments z = (x − μ̂)·y of one sequence
of each size (z is formed before timing); 180000
is the length of the long_estimate benchmark's scan. Its last line times
tn_scan on MATRIX_SHAPE, the permuted rows of one interval in the
permutation studies (fig5, fig6), after asserting each row bit-identical
to that row scanned alone. The two lines after it time the sorted points
and cumulative 1/n weights of those T_n rows: _sorted_log_ecdf, after
asserting its bytes equal to a stable sort of every row, and that stable
sort itself. The last lines time a cold build (cache cleared first) of the
CDF table of each cutoff power law in configs/fig6.yaml and of an Abelian
law at N = 10^6, after asserting each table's bytes equal to
np.cumsum(w) / total over the law's weights w.

The I/O lines time estimate's text layer at the long_estimate benchmark's
sizes. read times cli._read_observations (NumPy's C reader) on a file of
IO_ROWS values written with %.17g, after asserting its bytes equal to
those of the line loop cli._read_rows, which read_loop times. write times
experiments.write_tn_ecdf_csv, which formats each T_n once for tn.csv and
ecdf.csv, on IO_ROWS - IO_ROWS // 10 points with a burn-in of 100, after
asserting both files equal to write_csv called once per file on the float
arrays, which write_2x times.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np
import yaml

from heavytail import experiments
from heavytail._kernels import tn_scan
from heavytail.abelian import AbelianParams, abelian_pmf_vector
from heavytail.cli import _read_observations, _read_rows
from heavytail.estimator import _sorted_log_ecdf, build_log_ecdf
from heavytail.rng import _build_table, build_distribution, law_table

FIG6_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fig6.yaml"

# The identity and 63 permutations of an estimation segment of 1000 points.
MATRIX_SHAPE = (64, 1000)
# Rows of the long_estimate input; its pilot takes the first tenth.
IO_ROWS = 200_000
IO_BURN_IN = 100


def _time(fn, *args, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _stable_log_ecdf(tn: np.ndarray):
    """Every row of tn sorted stably, and its 1/n weights summed in that order."""
    order = np.argsort(tn, axis=1, kind="stable")
    weights = 1.0 / np.arange(1, tn.shape[1] + 1, dtype=np.float64)
    cum = np.cumsum(weights[order], axis=1)
    cum /= cum[:, -1:]
    return np.take_along_axis(tn, order, axis=1), cum


def _write_twice(tmp: Path, tn: np.ndarray, ecdf) -> None:
    """tn.csv and ecdf.csv through write_csv on the float arrays, one repr per cell."""
    experiments.write_csv(str(tmp / "tn_2x.csv"), ["n", "t_n"], [range(1, tn.size + 1), tn])
    experiments.write_ecdf_csv(str(tmp / "ecdf_2x.csv"), ecdf)


def _time_io(rng, tmp: Path) -> None:
    x = 3.0 * (1.0 + rng.pareto(2.0, IO_ROWS))
    path = tmp / "input.csv"
    np.savetxt(path, x * np.maximum(np.log(x), 1.0), fmt="%.17g")
    assert _read_observations(str(path)).tobytes() == _read_rows(str(path)).tobytes()
    rows = f"{IO_ROWS}"
    print(f"{'read':10s} {rows:>12s} {1e3 * _time(_read_observations, str(path), repeats=3):10.2f}")
    print(f"{'read_loop':10s} {rows:>12s} {1e3 * _time(_read_rows, str(path), repeats=3):10.2f}")

    tn = rng.standard_cauchy(IO_ROWS - IO_ROWS // 10)
    ecdf = build_log_ecdf(tn, IO_BURN_IN)
    args = (str(tmp / "tn.csv"), str(tmp / "ecdf.csv"), tn, ecdf, IO_BURN_IN)
    experiments.write_tn_ecdf_csv(*args)
    _write_twice(tmp, tn, ecdf)
    for name in ("tn", "ecdf"):
        assert (tmp / f"{name}.csv").read_bytes() == (tmp / f"{name}_2x.csv").read_bytes()
    points = f"{tn.size}"
    print(f"{'write':10s} {points:>12s} {1e3 * _time(experiments.write_tn_ecdf_csv, *args, repeats=3):10.2f}")
    print(f"{'write_2x':10s} {points:>12s} {1e3 * _time(_write_twice, tmp, tn, ecdf, repeats=3):10.2f}")


def _cold_table(law):
    _build_table.cache_clear()
    return law_table(law)


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
    args = parser.parse_args()
    rng = np.random.default_rng(12345)
    print(f"{'kernel':10s} {'shape':>12s} {'time (ms)':>10s}")
    for n in (int(s) for s in args.sizes.split(",")):
        x = rng.standard_cauchy(n)
        y = rng.standard_normal(n) + 1.0
        print(f"{'tn_scan':10s} {n:12d} {1e3 * _time(tn_scan, (x - 0.5) * y, 1.5):10.2f}")

    k_rows, n = MATRIX_SHAPE
    x = rng.pareto(2.0, n) + 3.0
    y = rng.standard_normal(n)
    mu, p = 4.0, 1.2
    perms = np.stack([rng.permutation(n) for _ in range(k_rows)])
    z = (x - mu) * y[perms]
    ref = np.stack([tn_scan(row, p) for row in z])
    assert tn_scan(z, p).tobytes() == ref.tobytes()
    shape = f"({k_rows}, {n})"
    print(f"{'tn_scan':10s} {shape:>12s} {1e3 * _time(tn_scan, z, p):10.2f}")
    tn = tn_scan(z, p)
    points, cum = _sorted_log_ecdf(tn, 0)
    ref_points, ref_cum = _stable_log_ecdf(tn)
    assert points.tobytes() == ref_points.tobytes() and cum.tobytes() == ref_cum.tobytes()
    print(f"{'log_ecdf':10s} {shape:>12s} {1e3 * _time(_sorted_log_ecdf, tn, 0):10.2f}")
    print(f"{'stable':10s} {shape:>12s} {1e3 * _time(_stable_log_ecdf, tn):10.2f}")
    for label, law, w in _tabled_laws():
        cum = np.cumsum(w)
        assert _cold_table(law)[0].tobytes() == (cum / cum[-1]).tobytes()
        print(f"{'table':10s} {label:>12s} {1e3 * _time(_cold_table, law):10.2f}")
    with tempfile.TemporaryDirectory() as tmp:
        _time_io(rng, Path(tmp))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
