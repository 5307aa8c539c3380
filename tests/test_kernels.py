"""Correctness, accuracy and pinned output bytes of the scan kernel."""

import hashlib
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from heavytail import _kernels
from heavytail._kernels import tn_scan


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_tn_scan_single_point():
    # one observation: t_1 = (x - mu) * y / 1
    out = np.asarray(tn_scan(np.array([(3.0 - 1.0) * 2.0]), 2.0))
    assert out.tolist() == [4.0]


def test_tn_scan_matches_direct_formula():
    g = _rng(4)
    x = g.standard_cauchy(257)
    y = g.standard_normal(257)
    mu, p = 0.3, 1.4
    w = (x - mu) * y
    out = np.asarray(tn_scan(w, p))
    expect = np.array([math.fsum(w[: n + 1]) * (n + 1) ** (-1.0 / p) for n in range(257)])
    np.testing.assert_allclose(out, expect, rtol=1e-12)


def _exact_prefix_ulps(sums, z):
    """Largest |sums_i − S_i| in ulps of S_i, S_i the exact prefix sum of z."""
    exact = Fraction(0)
    worst = Fraction(0)
    for got, v in zip(sums.tolist(), z.tolist()):
        exact += Fraction(v)
        err = abs(Fraction(got) - exact)
        if err:
            # an exact sum of 0 has no ulp to measure in; any error there fails
            assert exact != 0, "nonzero result where the exact prefix sum is 0"
            worst = max(worst, err / Fraction(math.ulp(float(exact))))
    return float(worst)


def _bounded_large(n, seed=8):
    """Magnitudes up to 8e307, each signed against the running sum so no prefix overflows."""
    total = 0.0
    out = []
    for v in _rng(seed).uniform(1e306, 8e307, n).tolist():
        v = -v if total > 0 else v
        out.append(v)
        total += v
    return np.array(out)


# Increments the scan must sum correctly rounded. On the cauchy and large
# inputs Kahan's loop, which the scan replaced, was off by up to 2,125 and
# 16,512 ulp, and plain cumsum by 14,485 and 20,352 ulp; all three are
# exact on the other two.
ACCURACY_INPUTS = {
    "cauchy": lambda: _rng(0).standard_cauchy(20_000),
    # ±1 steps: every partial sum is an integer, ties and exact zeros abound
    "walk": lambda: _rng(1).choice([-1.0, 1.0], 5_000),
    "signed_zeros": lambda: np.array([0.0, -0.0, -0.0, 1.5, -0.0, -1.5, 0.0, -0.0] * 50),
    "large": lambda: _bounded_large(2_000),
}


@pytest.mark.parametrize("kind", sorted(ACCURACY_INPUTS))
def test_prefix_sum_error_against_exact_sums(kind):
    z = ACCURACY_INPUTS[kind]()
    assert _exact_prefix_ulps(_kernels._prefix_sums(z), z) <= 0.5


def _golden_input(n=400, seed=2020):
    g = _rng(seed)
    x = g.standard_cauchy(n)
    y = g.standard_normal(n)
    y[::7] = 0.0
    y[3::11] = -0.0
    return g, x, y


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


# Digests of the kernel outputs on _golden_input, recorded when the Kahan
# loops gave way to the vectorised TwoSum scan.
GOLDEN = {
    "tn_scan": "fe46d98688b262d8c2780edfbaa8f0349cff4dd8b49bb845cd0d89c52601b38e",
    1: "cdb36d2a757179f6f5c60945e22dc2dd1f460fc69dfa5795098957bd8f56212a",
    9: "bab034619a5a1176abd9c3d059049ce71bfe4b4bad1b1746e996a668c287dd0e",
    10: "21c65e70652e99c127c20ed85646e522a349eb1ef48bdf3c85626a8098f75218",
    30: "5f1283169b48da2f1efb4a103c13e8b33f9be289102d23bde6b05df958b69d5e",
}


def test_kernel_output_bytes_are_pinned():
    g, x, y = _golden_input()
    mu, p = 0.25, 1.3
    assert _sha256(tn_scan((x - mu) * y, p)) == GOLDEN["tn_scan"]
    for k in (1, 9, 10, 30):
        perms = np.stack([g.permutation(len(x)) for _ in range(k)])
        assert _sha256(tn_scan((x - mu) * y[perms], p)) == GOLDEN[k], k


def test_empty_input():
    assert tn_scan(np.array([]), 1.5).size == 0


@pytest.mark.parametrize("p", [1.01, 1.1, 1.2, 1.5, 1.7, 2.0])
def test_scales_are_math_pow_bit_for_bit(p):
    # np.float_power's float64 loop calls the C library's pow, as math.pow
    # does; a NumPy release that gives it a SIMD loop, as np.power has,
    # would move the last bit of some entries and fail here
    n = 200_000
    reference = np.array([math.pow(i, -(1.0 / p)) for i in range(1, n + 1)])
    scales = _kernels._scales(n, 1.0 / p)
    assert scales.tobytes() == reference.tobytes()
    assert not scales.flags.writeable


def _permuted_rows(k_rows, kind, n=300, seed=6):
    """k_rows orderings of the (x, y) pairs and their increments z = (x − mu)·y."""
    g = _rng(seed)
    if kind == "walk":
        # x − mu = ±1 and zeros in y: partial sums return to exactly 0, tying T_n
        x = np.where(g.random(n) < 0.5, -0.75, 1.25)
        y = g.choice([-1.0, 0.0, 1.0], size=n)
    else:
        x = g.standard_cauchy(n)
        y = g.standard_normal(n)
    mu = 0.25
    perms = np.stack([g.permutation(n) for _ in range(k_rows)])
    return x[perms], y[perms], mu, ((x - mu) * y)[perms]


def _two_sum_loop(z, p):
    """tn_scan of each row of a matrix by a scalar Python TwoSum loop, the reference."""
    rows = []
    for row in z.tolist():
        sums, s, comp = [], 0.0, 0.0
        for v in row:
            t = s + v
            bb = t - s
            comp += (s - (t - bb)) + (v - bb)
            s = t
            sums.append(s + comp)
        rows.append(sums)
    return np.array(rows) * _kernels._scales(z.shape[1], 1.0 / p)


# Each row of a K-row matrix, laid out by rows or (fortran) by columns,
# against that row scanned alone, with tn_scan itself and with the scalar
# reference loop. The ids keep the names the suite has always reported.
@pytest.mark.parametrize("k_rows", [1, 9, 10, 30])
@pytest.mark.parametrize("fortran", [False, True])
@pytest.mark.parametrize(
    "batch", [tn_scan, _two_sum_loop], ids=["tn_scan_batch0", "tn_scan_batch1"]
)
@pytest.mark.parametrize("kind", ["cauchy", "walk"])
def test_tn_scan_batch_bit_identical_to_row_scans(k_rows, fortran, batch, kind):
    xs, ys, mu, z = _permuted_rows(k_rows, kind)
    out = batch(np.asfortranarray(z) if fortran else z, 1.3)
    assert out.shape == z.shape
    for k in range(k_rows):
        # bytes, not values: -0.0 and 0.0 must not pass for each other
        assert out[k].tobytes() == tn_scan((xs[k] - mu) * ys[k], 1.3).tobytes(), k


def test_tn_scan_batch_rejects_non_matrix():
    # one sequence or a (K, N) matrix; a scalar or a 3-D stack is neither
    for z in (np.float64(5.0), np.zeros((2, 3, 4))):
        with pytest.raises(ValueError):
            tn_scan(z, 1.5)


def test_kernel_benchmark_script_runs():
    # the script asserts the (K, N) scan bit-identical to one tn_scan per
    # row and the log-ECDF sort to a stable sort, so a kernel API change
    # that breaks it fails here
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--sizes", "1000", "--fault-launches", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "(64, 1000)" in proc.stdout
    assert "log_ecdf" in proc.stdout
