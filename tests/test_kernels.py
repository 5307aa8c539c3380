"""Correctness, pinned output bytes and batch paths of the scan kernels."""

import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heavytail import _kernels, kernel_backend
from heavytail._kernels import BATCH_MIN_ROWS, kahan_sum, tn_scan


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_kahan_sum_matches_fsum_exactly():
    x = _rng(1).standard_cauchy(10_000)
    assert kahan_sum(x) == pytest.approx(math.fsum(x), rel=0, abs=1e-9 * max(1.0, abs(math.fsum(x))))


def test_kahan_sum_bounds_accumulation_error():
    # repeated inexact increments: compensated error stays O(eps), not O(n eps)
    x = np.full(1_000_000, 0.1)
    exact = math.fsum(x)
    naive = 0.0
    for v in x[:100_000].tolist():
        naive += v
    # the plain left fold already drifts at 1e5 terms; kahan at 1e6 does not
    assert abs(naive - math.fsum(x[:100_000])) > 1e-10
    assert abs(kahan_sum(x) - exact) < 1e-9


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


def _golden_input(n=400, seed=2020):
    g = _rng(seed)
    x = g.standard_cauchy(n)
    y = g.standard_normal(n)
    y[::7] = 0.0
    y[3::11] = -0.0
    return g, x, y


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


# Digests of the kernel outputs on _golden_input, recorded from the
# earlier pure-Python kernels (whose output the compiled kernels matched
# bit for bit), so the rewritten kernels are held to the same bytes.
GOLDEN = {
    "tn_scan": "f775043af194ed3c8c34230c1301dedee2d13ff33230ab021cc620bc54ca7aa6",
    "kahan_sum": "a05351ba7b0ec3741b24a7d702268199abd8622dc9712595f2644532480d5c87",
    1: "77f1c7a6db58cd039e2803d0b915792f3417a0c591e9f6fe33477ef8c9a63d30",
    9: "dc94a40eba3163eccb3d8a880cfb44ef7fe2821aced276e67aaf232f050f81e3",
    10: "05f56f81a0415ec85448ebfc7dac069e256ce52c536488b5f53dda3109b0dddf",
    30: "e63cf8a921ee6fb00350c530f48c9dab1f16deed5557b08e2e2dac6253d56664",
}


def test_kernel_output_bytes_are_pinned():
    g, x, y = _golden_input()
    mu, p = 0.25, 1.3
    assert _sha256(tn_scan((x - mu) * y, p)) == GOLDEN["tn_scan"]
    assert _sha256(np.float64(kahan_sum(x))) == GOLDEN["kahan_sum"]
    for k in (1, 9, 10, 30):
        perms = np.stack([g.permutation(len(x)) for _ in range(k)])
        assert _sha256(tn_scan((x - mu) * y[perms], p)) == GOLDEN[k], k


def test_kernel_backend_is_pure():
    assert kernel_backend() == "pure"


def test_empty_input():
    assert kahan_sum(np.array([], dtype=np.float64)) == 0.0
    assert tn_scan(np.array([]), 1.5).size == 0


def _permuted_rows(k_rows, permute_pairs, kind, n=300, seed=6):
    """Permuted (x, y) rows and their increments z = (x − mu)·y."""
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
    xs = x[perms] if permute_pairs else np.broadcast_to(x, perms.shape)
    ys = y[perms]
    z = ((x - mu) * y)[perms] if permute_pairs else (x - mu) * y[perms]
    return xs, ys, mu, z


def _numpy_batch(z, p):
    """tn_scan of a matrix forced onto the NumPy batch path, whatever K is."""
    return _kernels._batch_prefix_sums(z) * _kernels._scales(z.shape[1], 1.0 / p)


# tn_scan scans a matrix of K = 1, 9 and 10 rows row by row and K = 30 as
# a NumPy batch; _numpy_batch takes the batch path at every K. The ids keep
# the names the suite has always reported.
@pytest.mark.parametrize("k_rows", [1, 9, 10, 30])
@pytest.mark.parametrize("permute_pairs", [False, True])
@pytest.mark.parametrize(
    "batch", [tn_scan, _numpy_batch], ids=["tn_scan_batch0", "tn_scan_batch1"]
)
@pytest.mark.parametrize("kind", ["cauchy", "walk"])
def test_tn_scan_batch_bit_identical_to_row_scans(k_rows, permute_pairs, batch, kind):
    xs, ys, mu, z = _permuted_rows(k_rows, permute_pairs, kind)
    out = batch(z, 1.3)
    assert out.shape == z.shape
    for k in range(k_rows):
        # bytes, not values: -0.0 and 0.0 must not pass for each other
        assert out[k].tobytes() == tn_scan((xs[k] - mu) * ys[k], 1.3).tobytes(), k


def test_fixed_row_counts_reach_both_batch_paths():
    # the batch tests here and in test_estimator use K = 1-10 for the row
    # loop and K = 20, 30 and 63 for the NumPy batch
    assert 10 < BATCH_MIN_ROWS <= 20


def test_tn_scan_batch_rejects_non_matrix():
    # one sequence or a (K, N) matrix; a scalar or a 3-D stack is neither
    for z in (np.float64(5.0), np.zeros((2, 3, 4))):
        with pytest.raises(ValueError):
            tn_scan(z, 1.5)


def test_kernel_benchmark_script_runs():
    # the script asserts its batch paths bit-identical to tn_scan, so a
    # kernel API change that breaks it fails here
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    proc = subprocess.run([sys.executable, str(script), "--sizes", "1000"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "BATCH_MIN_ROWS is" in proc.stdout
