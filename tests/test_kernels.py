"""Backend equivalence and correctness of the compensated-scan kernels."""

import math

import numpy as np
import pytest

from heavytail._kernels import BATCH_MIN_ROWS, _pure, backend
from heavytail._kernels import kahan_cumsum, kahan_sum, tn_scan, tn_scan_batch

try:
    from heavytail._kernels import _core
except ImportError:
    _core = None


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


def test_kahan_cumsum_prefixes_are_kahan_sums():
    x = _rng(2).standard_normal(500) * 10.0 ** _rng(3).integers(-8, 8, 500)
    cs = np.asarray(kahan_cumsum(x))
    for k in (1, 7, 499):
        assert cs[k] == pytest.approx(math.fsum(x[: k + 1]), rel=1e-12)


def test_tn_scan_single_point():
    # one observation: t_1 = (x - mu) * y / 1
    out = np.asarray(tn_scan(np.array([3.0]), np.array([2.0]), 1.0, 2.0))
    assert out.tolist() == [4.0]


def test_tn_scan_matches_direct_formula():
    g = _rng(4)
    x = g.standard_cauchy(257)
    y = g.standard_normal(257)
    mu, p = 0.3, 1.4
    out = np.asarray(tn_scan(x, y, mu, p))
    w = (x - mu) * y
    expect = np.array([math.fsum(w[: n + 1]) * (n + 1) ** (-1.0 / p) for n in range(257)])
    np.testing.assert_allclose(out, expect, rtol=1e-12)


@pytest.mark.skipif(_core is None, reason="compiled backend not built")
def test_backends_bit_identical():
    g = _rng(5)
    x = g.standard_cauchy(4096)
    y = g.standard_normal(4096) + 1.0
    for fn in ("kahan_sum", "kahan_cumsum"):
        a = np.asarray(getattr(_core, fn)(x))
        b = np.asarray(getattr(_pure, fn)(x))
        assert np.array_equal(a, b), fn
    a = np.asarray(_core.tn_scan(x, y, 0.25, 1.3))
    b = np.asarray(_pure.tn_scan(x, y, 0.25, 1.3))
    assert np.array_equal(a, b)


def test_backend_reports_a_known_name():
    assert backend() in ("compiled", "pure")


def test_empty_input():
    assert kahan_sum(np.array([], dtype=np.float64)) == 0.0
    assert np.asarray(kahan_cumsum(np.array([], dtype=np.float64))).size == 0


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


@pytest.mark.parametrize("k_rows", [1, BATCH_MIN_ROWS - 1, BATCH_MIN_ROWS, 3 * BATCH_MIN_ROWS])
@pytest.mark.parametrize("permute_pairs", [False, True])
@pytest.mark.parametrize("batch", [tn_scan_batch, _pure.tn_scan_batch])
@pytest.mark.parametrize("kind", ["cauchy", "walk"])
def test_tn_scan_batch_bit_identical_to_row_scans(k_rows, permute_pairs, batch, kind):
    xs, ys, mu, z = _permuted_rows(k_rows, permute_pairs, kind)
    out = batch(z, 1.3)
    assert out.shape == z.shape
    for k in range(k_rows):
        # bytes, not values: -0.0 and 0.0 must not pass for each other
        assert out[k].tobytes() == _pure.tn_scan(xs[k], ys[k], mu, 1.3).tobytes(), k


def test_tn_scan_batch_rejects_non_matrix():
    with pytest.raises(ValueError):
        tn_scan_batch(np.zeros(5), 1.5)
