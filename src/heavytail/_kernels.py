"""Compensated (Kahan) T_n scan kernels in Python and NumPy.

T_n = n^(−1/p)·S_n with S_n the Kahan sum of z_i = (x_i − μ̂)·y_i, whose
rounding error stays a constant times ε instead of n·ε (Kahan 1965; Higham,
Accuracy and Stability of Numerical Algorithms, ch. 4). The sum is
sequential: one sequence is a Python loop, K sequences a loop over i with
NumPy steps on all K partial sums. Both give the same bits.
"""

import math

import numpy as np

# Fewest rows for which tn_scan uses the NumPy batch, not a Python
# scan per row. Batch vs rows at N=1000 (benchmarks/bench_kernels.py, 2-core
# x86-64, Python 3.11, NumPy 2.4): K=10 1.9-3.5 vs 1.1-1.7 ms, K=20 2.0-2.1
# vs 2.0-2.7 ms, K=48 2.2-4.1 vs 5.0-8.0 ms. Both grow linearly in N.
BATCH_MIN_ROWS = 20


def _prefix_sums(values):
    """Kahan-compensated prefix sums of a float64 vector, left to right."""
    sums = []
    s = 0.0
    c = 0.0
    for v in np.asarray(values, dtype=np.float64).tolist():
        u = v - c
        t = s + u
        c = (t - s) - u
        s = t
        sums.append(s)
    return np.array(sums, dtype=np.float64)


def _batch_prefix_sums(z):
    """_prefix_sums of every row of a (K, N) matrix, one step for all rows."""
    k_rows, n = z.shape
    zt = np.ascontiguousarray(z.T)
    sums = np.empty((n, k_rows))
    s = np.zeros(k_rows)
    c = np.zeros(k_rows)
    u = np.empty(k_rows)
    for i in range(n):
        np.subtract(zt[i], c, out=u)
        t = sums[i]
        np.add(s, u, out=t)
        np.subtract(t, s, out=c)
        np.subtract(c, u, out=c)
        s = t
    return np.ascontiguousarray(sums.T)


def _scales(n, exponent):
    """(i+1)^(−exponent) for i = 0..n−1, each from math.pow."""
    neg = -float(exponent)
    return np.array([math.pow(i, neg) for i in range(1, n + 1)], dtype=np.float64)


def kahan_sum(values):
    """Compensated (Kahan) total of a float64 vector, left to right."""
    sums = _prefix_sums(values)
    return float(sums[-1]) if sums.size else 0.0


def tn_scan(z, p):
    """out[..., i] = (i+1)^(−1/p)·S_{i+1}, S_n the compensated sum of z_1..z_n.

    z holds the increments (x_i − μ̂)·y_i: one sequence, or K sequences as
    the rows of a (K, N) matrix, each scanned bit for bit as on its own.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        sums = _prefix_sums(z)
    elif z.ndim != 2:
        raise ValueError("z must be a sequence or a (K, N) matrix")
    elif z.shape[0] < BATCH_MIN_ROWS:
        sums = np.array([_prefix_sums(row) for row in z]).reshape(z.shape)
    else:
        sums = _batch_prefix_sums(z)
    return sums * _scales(z.shape[-1], 1.0 / p)


def backend() -> str:
    """Kernel implementation, recorded with benchmark results: always "pure"."""
    return "pure"
