"""Pure-Python scan kernels, operation-for-operation identical to _core.pyx.

Every arithmetic step happens in the same order as in the compiled
extension, so the two backends produce bit-identical float64 output.
tn_scan_batch vectorises tn_scan across rows: the same IEEE operations in
the same order per row, with NumPy doing each step for all rows at once.
"""

import math

import numpy as np


def kahan_sum(values):
    """Compensated (Kahan) total of a float64 vector, left to right."""
    s = 0.0
    c = 0.0
    for v in np.ascontiguousarray(values, dtype=np.float64).tolist():
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def kahan_cumsum(values):
    """Compensated prefix sums of a float64 vector, left to right."""
    vals = np.ascontiguousarray(values, dtype=np.float64).tolist()
    out = np.empty(len(vals), dtype=np.float64)
    s = 0.0
    c = 0.0
    for i, v in enumerate(vals):
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
        out[i] = s
    return out


def tn_scan(x, y, mu_hat, p):
    """Resampled-statistic scan.

    out[i] = (i+1)^(-1/p) * S_{i+1} where S_n is the compensated prefix
    sum of (x_k - mu_hat) * y_k over k = 1..n.
    """
    xs = np.ascontiguousarray(x, dtype=np.float64).tolist()
    ys = np.ascontiguousarray(y, dtype=np.float64).tolist()
    if len(xs) != len(ys):
        raise ValueError("x and y must have equal length")
    out = np.empty(len(xs), dtype=np.float64)
    mu_hat = float(mu_hat)
    neg_inv_p = -1.0 / float(p)
    s = 0.0
    c = 0.0
    for i, (xv, yv) in enumerate(zip(xs, ys)):
        z = (xv - mu_hat) * yv
        u = z - c
        t = s + u
        c = (t - s) - u
        s = t
        out[i] = s * math.pow(i + 1, neg_inv_p)
    return out


def tn_scan_batch(z, p):
    """tn_scan of every row of a (K, N) increment matrix.

    z[k, i] is the increment (x_k[i] − mu_hat)·y_k[i]. The compensated sum
    runs over i with one NumPy operation per step on the K-vector of
    partial sums; the scale (i+1)^(−1/p) comes from math.pow as in tn_scan.
    """
    k_rows, n = z.shape
    zt = np.ascontiguousarray(z.T)
    sums = np.empty((n, k_rows), dtype=np.float64)
    s = np.zeros(k_rows, dtype=np.float64)
    c = np.zeros(k_rows, dtype=np.float64)
    u = np.empty(k_rows, dtype=np.float64)
    for i in range(n):
        np.subtract(zt[i], c, out=u)
        t = sums[i]
        np.add(s, u, out=t)
        np.subtract(t, s, out=c)
        np.subtract(c, u, out=c)
        s = t
    neg_inv_p = -1.0 / float(p)
    scale = np.array([math.pow(i, neg_inv_p) for i in range(1, n + 1)], dtype=np.float64)
    sums *= scale[:, None]
    return np.ascontiguousarray(sums.T)
