"""Compensated T_n scan kernel in NumPy.

T_n = n^(−1/p)·S_n with S_n the compensated prefix sum of z_i = (x_i − μ̂)·y_i.
The scan is Sum2 of Ogita, Rump & Oishi ("Accurate sum and dot product",
SIAM J. Sci. Comput. 2005) in prefix form: s = cumsum(z) left to right, the
exact rounding error of each step s_i = fl(s_{i−1} + z_i) by Knuth's TwoSum,
and the running sum of those errors added back. The result is as accurate
as a plain sum in twice the working precision, rounded once more. Every
step is a NumPy operation along the last axis, so one sequence and each row
of a (K, N) matrix get the same operations in the same order and the same
bits. The scales (i+1)^(−1/p) come from np.float_power, whose float64 loop
calls the C library's pow once per element, as math.pow does; np.power's
SIMD loop differs from it in the last bit of some entries.
"""

from functools import lru_cache

import numpy as np


def _prefix_sums(z):
    """Compensated prefix sums along the last axis, left to right.

    np.cumsum is a sequential fold (np.add.accumulate), so s_i is exactly
    fl(s_{i−1} + z_i) and TwoSum gives its error exactly:
    with a = s_{i−1} (0 first) and bb = s_i − a,
    err_i = (a − (s_i − bb)) + (z_i − bb). Two (…, N) temporaries besides
    the result.
    """
    z = np.asarray(z, dtype=np.float64)
    s = np.cumsum(z, axis=-1)
    bb = np.empty_like(s)
    bb[..., :1] = s[..., :1]
    np.subtract(s[..., 1:], s[..., :-1], out=bb[..., 1:])
    err = np.subtract(s, bb)
    # a − (s − bb), with a the sum before each step and 0.0 before the first
    np.subtract(s[..., :-1], err[..., 1:], out=err[..., 1:])
    np.subtract(0.0, err[..., :1], out=err[..., :1])
    np.subtract(z, bb, out=bb)
    np.add(err, bb, out=err)
    np.cumsum(err, axis=-1, out=err)
    return np.add(s, err, out=s)


@lru_cache(maxsize=4)
def _scales(n, exponent):
    """(i+1)^(−exponent) for i = 0..n−1, each the C library's pow, bit for
    bit math.pow: np.float_power has no SIMD loop, where np.power's differs
    in some entries. Read-only, as every call with (n, exponent) shares it."""
    scales = np.float_power(np.arange(1.0, n + 1), -float(exponent))
    scales.flags.writeable = False
    return scales


def tn_scan(z, p):
    """out[..., i] = (i+1)^(−1/p)·S_{i+1}, S_n the compensated sum of z_1..z_n.

    z holds the increments (x_i − μ̂)·y_i: one sequence, or K sequences as
    the rows of a (K, N) matrix, each scanned bit for bit as on its own.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2):
        raise ValueError("z must be a sequence or a (K, N) matrix")
    sums = _prefix_sums(z)
    sums *= _scales(z.shape[-1], 1.0 / p)
    return sums

