"""Scan-kernel backend selection.

Prefers the compiled extension when it imported cleanly; otherwise uses the
pure-Python fallback. Set HEAVYTAIL_DISABLE_EXTENSION=1 to force the pure
path, for instance to time it where the extension is built; nothing in the
package, its tests or its benchmarks sets it. The backend-equivalence test
imports both modules directly. Both backends are bit-identical, so the
choice never changes results.

tn_scan_batch scans K rows at once. It picks its path from the backend and
from K: a loop over rows on the compiled tn_scan, a loop over rows on the
pure tn_scan below BATCH_MIN_ROWS, and the NumPy batch from _pure above.
All three give the same bits.
"""

import os

import numpy as np

from . import _pure

_impl = _pure
if not os.environ.get("HEAVYTAIL_DISABLE_EXTENSION"):
    try:
        from . import _core as _impl  # type: ignore[no-redef]
    except ImportError:
        pass

kahan_sum = _impl.kahan_sum
kahan_cumsum = _impl.kahan_cumsum
tn_scan = _impl.tn_scan

# Fewest rows for which the pure backend runs the NumPy batch instead of
# one Python scan per row. The batch costs a fixed few NumPy calls per step
# whatever K is; the row loop costs K Python scans. Measured with
# benchmarks/bench_kernels.py at N=1000 (2-core x86-64 host, Python 3.11,
# NumPy 2.4), batched vs row by row: K=4 2.1-3.7 vs 1.2-1.7 ms, K=8
# 3.5-3.8 vs 3.4-3.5 ms, K=10 2.1-4.3 vs 2.9-5.1 ms, K=16 2.0-3.7 vs
# 5.1-8.3 ms, K=64 2.2-4.8 vs 18.5-31.6 ms. Both costs grow linearly in N,
# so the crossover does not depend on it; at K=8 and K=10 the two overlap,
# so any value in 8-12 is within noise. The row loop matters most for
# small blocks: pstable_estimate scans permutations in blocks of at most
# 2^20 entries, so once N exceeds about 1.05e5 every block has fewer than
# 10 rows and takes the row loop, where a batch of one row costs several
# times the plain scan.
BATCH_MIN_ROWS = 10


def tn_scan_batch(z, p):
    """tn_scan of every row of a (K, N) matrix of increments.

    z[k, i] must hold (x_k[i] − mu_hat)·y_k[i], computed elementwise in
    float64; row k of the result is then bit-identical to
    tn_scan(x_k, y_k, mu_hat, p).
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("z must be a (K, N) matrix")
    if _impl is _pure and z.shape[0] >= BATCH_MIN_ROWS:
        return _pure.tn_scan_batch(z, p)
    # (z − 0.0)·1.0 is z exactly, so scanning z against unit multipliers
    # repeats the increments of the original scan bit for bit.
    ones = np.ones(z.shape[1])
    out = np.empty_like(z)
    for k in range(z.shape[0]):
        out[k] = tn_scan(z[k], ones, 0.0, p)
    return out


def backend() -> str:
    """Name of the active kernel backend: 'compiled' or 'pure'."""
    return "pure" if _impl is _pure else "compiled"
