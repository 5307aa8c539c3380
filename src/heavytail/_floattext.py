"""repr text of float64 and int64 arrays, built with NumPy array operations.

float_slots(values) gives, for every value, the bytes of repr(float(v)):
the shortest decimal that reads back as v, and of those the nearest to v.
The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), which finds the same digits as Ryū (U. Adams, PLDI 2018)
and as CPython's _Py_dg_dtoa in mode 0. The layout is CPython's short repr:
fixed notation when −4 < decpt ≤ 16 (a ".0" after an integer), else
d.ddde±XX with at least two exponent digits, and "inf", "-inf", "nan".

A value's text sits in one row of a uint8 "slot" array, with 0 bytes as
padding anywhere in the row: the sign, then the digits right-aligned in a
24-byte row with the point in place of a 0 digit, then the exponent. The
CSV layout, which joins slot rows into lines and drops the padding, is
experiments.rows_text. Every step is a NumPy operation over a whole chunk;
no Python code runs per value.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
# Exponents e of the 10^e table: −k over the k = ⌊log10 2^q⌋ of every double.
_E_MIN, _E_MAX = -292, 324
# The widest slot row: the sign, bytes 2…23 of the digit words and "e-308".
_WIDTH = 28
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
_MINUS = ord("-")


def _byte_masks(keep) -> np.ndarray:
    """(25, 3) uint64: row i has 0xFF in the bytes j of 0…23 where keep(i, j)."""
    rows = [[0xFF if keep(i, j) else 0 for j in range(24)] for i in range(25)]
    return np.array(rows, dtype=np.uint8).view(np.uint64)


# _FROM[i] keeps bytes i…23 of a 24-byte row, and _POINT[i] turns a "0" at
# byte i into "." (none at 24).
_FROM = _byte_masks(lambda i, j: j >= i)
_POINT = _byte_masks(lambda i, j: j == i) & _U(0x1E1E1E1E1E1E1E1E)
_NAN, _INF = np.frombuffer(b"nan", dtype=np.uint8), np.frombuffer(b"inf", dtype=np.uint8)


@cache
def _suffixes() -> np.ndarray:
    """The S5 suffixes of exponents −324…308 ("e-324"…"e+308"), then one of 0 bytes."""
    return np.array([b"e%+03d" % power for power in range(-324, 309)] + [b""], dtype="S5")


@cache
def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """High and low words of g = ⌊10^e·2^(127 − ⌊log2 10^e⌋)⌋ + 1, e = _E_MIN…_E_MAX."""
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e >= 0:
            p = 10**e
            shift = 127 - (p.bit_length() - 1)
            g = p << shift if shift >= 0 else p >> -shift
        else:
            p = 10**-e  # never a power of two, so ⌊log2 10^e⌋ = −bit_length
            g = (1 << (127 + p.bit_length())) // p
        g += 1
        hi.append(g >> 64)
        lo.append(g & 0xFFFFFFFFFFFFFFFF)
    return np.array(hi, dtype=np.uint64), np.array(lo, dtype=np.uint64)


def _mulhi(a, b):
    """High 64 bits of the 128-bit products a·b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> _U(32), b & _M32, b >> _U(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U(32)) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))


def _product(g_hi, g_lo, cp):
    """The words of the 192-bit products g·cp, lowest first."""
    x1 = _mulhi(g_lo, cp)
    middle = g_hi * cp + x1
    return g_lo * cp, middle, _mulhi(g_hi, cp) + (middle < x1)


def _shifted(g_hi, g_lo, s):
    """The words of the 192-bit g·2^s, 0 < s < 64, lowest first."""
    back = _U(64) - s
    return g_lo << s, (g_hi << s) | (g_lo >> back), g_hi >> back


def _add(p, q):
    """p + q of 192-bit words."""
    low, middle = p[0] + q[0], p[1] + q[1]
    carry = low < q[0]
    over = middle < q[1]
    middle += carry
    return low, middle, p[2] + q[2] + (over | (middle < carry))


def _subtract(p, q):
    """p − q of 192-bit words, p ≥ q."""
    borrow = p[0] < q[0]
    middle = p[1] - q[1]
    under = (p[1] < q[1]) | (middle < borrow)
    return p[0] - q[0], middle - borrow, p[2] - q[2] - under


def _round_to_odd(words):
    """The top word, its lowest bit set if the middle word is above 1."""
    return words[2] | (words[1] > _U(1))


def _shortest(bits):
    """Digits d and exponent e with d·10^e the repr value of each finite nonzero double.

    bits are the doubles' IEEE words; d has no trailing zeros.
    """
    fraction = bits & _U((1 << 52) - 1)
    biased = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    normal = biased != 0
    c = np.where(normal, fraction | _U(1 << 52), fraction)
    q = np.where(normal, biased - 1075, -1074)
    closer = (fraction == 0) & (biased > 1)
    k = (q * 1262611 - np.where(closer, 524031, 0)) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)
    g_hi, g_lo = _g_table()
    g_hi, g_lo = g_hi[-k - _E_MIN], g_lo[-k - _E_MIN]
    # g·(cb << h) once; the boundaries' products add g·(2 << h) to it, or
    # take g·(2 << h) or, for a closer lower boundary, g·(1 << h) from it
    cb = c << _U(2)
    product = _product(g_hi, g_lo, cb << h)
    vb = _round_to_odd(product)
    # the interval's ends, each in it only for an even c
    odd = c & _U(1)
    lower = _round_to_odd(_subtract(product, _shifted(g_hi, g_lo, h + _U(1) - closer)))
    upper = _round_to_odd(_add(product, _shifted(g_hi, g_lo, h + _U(1))))
    lower += odd
    upper -= odd

    s = vb >> _U(2)
    sp = s // _U(10)
    up_in = lower <= sp * _U(40)
    wp_in = sp * _U(40) + _U(40) <= upper
    short = up_in != wp_in
    u_in = lower <= s << _U(2)
    w_in = (s << _U(2)) + _U(4) <= upper
    mid = (s << _U(2)) + _U(2)
    up = np.where(u_in != w_in, w_in, (vb > mid) | ((vb == mid) & (s & _U(1) == 1)))
    d = np.where(short, sp + wp_in, s + up)
    e = k + short
    for n in (16, 8, 4, 2, 1):
        cut = d // _POW10[n]
        whole = cut * _POW10[n] == d
        d = np.where(whole, cut, d)
        e += whole * n
    return d, e


def _eight_digits(x):
    """The eight ASCII digits of each x < 10^8 as one uint64, first digit in the low byte.

    SWAR: split into 4-digit halves in 32-bit lanes, then 2-digit halves in
    16-bit lanes (x // 100 as (x·5243) >> 19), then digits in bytes
    (x // 10 as (x·103) >> 10); no lane overflows into the next.
    """
    hi = x // _U(10000)
    v = hi | ((x - hi * _U(10000)) << _U(32))
    q = ((v * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)
    v = q | ((v - q * _U(100)) << _U(16))
    q = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)
    v = q | ((v - q * _U(10)) << _U(8))
    return v | _U(0x3030303030303030)


def _text(m, start, point=None):
    """Bytes min(start)…23 of a 24-byte row of the ASCII digits of each uint64 m,
    zero-padded, with the bytes before start[i] 0 and, where point[i] < 24,
    the 0 digit at byte point[i] turned into ".". Only the 8-digit words that
    reach min(start) are formed.
    """
    first = int(start.min(initial=23))
    words = 3 - first // 8
    parts = []
    for _ in range(words - 1):
        cut = m // _POW10[8]
        parts.append(m - cut * _POW10[8])
        m = cut
    text = _eight_digits(np.stack([m, *reversed(parts)], axis=1))
    text &= np.take(_FROM[:, 3 - words:], start, axis=0)
    if point is not None:
        text ^= np.take(_POINT[:, 3 - words:], point, axis=0)
    return text.view(np.uint8)[:, first % 8:]


def _ndigits(x):
    """Decimal digits of each uint64, 1 for 0."""
    return np.maximum(np.searchsorted(_POW10, x, side="right"), 1)


def int_slots(values) -> np.ndarray:
    """(n, w) slot rows holding str(v) of each int64 value."""
    values = np.asarray(values, dtype=np.int64)
    magnitude = np.abs(values).astype(np.uint64)  # −2^63 wraps to its own magnitude
    text = _text(magnitude, 24 - _ndigits(magnitude))
    out = np.empty((values.size, 1 + text.shape[1]), dtype=np.uint8)
    out[:, 0] = np.where(values < 0, _MINUS, 0)
    out[:, 1:] = text
    return out


def float_slots(values, chunk_rows: int = 1 << 14) -> np.ndarray:
    """(n, w) C-contiguous slot rows holding repr(float(v)) of each value,
    chunk_rows at a time.

    Each chunk's rows go into _WIDTH-byte rows; once the widest chunk gives
    w, the rows are packed to w bytes in the same buffer, front to back, so
    no chunk's rows land on rows not yet packed.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size <= chunk_rows:
        return _float_slots(values)
    out = np.zeros((values.size, _WIDTH), dtype=np.uint8)
    width = 0
    for s in range(0, values.size, chunk_rows):
        part = _float_slots(values[s:s + chunk_rows])
        out[s:s + len(part), :part.shape[1]] = part
        width = max(width, part.shape[1])
    packed = out.reshape(-1)[:values.size * width].reshape(-1, width)
    for s in range(0, values.size, chunk_rows):
        packed[s:s + chunk_rows] = out[s:s + chunk_rows, :width]
    return packed


def _float_slots(values) -> np.ndarray:
    """float_slots of one chunk of float64 values."""
    bits = values.view(np.uint64)
    finite = np.isfinite(values)
    nonzero = finite & (values != 0.0)
    d, e = _shortest(bits)
    d = np.where(nonzero, d, _U(0))
    e = np.where(nonzero, e, 0)
    count = _ndigits(d)
    decpt = e + count
    exponent = nonzero & ((decpt <= -4) | (decpt > 16))
    # m·10^−after is the value in fixed notation, where an integer gets one
    # 0 after the point, and the mantissa d.ddd in exponent form
    m = d * _POW10[np.where(exponent, 0, np.maximum(e + 1, 0))]
    after = np.where(exponent, count - 1, np.maximum(-e, 1))
    before = np.where(exponent, 1, np.maximum(decpt, 1))
    # a 0 digit opens between the integer and the fraction digits and
    # becomes the point; d.ddde±XX with one digit has none
    dotted = after > 0
    scale = _POW10[np.minimum(after, 19)]  # after > 17 only below 1, where m < 10^17
    m += (m // scale) * scale * (_U(9) * dotted)
    text = _text(m, 23 - after - before + ~dotted, np.where(dotted, 23 - after, 24))
    width = 1 + text.shape[1]
    exponent_width = 5 if exponent.any() else 0
    out = np.empty((values.size, width + exponent_width), dtype=np.uint8)
    negative = (bits >> _U(63)).astype(bool) & ~np.isnan(values)
    out[:, 0] = np.where(negative, _MINUS, 0)
    out[:, 1:width] = text
    if exponent_width:
        suffix = np.take(_suffixes(), np.where(exponent, decpt + 323, -1))
        out[:, width:] = suffix.view(np.uint8).reshape(-1, exponent_width)
    special = ~finite
    if special.any():
        out[special, 1:] = 0
        nan = np.isnan(values[special])[:, None]
        out[special, 1:4] = np.where(nan, _NAN, _INF)
    return out
