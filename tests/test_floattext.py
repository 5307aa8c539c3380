"""The array kernel for CSV text gives exactly repr(float) and str(int)."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heavytail import _floattext
from heavytail._floattext import float_slots, int_slots
from heavytail.experiments import rows_text

_INT64 = np.iinfo(np.int64)


def _lines(slots) -> bytes:
    """The slot rows as text lines, padding dropped."""
    return rows_text([slots])


def _assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    expected = "".join(f"{v!r}\n" for v in values.tolist()).encode()
    assert _lines(float_slots(values)) == expected


def _ulp_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    # every exponent, subnormals, infinities and NaN payloads, both signs
    bits = np.random.default_rng(20201008).integers(0, 2**64, 10**6, dtype=np.uint64)
    _assert_repr(bits.view(np.float64))


def test_powers_of_two_and_their_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_repr(_ulp_neighbours(np.concatenate([powers, -powers])))


def test_powers_of_ten_and_their_neighbours():
    _assert_repr(_ulp_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


@pytest.mark.parametrize(
    "edge",
    [
        1e-5, 9.999999999999999e-05, 1e-4, 0.00012345678901234567, 0.001,
        1e16, 9999999999999998.0, 1e15, 123456789012345680.0, 1e17, 2.0**53, 2.0**53 + 2,
    ],
)
def test_notation_edges(edge):
    # fixed notation for -4 < decpt <= 16, d.ddde±XX outside it
    _assert_repr(_ulp_neighbours([edge, -edge]))


def test_integers_and_halves():
    _assert_repr(np.arange(-100_000, 100_000) / 2.0)
    _assert_repr(np.arange(1, 10**6, 997, dtype=np.float64) * 1e10)


def test_subnormals_and_specials():
    fractions = np.random.default_rng(7).integers(1, 2**52, 10**5, dtype=np.uint64)
    _assert_repr(fractions.view(np.float64))
    _assert_repr([5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308])
    _assert_repr([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan])
    assert _lines(float_slots(np.array([-0.0, -math.nan]))) == b"-0.0\nnan\n"


def test_extremes():
    _assert_repr([sys.float_info.max, -sys.float_info.max, sys.float_info.min, sys.float_info.epsilon])


@given(st.lists(st.floats(), max_size=64))
def test_any_float(values):
    _assert_repr(values)


@pytest.mark.parametrize("chunk_rows", [1, 7, 64, 1 << 14])
def test_chunks_give_the_rows_of_one_pass(chunk_rows):
    # chunks of different widths (exponent form in some only) are padded to one
    values = np.random.default_rng(3).standard_cauchy(1000)
    values[::97] *= 1e-9
    values[:4] = [math.nan, -math.inf, 0.0, -0.0]
    slots = float_slots(values, chunk_rows)
    assert len(slots) == len(values)
    assert _lines(slots) == _lines(float_slots(values))
    _assert_repr(values)


def test_chunks_pack_into_contiguous_rows():
    # chunks of short integers around two of 17 significant digits: the
    # rows come back C-contiguous at the widest chunk's width, below the
    # widest slot row, each holding its chunk's text
    g = np.random.default_rng(8)
    values = np.concatenate([
        g.integers(-9, 9, 64), g.standard_normal(2 * 64) * 100, g.integers(0, 9, 10),
    ]).astype(np.float64)
    chunks = [values[s:s + 64] for s in range(0, len(values), 64)]
    widths = [float_slots(chunk).shape[1] for chunk in chunks]
    assert min(widths) < max(widths) < _floattext._WIDTH
    slots = float_slots(values, 64)
    assert slots.flags.c_contiguous
    assert slots.shape == (len(values), max(widths))
    for s, chunk in zip(range(0, len(values), 64), chunks):
        assert _lines(slots[s:s + 64]) == _lines(float_slots(chunk))
    _assert_repr(values)


def test_empty():
    assert float_slots(np.array([])).shape[0] == 0
    assert int_slots(np.array([], dtype=np.int64)).shape[0] == 0


def test_ints():
    values = np.concatenate([
        np.arange(-1000, 1000),
        10 ** np.arange(19, dtype=np.int64), -(10 ** np.arange(19, dtype=np.int64)),
        [_INT64.min, _INT64.max, _INT64.min + 1],
        np.random.default_rng(5).integers(_INT64.min, _INT64.max, 10**4),
    ])
    assert _lines(int_slots(values)) == "".join(f"{v}\n" for v in values.tolist()).encode()


def test_rows_text_joins_columns_and_drops_padding():
    ints = int_slots(np.array([1, -20, 300]))
    floats = float_slots(np.array([0.5, -1e-7, math.inf]))
    assert rows_text([ints, floats, floats]) == b"1,0.5,0.5\n-20,-1e-07,-1e-07\n300,inf,inf\n"


def test_table_entries_are_128_bit():
    hi, lo = _floattext._g_table()
    assert len(hi) == _floattext._E_MAX - _floattext._E_MIN + 1 == 617
    assert (hi >= 2**63).all()
