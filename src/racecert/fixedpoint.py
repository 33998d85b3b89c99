"""Fixed-point encodings used at the ledger boundary.

Three layouts:

* Q0.64  -- unsigned 64-bit raw ``x`` representing the open-interval uniform
  ``(x + 0.5) * 2**-64``; never hits 0 or 1.
* Q64.64 -- signed 128-bit raw ``r`` representing ``r * 2**-64`` (keys,
  arrival neg-logs, leaf values, incumbents).
* Q32.32 -- signed 64-bit raw ``r`` representing ``r * 2**-32`` (kappa,
  potentials, RDP bookkeeping).

Conversions from binary64 and from decimal text use one rounding rule:
round-to-nearest-even on the exact scaled value (``round`` of a float scaled
by a power of two, or of a ``Fraction``), so encoding is platform
independent.  Overflow raises :class:`NumClampError`; callers translate that
into the NumClamp guard instead of silently saturating.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q64_64_FRAC_BITS = 64
Q32_32_FRAC_BITS = 32

Q0_64_MAX = (1 << 64) - 1
Q64_64_MIN = -(1 << 127)
Q64_64_MAX = (1 << 127) - 1
Q32_32_MIN = -(1 << 63)
Q32_32_MAX = (1 << 63) - 1

# Incumbent 'no leaf yet' sentinel: the most negative representable key.
NEG_INF_Q64_64 = Q64_64_MIN


class NumClampError(OverflowError):
    """Value does not fit the target fixed-point layout."""


def encode(value: float, frac_bits: int, lo: int, hi: int) -> int:
    if not math.isfinite(value):
        raise NumClampError(f"non-finite value {value!r}")
    # Scaling by a power of two is exact (or overflows to inf, which the
    # range check refuses), and round() of a float breaks ties to even.
    scaled = value * 2.0**frac_bits
    if not lo <= scaled <= hi:
        raise NumClampError(f"{value!r} out of range for Q layout")
    return round(scaled)


def encode_q64_64(value: float) -> int:
    return encode(value, Q64_64_FRAC_BITS, Q64_64_MIN, Q64_64_MAX)


def decode_q64_64(raw: int) -> float:
    return raw / (1 << Q64_64_FRAC_BITS)


def encode_q32_32(value: float) -> int:
    return encode(value, Q32_32_FRAC_BITS, Q32_32_MIN, Q32_32_MAX)


def decode_q32_32(raw: int) -> float:
    return raw / (1 << Q32_32_FRAC_BITS)


def q0_64_value(raw: int) -> float:
    """Open-interval uniform encoded by a raw unsigned 64-bit integer.

    The exact value (raw + 0.5) * 2**-64 never reaches the endpoints, but
    binary64 rounding can hit 1.0 at the top of the range; clamp to the
    largest float strictly below 1 to keep the open-interval contract.
    """
    if not 0 <= raw <= Q0_64_MAX:
        raise NumClampError("Q0.64 raw out of range")
    value = (raw + 0.5) * 2.0**-64
    return min(value, 1.0 - 2.0**-53)


def encode_q0_64(u: float) -> int:
    """Q0.64 raw whose open-interval value is nearest to u, clamped."""
    return max(0, min(Q0_64_MAX, round(u * 2.0**64 - 0.5)))


def parse_raw(text: str, lo: int, hi: int) -> int:
    """Parse a raw integer in ``[lo, hi]`` from decimal text."""
    raw = int(text, 10)
    if raw < lo or raw > hi:
        raise NumClampError(f"raw {text} outside [{lo}, {hi}]")
    return raw


def store_as(obj, kind: type, *names: str) -> None:
    """Store each named field of the dataclass ``obj`` as ``kind`` (int,
    float or str); a value the cast cannot take or would change, such as a
    price of 1.5 or a model id of 7, raises a ``ValueError`` naming the field.
    A number takes an ``int`` or a ``float`` only (1 as 1.0, 3.0 as 3): the
    text ``"0.5"`` and the bool ``True`` are refused, not cast."""
    for name in names:
        value = getattr(obj, name)
        try:
            if kind is not str and isinstance(value, (str, bytes, bool)):
                raise TypeError
            cast = kind(value)
            if kind is not float and cast != value:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{name} must be {kind.__name__}: {value!r}") from None
        object.__setattr__(obj, name, cast)


def parse_scaled_q32_32(text: str) -> int:
    """Parse a human-readable scaled decimal (e.g. ``\"11.2000\"``) to Q32.32."""
    raw = round(Fraction(text) * (1 << Q32_32_FRAC_BITS))
    if raw < Q32_32_MIN or raw > Q32_32_MAX:
        raise NumClampError(f"scaled value {text} overflows Q32.32")
    return raw


def format_scaled_q32_32(raw: int, places: int = 4) -> str:
    return f"{decode_q32_32(raw):.{places}f}"
