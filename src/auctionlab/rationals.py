"""Exact rational scalars: parsing, formatting, integer scaling.

All values and prices in this package are ``fractions.Fraction`` internally;
file formats carry decimal strings (``"12"``, ``"3.25"``) with ``"p/q"`` as a
fallback for rationals that have no finite decimal expansion.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]
# One shared zero for empty sums and absent payments: Fractions are immutable.
ZERO = Fraction(0)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, decimal string, or "p/q" string to an exact Fraction.

    Binary floats are rejected: they rarely mean what the caller wrote. So
    are booleans, although ``bool`` is an ``int``: a JSON ``true`` is no
    number.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction builds 10**exponent, as slow for a huge exponent as an int
        # string of that many digits, which Python refuses past its limit.
        _, e, exponent = value.lower().partition("e")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        try:
            too_long = bool(e) and abs(int(exponent)) > limit
        except ValueError:
            too_long = False
        if too_long:
            raise ValueError(f"exponent of {value!r} lies outside -{limit}..{limit}")
        return Fraction(value)
    raise TypeError(f"expected int, str, or Fraction, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as an exact decimal string when one exists.

    Denominators of the form 2^a * 5^b have a finite decimal expansion and are
    printed as plain decimals, an integer without a point; anything else
    falls back to "p/q". A ``Fraction`` is read as it is, with no copy.
    """
    if not isinstance(value, Fraction):
        value = Fraction(value)
    num, den = value.as_integer_ratio()
    if den == 1:
        return str(num)
    rest, twos, fives = den, 0, 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = num * 10**digits // den
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def common_scale(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators (1 for an empty iterable)."""
    scale = 1
    for v in values:
        scale = lcm(scale, v.denominator)
    return scale


def scaled_ints(values: Iterable[Fraction], scale: int) -> list[int]:
    """Multiply every value by ``scale``; each result must be integral."""
    out = []
    for v in values:
        num = v.numerator * scale
        if num % v.denominator:
            raise ValueError(f"{v} does not scale to an integer by {scale}")
        out.append(num // v.denominator)
    return out
