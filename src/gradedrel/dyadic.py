"""Exact nonnegative dyadic rationals: numerator * 2**-exponent.

Canonical form keeps the numerator odd (or zero, with exponent zero), so
structural equality is value equality.  No floats anywhere.

DyadicValue is the kernel under every distance oracle, so it is kept
cheap without giving up exactness: a frozen slots class; each order
operator compares in one frame with one shift by the exponent gap; zero()
and pow2() hand out shared values; and as_fraction reads a bounded cache
that holds only values whose numerator and exponent fit in
_FRACTION_CACHE_BITS bits, so it never pins a big integer.  Comparing a
DyadicValue with anything else raises TypeError, and == is False.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ResourceLimitError, StructuralInputError


@dataclass(frozen=True, slots=True)
class DyadicValue:
    numerator: int
    exponent: int

    def __post_init__(self):
        if self.numerator < 0:
            raise StructuralInputError(f"negative dyadic numerator {self.numerator}")
        if self.numerator == 0:
            object.__setattr__(self, "exponent", 0)
            return
        # one shift by the trailing-zero count: a loop step per bit is
        # quadratic in the numerator's length
        zeros = (self.numerator & -self.numerator).bit_length() - 1
        if zeros:
            object.__setattr__(self, "numerator", self.numerator >> zeros)
            object.__setattr__(self, "exponent", self.exponent - zeros)

    @classmethod
    def zero(cls) -> "DyadicValue":
        """The value 0, one shared frozen value."""
        return _ZERO

    @classmethod
    def one(cls) -> "DyadicValue":
        return cls(1, 0)

    @classmethod
    def pow2(cls, k: int) -> "DyadicValue":
        """The value 2**k, one shared frozen value per recently used k."""
        return _pow2(k)

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    def __add__(self, other: "DyadicValue") -> "DyadicValue":
        if not isinstance(other, DyadicValue):
            return NotImplemented
        gap = self.exponent - other.exponent
        if gap >= 0:
            return DyadicValue(self.numerator + (other.numerator << gap), self.exponent)
        return DyadicValue((self.numerator << -gap) + other.numerator, other.exponent)

    # each order operator aligns the two numerators with one shift by the
    # exponent gap, in its own frame: the oracles compare distances in
    # their innermost loops

    def __lt__(self, other: "DyadicValue") -> bool:
        if not isinstance(other, DyadicValue):
            return NotImplemented
        gap = self.exponent - other.exponent
        if gap >= 0:
            return self.numerator < other.numerator << gap
        return self.numerator << -gap < other.numerator

    def __le__(self, other: "DyadicValue") -> bool:
        if not isinstance(other, DyadicValue):
            return NotImplemented
        gap = self.exponent - other.exponent
        if gap >= 0:
            return self.numerator <= other.numerator << gap
        return self.numerator << -gap <= other.numerator

    def __gt__(self, other: "DyadicValue") -> bool:
        if not isinstance(other, DyadicValue):
            return NotImplemented
        gap = self.exponent - other.exponent
        if gap >= 0:
            return self.numerator > other.numerator << gap
        return self.numerator << -gap > other.numerator

    def __ge__(self, other: "DyadicValue") -> bool:
        if not isinstance(other, DyadicValue):
            return NotImplemented
        gap = self.exponent - other.exponent
        if gap >= 0:
            return self.numerator >= other.numerator << gap
        return self.numerator << -gap >= other.numerator

    def as_fraction(self) -> Fraction:
        numerator, exponent = self.numerator, self.exponent
        if -_FRACTION_CACHE_BITS <= exponent <= _FRACTION_CACHE_BITS and (
            numerator.bit_length() <= _FRACTION_CACHE_BITS
        ):
            return _small_fraction(numerator, exponent)
        return _fraction(numerator, exponent)

    def __str__(self) -> str:
        if self.exponent <= 0:
            return _decimal(self.numerator << -self.exponent)
        return f"{_decimal(self.numerator)}/{_decimal(1 << self.exponent)}"


def _decimal(value: int) -> str:
    """Decimal digits of a nonnegative int, or ResourceLimitError past the
    interpreter's limit on int-to-str conversion, carrying a lower bound on
    the digit count as `reached`."""
    try:
        return str(value)
    except ValueError:
        pass
    # digits of 2**(bit_length - 1) from a 20-digit lower bound on log10(2):
    # the value has this many digits or one more, and no big-int power is
    # computed, so this stays fast however large the value
    digits = (value.bit_length() - 1) * 30102999566398119521 // 10**20 + 1
    cap = sys.get_int_max_str_digits()
    raise ResourceLimitError(
        f"exact value has at least {digits} decimal digits, over the limit of {cap}"
        " on int-to-str conversion",
        cap,
        digits,
    )


# bounded so that wide windows cannot grow it without limit; the levels of
# any window the corpus or the falsifier uses fit many times over
@lru_cache(maxsize=256)
def _pow2(k: int) -> DyadicValue:
    return DyadicValue(1, -k)


_ZERO = DyadicValue(0, 0)


def _fraction(numerator: int, exponent: int) -> Fraction:
    if exponent >= 0:
        return Fraction(numerator, 1 << exponent)
    return Fraction(numerator << -exponent, 1)


# as_fraction caches only values whose numerator and exponent both fit in
# this many bits, so each entry holds integers of a few dozen bytes: one
# Fraction(1, 2**10**6) alone would hold 125 KB
_FRACTION_CACHE_BITS = 256
_small_fraction = lru_cache(maxsize=256)(_fraction)


def floor_log2(value: Fraction) -> int:
    """Largest e with 2**e <= value, for positive rationals, exactly."""
    if value <= 0:
        raise StructuralInputError(f"floor_log2 needs a positive value, got {value}")
    p, q = value.numerator, value.denominator
    e = p.bit_length() - q.bit_length()
    # 2**e <= p/q  iff  q * 2**e <= p
    if e >= 0:
        ok = (q << e) <= p
    else:
        ok = q <= (p << -e)
    return e if ok else e - 1


def centered_cover_level(width: Fraction) -> int:
    """The unique m with 2**-m < width <= 2**-(m-1).

    A ball of radius 2**-m centered at the midpoint of an interval of this
    width covers it (width/2 <= 2**-m) while staying strictly smaller than
    the width itself.
    """
    if width <= 0:
        raise StructuralInputError(f"width must be positive, got {width}")
    k = floor_log2(width)
    exact = Fraction(2) ** k == width
    return 1 - k if exact else -k
