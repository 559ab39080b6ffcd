"""Exact dyadic arithmetic against a Fraction oracle."""

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gradedrel import (
    TOP,
    DyadicValue,
    centered_cover_level,
    delta,
    dyadic,
    floor_log2,
    make_system,
)
from gradedrel.errors import ResourceLimitError, StructuralInputError

pytestmark = pytest.mark.deep

# Python 3.10.0-3.10.6 have no int-to-str digit limit, and 0 switches it off
needs_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter has no int-to-str digit limit",
)


def _str_unlimited(value):
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(cap)


def dyadics(max_num=1000, exp_range=40):
    # values are numerator / 2**exponent, nonnegative by construction
    return st.builds(
        DyadicValue,
        st.integers(min_value=0, max_value=max_num),
        st.integers(min_value=-exp_range, max_value=exp_range),
    )


def exact(d):
    """The value of d in Fraction arithmetic, without as_fraction."""
    return Fraction(d.numerator) / Fraction(2) ** d.exponent


@st.composite
def ordered_pairs(draw):
    # exponent gaps up to 10**4 either way, zero, and equal values built
    # from different numerators
    a = draw(st.one_of(st.just(DyadicValue.zero()), dyadics(max_num=10**6, exp_range=10**4)))
    kind = draw(st.sampled_from(["free", "same", "equal", "gap"]))
    if kind == "free":
        b = draw(st.one_of(st.just(DyadicValue.zero()), dyadics(max_num=10**6, exp_range=10**4)))
    elif kind == "same":
        b = a
    elif kind == "equal":
        k = draw(st.integers(min_value=0, max_value=64))
        b = DyadicValue(a.numerator << k, a.exponent + k)
    else:
        gap = draw(st.integers(min_value=-(10**4), max_value=10**4))
        num = draw(st.integers(min_value=0, max_value=10**6))
        b = DyadicValue(num, a.exponent + gap)
    if draw(st.booleans()):
        a, b = b, a
    return a, b


class TestCanonicalForm:
    def test_zero_normalizes_exponent(self):
        assert DyadicValue(0, 17) == DyadicValue.zero()
        assert DyadicValue(0, 17).exponent == 0

    def test_even_numerator_folds_into_exponent(self):
        assert DyadicValue(12, 3) == DyadicValue(3, 1)  # 12/8 == 3/2

    def test_long_even_numerator_normalizes_fast(self):
        # one shift by the trailing zeros, not a loop step per bit
        t0 = time.monotonic()
        assert DyadicValue(1 << 10**6, 0) == DyadicValue.pow2(10**6)
        assert DyadicValue(3 << 10**6, 5) == DyadicValue(3, 5 - 10**6)
        assert time.monotonic() - t0 < 1

    def test_rejects_negative(self):
        with pytest.raises(StructuralInputError):
            DyadicValue(-1, 3)

    @given(dyadics())
    def test_numerator_odd_or_zero(self, d):
        assert d.numerator == 0 or d.numerator % 2 == 1

    @given(dyadics(), dyadics())
    def test_equal_iff_same_fraction(self, a, b):
        assert (a == b) == (a.as_fraction() == b.as_fraction())


class TestArithmetic:
    @given(dyadics(), dyadics())
    def test_add_matches_fractions(self, a, b):
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()

    @given(ordered_pairs())
    @example((DyadicValue.zero(), DyadicValue.zero()))
    @example((DyadicValue.zero(), DyadicValue.pow2(-10**4)))
    @example((DyadicValue.pow2(10**4), DyadicValue(3, 10**4)))
    def test_order_matches_fractions(self, pair):
        a, b = pair
        fa, fb = exact(a), exact(b)
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)
        assert (a > b) == (fa > fb)
        assert (a >= b) == (fa >= fb)
        assert (a == b) == (fa == fb)

    @pytest.mark.parametrize("other", [1, 0, Fraction(1, 2), None])
    def test_order_against_other_types_raises_type_error(self, other):
        value = DyadicValue.pow2(-1)
        for compare in (
            lambda: value < other,
            lambda: value <= other,
            lambda: value > other,
            lambda: value >= other,
            lambda: other < value,
            lambda: other >= value,
        ):
            with pytest.raises(TypeError):
                compare()
        with pytest.raises(TypeError):
            value + other
        assert (value == other) is False
        assert (value != other) is True

    def test_zero_is_one_shared_value(self):
        assert DyadicValue.zero() is DyadicValue.zero()
        assert DyadicValue(0, 5) == DyadicValue.zero()
        assert DyadicValue.zero().as_fraction() == 0

    @given(dyadics(max_num=10**6, exp_range=300))
    @example(DyadicValue.pow2(-(10**6)))
    @example(DyadicValue.pow2(10**6))
    @example(DyadicValue((1 << 300) + 1, 3))
    def test_as_fraction_cached_or_not(self, d):
        # a shared pow2 value and a fresh equal one convert alike, exactly,
        # past 256-bit numerators and exponents too
        want = exact(d)
        first = d.as_fraction()
        again = DyadicValue(d.numerator, d.exponent).as_fraction()
        assert first == again == want
        assert isinstance(first, Fraction)

    def test_pow2(self):
        assert DyadicValue.pow2(0) == DyadicValue.one()
        assert DyadicValue.pow2(-5).as_fraction() == Fraction(1, 32)
        assert DyadicValue.pow2(3).as_fraction() == 8

    @given(st.integers(min_value=-300, max_value=300))
    def test_pow2_is_one_shared_canonical_value(self, k):
        value = DyadicValue.pow2(k)
        assert DyadicValue.pow2(k) is value
        fresh = DyadicValue(1, -k)
        assert value == fresh
        assert hash(value) == hash(fresh)
        assert str(value) == str(fresh)

    def test_pow2_cache_stays_bounded(self):
        # the kernel itself over a window of exponents more than twice the
        # cache size: each power as DyadicValue.pow2 hands it out and as
        # delta reads it from a grade
        bound = dyadic._pow2.cache_info().maxsize
        before = dyadic._pow2.cache_info()
        for g in range(-bound - 1, bound + 1):
            pair = make_system("ab", (g, g), [[TOP, g], [g, TOP]])
            assert delta(pair, 0, 1) == DyadicValue.pow2(-g) == DyadicValue(1, g)
        after = dyadic._pow2.cache_info()
        assert (after.hits + after.misses) - (before.hits + before.misses) > bound
        assert after.currsize <= bound

    def test_str_forms(self):
        assert str(DyadicValue.pow2(-5)) == "1/32"
        assert str(DyadicValue.pow2(3)) == "8"
        assert str(DyadicValue.zero()) == "0"
        assert str(DyadicValue(17, 5)) == "17/32"

    @needs_digit_limit
    def test_str_up_to_the_digit_limit(self):
        # 2**k is the largest power of two below 10**cap, so it has cap
        # decimal digits and 2**(k+1) has cap + 1
        cap = sys.get_int_max_str_digits()
        k = (10**cap).bit_length() - 1
        assert str(DyadicValue.pow2(-k)) == "1/" + str(1 << k)
        for e in (k + 1, -(k + 1)):
            with pytest.raises(ResourceLimitError, match=f"{cap + 1} decimal digits") as exc:
                str(DyadicValue.pow2(e))
            assert (exc.value.cap, exc.value.reached) == (cap, cap + 1)

    @needs_digit_limit
    @pytest.mark.parametrize("k, digits", [(10**7, 3010300), (10**8, 30103000)])
    def test_str_past_the_digit_limit_is_fast(self, k, digits):
        # counting the digits must cost no big-int power of ten, which on
        # values this long takes seconds each
        t0 = time.monotonic()
        with pytest.raises(ResourceLimitError) as exc:
            str(DyadicValue.pow2(-k))
        assert time.monotonic() - t0 < 5
        assert exc.value.reached == digits

    @needs_digit_limit
    def test_digit_count_is_a_lower_bound_within_one(self):
        cap = sys.get_int_max_str_digits()
        k = (10**cap).bit_length() - 1
        for value in (10 ** (cap + 1) - 1, 10 ** (cap + 1), (3 << k) + 1):
            with pytest.raises(ResourceLimitError) as exc:
                str(DyadicValue(value, 0))
            digits = len(_str_unlimited(value))
            assert exc.value.reached in (digits - 1, digits)


class TestFloorLog2:
    @given(
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
    )
    def test_matches_brute_force(self, p, q):
        v = Fraction(p, q)
        k = floor_log2(v)
        assert Fraction(2) ** k <= v < Fraction(2) ** (k + 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(StructuralInputError):
            floor_log2(Fraction(0))
        with pytest.raises(StructuralInputError):
            floor_log2(Fraction(-3, 7))

    def test_exact_powers(self):
        assert floor_log2(Fraction(1, 8)) == -3
        assert floor_log2(Fraction(8)) == 3
        assert floor_log2(Fraction(1)) == 0


class TestCenteredCoverLevel:
    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    def test_defining_inequalities(self, p, q):
        w = Fraction(p, q)
        m = centered_cover_level(w)
        # half the width fits under 2^-m, which still sits below the width
        assert w / 2 <= Fraction(2) ** (-m)
        assert Fraction(2) ** (-m) < w

    def test_exact_power_width(self):
        # width exactly 2^k needs one extra level
        assert centered_cover_level(Fraction(1, 4)) == 3
        assert centered_cover_level(Fraction(1)) == 1
        assert centered_cover_level(Fraction(2)) == 0

    def test_generic_width(self):
        assert centered_cover_level(Fraction(3, 8)) == 2
        assert centered_cover_level(Fraction(3)) == -1

    @pytest.mark.parametrize("width", [Fraction(0), Fraction(-1, 4)])
    def test_nonpositive_width_is_rejected(self, width):
        with pytest.raises(StructuralInputError, match=f"width must be positive, got {width}"):
            centered_cover_level(width)
