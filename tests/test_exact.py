"""Tests for the exact arithmetic helpers."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano_enriques.errors import (
    InvalidModulusError,
    MalformedInputError,
    OutOfRangeError,
)
from fano_enriques.exact import (
    MAX_TRUNC,
    Rational,
    exact_rational,
    format_rational,
    is_integer,
    nonnegative,
    parse_rational,
    rational_from_json,
    torsion_order,
    truncation,
    units,
)

# values that pass a range test by value but are not ints
NOT_INTS = [2.0, True, Rational(2)]
NOT_INT_IDS = ["float", "bool", "fraction"]


class TestUnits:
    def test_trivial_group(self):
        assert units(1) == [0]

    def test_small_groups(self):
        assert units(2) == [1]
        assert units(5) == [1, 2, 3, 4]
        assert units(10) == [1, 3, 7, 9]
        assert units(8) == [1, 3, 5, 7]

    def test_bad_modulus(self):
        with pytest.raises(InvalidModulusError):
            units(0)

    @pytest.mark.parametrize("r", [True, 2.0], ids=repr)
    def test_modulus_must_be_an_int(self, r):
        # units(True) was units(1), [0], as no other integer boundary reads a bool
        with pytest.raises(InvalidModulusError, match=f"got {r!r}"):
            units(r)

    @given(st.integers(2, 300))
    def test_closed_under_product(self, r):
        us = set(units(r))
        sample = sorted(us)[:5]
        for a in sample:
            for b in sample:
                assert (a * b) % r in us


class TestRationalHelpers:
    def test_is_integer(self):
        assert is_integer(Rational(4, 2))
        assert not is_integer(Rational(1, 2))
        assert is_integer(Rational(0))

    def test_parse(self):
        assert parse_rational("5/2") == Rational(5, 2)
        assert parse_rational(" -3 ") == Rational(-3)
        assert parse_rational("42") == Rational(42)

    def test_format(self):
        assert format_rational(Rational(5, 2)) == "5/2"
        assert format_rational(Rational(8, 4)) == "2"
        assert format_rational(Rational(-1, 3)) == "-1/3"

    @given(st.integers(-1000, 1000), st.integers(1, 1000))
    def test_round_trip(self, p, q):
        x = Rational(p, q)
        assert parse_rational(format_rational(x)) == x
        assert rational_from_json(format_rational(x)) == x


class TestRationalFromJson:
    def test_ints_and_strings_are_exact(self):
        assert rational_from_json(12345678901234567891) == Rational(12345678901234567891)
        assert rational_from_json("5/2") == Rational(5, 2)
        assert rational_from_json(" -3 ") == Rational(-3)
        assert type(rational_from_json(4)) is Rational

    @pytest.mark.parametrize(
        "value", [2.5, 12345678901234567891.0, 1e-400, True, False, None, [1], {"p": 1}],
        ids=repr,
    )
    def test_everything_else_refused(self, value):
        with pytest.raises(MalformedInputError, match="not an exact rational"):
            rational_from_json(value)

    def test_bad_strings_refused(self):
        with pytest.raises(MalformedInputError, match="not a finite rational"):
            rational_from_json("1/0")


class TestExactRational:
    def test_ints_and_fractions_are_kept_exactly(self):
        assert exact_rational(3) == 3 and type(exact_rational(3)) is Rational
        half = Rational(1, 2)
        assert exact_rational(half) == half

    @pytest.mark.parametrize("value", [0.1, 2.5, True, "5/2", None], ids=repr)
    def test_everything_else_refused(self, value):
        with pytest.raises(MalformedInputError, match=re.escape(f"not an exact rational: {value!r}")):
            exact_rational(value)


class TestTruncation:
    def test_indexable_values_pass(self):
        assert truncation("trunc", 0) == 0
        assert truncation("trunc", MAX_TRUNC) == MAX_TRUNC == 10**5

    @pytest.mark.parametrize(
        "value, message",
        [
            (-1, "trunc must be >= 0, got -1"),
            (MAX_TRUNC + 1, f"trunc must be <= {MAX_TRUNC}, got {MAX_TRUNC + 1}"),
        ],
        ids=["negative", "unindexable"],
    )
    def test_refused(self, value, message):
        # refused before any list of value + 1 coefficients is asked for
        with pytest.raises(OutOfRangeError, match=message):
            truncation("trunc", value)

    @pytest.mark.parametrize("value", NOT_INTS, ids=NOT_INT_IDS)
    def test_truncation_must_be_an_int(self, value):
        message = re.escape(f"trunc must be an integer, got {value!r}")
        with pytest.raises(OutOfRangeError, match=message):
            truncation("trunc", value)

    @pytest.mark.parametrize("value", NOT_INTS, ids=NOT_INT_IDS)
    def test_nonnegative_must_be_an_int(self, value):
        message = re.escape(f"size must be an integer, got {value!r}")
        with pytest.raises(OutOfRangeError, match=message):
            nonnegative("size", value)


class TestTorsionOrder:
    def test_orders_in_range_pass(self):
        assert torsion_order(2) == 2 and torsion_order(24) == 24

    @pytest.mark.parametrize("value", NOT_INTS, ids=NOT_INT_IDS)
    def test_must_be_an_int(self, value):
        message = re.escape(f"torsion order must be an integer, got {value!r}")
        with pytest.raises(OutOfRangeError, match=message):
            torsion_order(value)
