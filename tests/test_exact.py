"""Tests for the exact arithmetic helpers."""

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
    format_rational,
    is_integer,
    parse_rational,
    rational_from_json,
    truncation,
    units,
)


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
