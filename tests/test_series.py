"""Tests for the truncated bigraded series container."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fano_enriques.errors import (
    IncompatibleSeriesError,
    MalformedInputError,
    NonInvertibleFactorError,
    OutOfRangeError,
    UnnormalizedResidualError,
)
from fano_enriques.exact import Rational
from fano_enriques.gradedrings import presentation_series
from fano_enriques.hilbert import wci_series
from fano_enriques.orbifold import Basket
from fano_enriques.quotient import CoverRecord
from fano_enriques.series import Bidegree, BigradedSeries
from oracle import binomial, geometric, product


def series_of_modulus(r, max_trunc=8):
    return st.integers(0, max_trunc).flatmap(
        lambda t: st.lists(
            st.lists(st.integers(-5, 5), min_size=t + 1, max_size=t + 1),
            min_size=r,
            max_size=r,
        ).map(lambda rows: BigradedSeries(r, rows))
    )


def series_strategy(max_r=4, max_trunc=8):
    return st.integers(1, max_r).flatmap(lambda r: series_of_modulus(r, max_trunc))


class TestBidegree:
    def test_ordering(self):
        assert Bidegree(1, 0) < Bidegree(1, 1) < Bidegree(2, 0)

    def test_negative_rejected(self):
        with pytest.raises(OutOfRangeError, match="t-degree must be >= 0, got -1"):
            Bidegree(-1, 0)
        with pytest.raises(OutOfRangeError, match="e-degree must be >= 0, got -2"):
            Bidegree(0, -2)

    def test_t_degree_is_checked_first(self):
        with pytest.raises(OutOfRangeError, match="t-degree must be >= 0, got -1"):
            Bidegree(-1, 0.5)

    @pytest.mark.parametrize(
        "n, i, message",
        [
            (1.5, 0, "t-degree must be an integer, got 1.5"),
            (True, 0, "t-degree must be an integer, got True"),
            (1, 0.0, "e-degree must be an integer, got 0.0"),
            (1, False, "e-degree must be an integer, got False"),
        ],
        ids=["float-n", "bool-n", "float-i", "bool-i"],
    )
    def test_degrees_must_be_ints(self, n, i, message):
        with pytest.raises(OutOfRangeError, match=message):
            Bidegree(n, i)

    @pytest.mark.parametrize(
        "build",
        [
            # a relation of degree 12 above the Pfaffian's top degree 8
            lambda: CoverRecord(
                "x", (1, 1, 1, 1, 1, 1, 3), (1, 1, 1, 1, 12), Basket(), 1,
                structure="pfaffian",
            ).implied_k_cubed(),
            lambda: wci_series((1,) * 6, (-1, 1, 5), 20),
        ],
        ids=["pfaffian-implied-k-cubed", "wci-negative-degree"],
    )
    def test_negative_degree_in_a_builder_is_typed(self, build):
        with pytest.raises(OutOfRangeError):
            build()

    def test_str(self):
        assert str(Bidegree(4, 2)) == "(4,2)"


class TestConstruction:
    def test_row_validation(self):
        with pytest.raises(IncompatibleSeriesError):
            BigradedSeries(2, [[1, 0]])  # wrong row count
        with pytest.raises(IncompatibleSeriesError):
            BigradedSeries(2, [[1, 0], [0]])  # ragged rows
        with pytest.raises(IncompatibleSeriesError):
            BigradedSeries(0, [])
        with pytest.raises(IncompatibleSeriesError):
            BigradedSeries(1, [[]])  # no constant term
        with pytest.raises(IncompatibleSeriesError, match="grading modulus must be >= 1"):
            BigradedSeries.polynomial(0, 3, [(1, Bidegree(0))])

    @pytest.mark.parametrize("r", [2.0, True, "2"], ids=["float", "bool", "str"])
    def test_modulus_must_be_an_int(self, r):
        message = f"grading modulus must be an integer, got {r!r}"
        with pytest.raises(IncompatibleSeriesError, match=message):
            BigradedSeries(r, [[1, 0], [0, 1]])

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: BigradedSeries.polynomial(2.0, 3, []), IncompatibleSeriesError,
             "grading modulus must be an integer, got 2.0"),
            (lambda: BigradedSeries.one(2, 3.0), OutOfRangeError, "trunc must be an integer, got 3.0"),
            (lambda: BigradedSeries.polynomial(2, -2, []), OutOfRangeError, "trunc must be >= 0, got -2"),
        ],
        ids=["float-modulus", "float-trunc", "negative-trunc"],
    )
    def test_polynomial_checks_modulus_and_truncation_first(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    @pytest.mark.parametrize("degree", [2, (2, 0), None], ids=["int", "pair", "none"])
    def test_polynomial_term_needs_a_bidegree(self, degree):
        with pytest.raises(MalformedInputError, match="degree is no Bidegree"):
            BigradedSeries.polynomial(1, 3, [(1, degree)])

    @pytest.mark.parametrize(
        "terms, message",
        [
            (5, "series terms must be a sequence, got 5"),
            ([5], r"series term 5 is no pair \(c, Bidegree\)"),
            ([(1, Bidegree(1), 2)], r"series term \(1, Bidegree\(n=1, i=0\), 2\) is no pair"),
        ],
        ids=["int-terms", "int-term", "triple-term"],
    )
    def test_polynomial_terms_must_be_pairs(self, terms, message):
        with pytest.raises(MalformedInputError, match=message):
            BigradedSeries.polynomial(1, 3, terms)

    def test_basic_constructors(self):
        one = BigradedSeries.one(3, 4)
        assert one.coefficient(0, 0) == 1
        assert one.coefficient(0, 1) == 0
        m = BigradedSeries.polynomial(5, 6, [(1, Bidegree(2, 3))])
        assert m.coefficient(2, 3) == 1
        assert m.coefficient(2, 8) == 1  # e-degree wraps mod r
        # repeated bidegrees add up, also across the wrap
        terms = [(1, Bidegree(2, 1)), (Fraction(1, 2), Bidegree(2, 3))]
        terms += [(-3, Bidegree(0)), (4, Bidegree(0))]
        s = BigradedSeries.polynomial(2, 3, terms)
        assert s == BigradedSeries(2, [[1, 0, 0, 0], [0, 0, Fraction(3, 2), 0]])

    def test_polynomial_beyond_truncation_is_zero(self):
        assert BigradedSeries.polynomial(2, 3, [(1, Bidegree(9, 1))]) == BigradedSeries(
            2, [[0] * 4] * 2
        )

    def test_immutability(self):
        s = BigradedSeries.one(1, 2)
        with pytest.raises(AttributeError):
            s.r = 5
        assert not hasattr(s, "__dict__")

    def test_fractions_pass_through_and_ints_become_fractions(self):
        half = Fraction(1, 2)
        s = BigradedSeries(2, [[1, half], (0, -3)])
        assert s.coeffs[0][1] is half
        assert s.coeffs == ((1, half), (0, -3))
        assert all(type(c) is Fraction for row in s.coeffs for c in row)

    @pytest.mark.parametrize("bad", [0.1, True, "1/2", None], ids=repr)
    def test_inexact_coefficients_refused(self, bad):
        # a float used to be stored as its binary value: 0.1 as
        # 3602879701896397/36028797018963968
        with pytest.raises(MalformedInputError, match="Fraction or an int"):
            BigradedSeries(1, [[1, bad]])
        with pytest.raises(MalformedInputError):
            BigradedSeries(2, [[1, Fraction(1, 2)], [Fraction(0), bad]])
        with pytest.raises(MalformedInputError, match="Fraction or an int"):
            BigradedSeries.polynomial(1, 2, [(bad, Bidegree(1))])


class TestPickleAndCopy:
    @settings(max_examples=30)
    @given(series_strategy())
    def test_round_trips(self, s):
        for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
            assert twin == s and hash(twin) == hash(s)
            assert all(type(c) is Fraction for row in twin.coeffs for c in row)
        with pytest.raises(AttributeError):
            copy.copy(s).r = 5


class TestHilbertDefect:
    def test_presentation_series_is_a_hilbert_series(self):
        gens = [Bidegree(1, 0), Bidegree(1, 1), Bidegree(2, 1), Bidegree(3, 0)]
        rels = [Bidegree(6, 0)]
        assert presentation_series(gens, rels, 2, 20).hilbert_defect() is None

    def test_row_by_row(self):
        # row 0's fraction at t^2 comes before row 1's constant
        s = BigradedSeries(2, [[1, 1, Fraction(1, 2)], [1, 1, 1]])
        assert s.hilbert_defect() == (Bidegree(2, 0), Fraction(1, 2))
        # row 1's constant comes before its own coefficients
        s = BigradedSeries(2, [[1, 1, 1], [Fraction(1, 3), -1, 1]])
        assert s.hilbert_defect() == (Bidegree(0, 1), Fraction(1, 3))

    def test_negative_coefficient(self):
        s = BigradedSeries(3, [[1, 2, 3], [0, 1, 1], [0, 2, -1]])
        assert s.hilbert_defect() == (Bidegree(2, 2), -1)

    def test_fraction(self):
        s = BigradedSeries(1, [[1, 4, Fraction(11, 2), -1]])
        assert s.hilbert_defect() == (Bidegree(2, 0), Fraction(11, 2))

    @pytest.mark.parametrize("constant", [0, 2, Fraction(1, 2)], ids=str)
    def test_constant_other_than_one_at_e0(self, constant):
        s = BigradedSeries(2, [[constant, 1], [0, 1]])
        assert s.hilbert_defect() == (Bidegree(0, 0), constant)


class TestArithmetic:
    def test_add_sub(self):
        a = BigradedSeries(1, [[1, 2, 3]])
        b = BigradedSeries(1, [[0, 1, 1]])
        assert (a + b).component(0) == (1, 3, 4)
        assert (a - b).component(0) == (1, 1, 2)

    def test_incompatible_moduli(self):
        with pytest.raises(IncompatibleSeriesError):
            BigradedSeries.one(2, 3) + BigradedSeries.one(3, 3)

    @pytest.mark.parametrize("other", [5, None, [[1, 0, 0, 0]]], ids=repr)
    def test_operand_must_be_a_series(self, other):
        with pytest.raises(MalformedInputError, match="not a BigradedSeries"):
            BigradedSeries.one(1, 3) + other
        with pytest.raises(MalformedInputError, match="not a BigradedSeries"):
            BigradedSeries.one(1, 3) - other

    def test_collapse_sums_rows(self):
        s = BigradedSeries(2, [[1, 2], [0, 5]])
        c = s.collapse()
        assert c.r == 1
        assert c.component(0) == (1, 7)


class TestPeelAndDivide:
    def test_peel_is_multiplication_by_binomial(self):
        s = geometric(Bidegree(1, 0), 1, 6)
        assert s.peel(Bidegree(1, 0)) == BigradedSeries.one(1, 6)

    def test_divide_inverts_peel(self):
        s = BigradedSeries(2, [[1, 3, 2, 7], [0, 1, 1, 4]])
        d = Bidegree(2, 1)
        assert s.peel(d).divide_factor(d) == s
        assert s.divide_factor(d).peel(d) == s

    def test_degree_zero_factors_rejected(self):
        s = BigradedSeries.one(2, 3)
        with pytest.raises(NonInvertibleFactorError):
            s.peel(Bidegree(0, 1))
        with pytest.raises(NonInvertibleFactorError):
            s.divide_factor(Bidegree(0, 0))

    def test_factors_must_be_bidegrees(self):
        s = BigradedSeries.one(2, 5)
        with pytest.raises(MalformedInputError, match="peel factor 5 is no Bidegree"):
            s.peel(5)
        with pytest.raises(MalformedInputError, match=r"division factor \(1, 0\) is no Bidegree"):
            s.divide_factor((1, 0))
        with pytest.raises(MalformedInputError, match="peel factor None is no Bidegree"):
            s.peel(Bidegree(1), Bidegree(2, 1), None)

    @settings(max_examples=60)
    @given(series_strategy(), st.integers(1, 3), st.integers(0, 3))
    def test_peel_divide_round_trip(self, s, n, i):
        d = Bidegree(n, i)
        assert s.peel(d).divide_factor(d) == s
        assert s.divide_factor(d).peel(d) == s

    @settings(max_examples=200)
    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.tuples(
                series_of_modulus(r, max_trunc=12),
                st.integers(1, 15),
                st.integers(0, 2 * r),
            )
        )
    )
    def test_peel_matches_product_with_binomial(self, packed):
        # the O(rN) shift against the naive product, including factors
        # beyond the truncation (n > trunc) and e-degrees i >= r
        s, n, i = packed
        d = Bidegree(n, i)
        assert s.peel(d) == product(s, binomial(s.r, s.trunc, d))


class TestFirstDeviation:
    def test_finds_least_bidegree(self):
        s = BigradedSeries(2, [[1, 0, 0, -1], [0, 0, 2, 5]])
        d, c = s.first_deviation()
        assert d == Bidegree(2, 1)
        assert c == 2

    def test_t_degree_dominates_e_degree(self):
        s = BigradedSeries(3, [[1, 0, 1], [0, 1, 0], [0, 0, 0]])
        d, c = s.first_deviation()
        assert d == Bidegree(1, 1)
        assert c == 1

    def test_exhausted_series(self):
        assert BigradedSeries.one(3, 5).first_deviation() is None

    def test_requires_normalized_constant(self):
        with pytest.raises(UnnormalizedResidualError):
            BigradedSeries(1, [[2, 0]]).first_deviation()
        with pytest.raises(UnnormalizedResidualError):
            BigradedSeries(2, [[1, 0], [1, 0]]).first_deviation()


class TestSerialization:
    def test_round_trip(self):
        s = BigradedSeries(2, [[1, Rational(1, 2)], [0, -3]])
        assert BigradedSeries.from_json(s.to_json()) == s

    @pytest.mark.parametrize(
        "value", [12345678901234567891.0, 1e-400, 0.5, True, None, [1]], ids=repr
    )
    def test_non_exact_json_numbers_refused(self, value):
        with pytest.raises(MalformedInputError, match="not an exact rational"):
            BigradedSeries.from_json({"r": 1, "coeffs": [[1, value]]})

    def test_truncation_mismatch_detected(self):
        obj = {"r": 1, "trunc": 5, "coeffs": [["1", "2"]]}
        with pytest.raises(IncompatibleSeriesError):
            BigradedSeries.from_json(obj)

    @settings(max_examples=40)
    @given(series_strategy())
    def test_round_trip_random(self, s):
        assert BigradedSeries.from_json(s.to_json()) == s


class TestStr:
    def test_rendering(self):
        s = BigradedSeries(2, [[1, 0, -1], [0, 2, 0]])
        assert str(s) == "1 + 2*e*t - t^2"
        assert str(BigradedSeries(1, [[0, 0, 0]])) == "0"
