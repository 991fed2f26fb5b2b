"""Tests for terminal quotient singularity algebra and baskets."""

import re
from collections import Counter
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano_enriques.errors import InconsistentMarkingError, MalformedInputError, NotTerminalError
from fano_enriques.exact import Rational
from fano_enriques.hilbert import torsion_delta_at
from fano_enriques.orbifold import (
    SMOOTH,
    Basket,
    MarkedSingularity,
    SingularityType,
    inverse_weight,
    normalize_type,
    preimage_singularity,
    terminal_sum,
)
from oracle import normalize_type as unit_search


def mk(r, a, l=0):
    return MarkedSingularity(SingularityType(r, a), l)


def outcome(route, r, exponents):
    """route's normal form of 1/r(exponents), or its NotTerminalError's message."""
    try:
        return route(r, exponents)
    except NotTerminalError as exc:
        return str(exc)


def local(s, i):
    """Riemann-Roch correction of the point s for a divisor locally i*K: the
    torsion delta at n = 0 of s alone, marked 1, so that l' = i mod r."""
    return torsion_delta_at(Basket((MarkedSingularity(s, 1),)), i, 0)


class TestSingularityType:
    def test_canonical_entries(self):
        s = SingularityType(5, 2)
        assert s.exponents == (1, 2, 3)
        assert str(s) == "1/5(1,2,3)"
        assert str(SingularityType(2, 1)) == "1/2(1,1,1)"

    def test_rejects_non_canonical_weight(self):
        # the canonical representative has 1 <= a <= r/2
        with pytest.raises(NotTerminalError):
            SingularityType(5, 3)
        with pytest.raises(NotTerminalError):
            SingularityType(4, 2)
        with pytest.raises(NotTerminalError):
            SingularityType(1, 0)

    @pytest.mark.parametrize("r, a", [(5.0, 2), (5, 2.0), (True, 1)], ids=repr)
    def test_index_and_weight_must_be_ints(self, r, a):
        with pytest.raises(NotTerminalError, match="must be integers"):
            SingularityType(r, a)

    def test_ordering(self):
        assert SingularityType(2, 1) < SingularityType(3, 1)
        assert SingularityType(5, 1) < SingularityType(5, 2)


class TestMarkedSingularity:
    def test_derived_quantities(self):
        m = mk(10, 3, 6)
        assert m.d == 2
        assert m.alpha == 5
        assert str(m) == "1/10(1,3,7)_6"
        assert str(mk(2, 1)) == "1/2(1,1,1)"

    def test_marking_range(self):
        with pytest.raises(InconsistentMarkingError):
            mk(5, 2, 5)
        with pytest.raises(InconsistentMarkingError):
            mk(5, 2, -1)

    def test_type_must_be_a_singularity_type(self):
        # an AttributeError on .r before
        message = r"singularity type must be SingularityType, got \(5, 2\)"
        with pytest.raises(MalformedInputError, match=message):
            MarkedSingularity((5, 2), 1)

    @pytest.mark.parametrize("l", [1.0, True], ids=repr)
    def test_marking_must_be_an_int(self, l):
        with pytest.raises(InconsistentMarkingError, match=f"marking must be an integer, got {l!r}"):
            mk(5, 2, l)


class TestNormalizeType:
    def test_non_minimal_weight_triples(self):
        assert normalize_type(5, (4, 2, 3)) == SingularityType(5, 2)
        assert normalize_type(10, (13, 9, 11)) == SingularityType(10, 3)
        assert normalize_type(8, (6, 6, 10)) == SingularityType(4, 1)

    def test_smooth_reductions(self):
        assert normalize_type(1, (0, 0, 0)) is SMOOTH
        assert normalize_type(1, (5, 7, 2)) is SMOOTH
        assert normalize_type(4, (0, 4, 8)) is SMOOTH

    def test_non_faithful_part_divided_out(self):
        assert normalize_type(4, (2, 2, 2)) == SingularityType(2, 1)
        assert normalize_type(6, (2, 2, 4)) == SingularityType(3, 1)

    def test_non_terminal_rejected(self):
        with pytest.raises(NotTerminalError):
            normalize_type(4, (1, 1, 1))
        with pytest.raises(NotTerminalError):
            normalize_type(3, (1, 1, 1))
        with pytest.raises(NotTerminalError):
            normalize_type(0, (1, 1, 1))
        with pytest.raises(NotTerminalError):
            normalize_type(5, (1, 2))  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "r, exponents",
        [(5.0, (1, 2, 3)), (5, (1.0, 2, 3)), (True, (1, 1, 1)), (5, 5)],
        ids=["float-index", "float-exponent", "bool-index", "no-sequence"],
    )
    def test_index_and_exponents_must_be_ints(self, r, exponents):
        with pytest.raises(NotTerminalError, match="index and exponents must be integers"):
            normalize_type(r, exponents)

    def test_unit_on_the_last_exponent(self):
        # only the inverse of the third exponent sends (2, 3, 1) to the
        # normal form, so a closed form that tries the first alone refuses it
        assert normalize_type(5, (2, 3, 1)) == SingularityType(5, 2)

    def test_matches_the_unit_group_search(self):
        # every exponent triple mod r, and each again with its first exponent
        # shifted by -r, for r = 1..16: the same type, SMOOTH or refusal
        kinds = Counter()
        for r in range(1, 17):
            for triple in product(range(r), repeat=3):
                for exponents in (triple, (triple[0] - r, *triple[1:])):
                    got = outcome(normalize_type, r, exponents)
                    assert got == outcome(unit_search, r, exponents), (r, exponents)
                    kinds[type(got).__name__] += 1
        assert set(kinds) == {"SingularityType", "NoneType", "str"}
        assert sum(kinds.values()) == 2 * sum(r**3 for r in range(1, 17))

    @given(st.integers(2, 60), st.data())
    def test_unit_rescaling_invariance(self, r, data):
        choices = [a for a in range(1, r // 2 + 1) if gcd(a, r) == 1]
        a = data.draw(st.sampled_from(choices))
        u = data.draw(st.sampled_from([v for v in range(1, r) if gcd(v, r) == 1]))
        scrambled = tuple((u * e) % r for e in (1, a, r - a))
        assert normalize_type(r, scrambled) == SingularityType(r, a)


class TestPreimageSingularity:
    def test_unmarked_entries_split_completely(self):
        count, fiber = preimage_singularity(mk(2, 1), 2)
        # l = 0 gives d = r_Q, alpha = 1: r copies of the same type
        assert (count, fiber) == (2, SingularityType(2, 1))

    def test_fully_marked_point_is_smooth_upstairs(self):
        count, fiber = preimage_singularity(mk(2, 1, 1), 2)
        assert count == 1
        assert fiber is SMOOTH

    def test_partially_marked_point(self):
        count, fiber = preimage_singularity(mk(6, 1, 3), 2)
        assert count == 1
        assert fiber == SingularityType(3, 1)

    def test_index_ten_point_over_order_five_quotient(self):
        count, fiber = preimage_singularity(mk(10, 3, 6), 5)
        assert count == 1
        assert fiber == SingularityType(2, 1)

    def test_incompatible_stabilizer(self):
        with pytest.raises(InconsistentMarkingError):
            preimage_singularity(mk(3, 1, 1), 2)

    def test_fiber_type_is_the_reduced_exponent_triple(self):
        # the fiber against the unit-group search's reduction of
        # 1/r_Q(1, a, r_Q - a) mod d: every canonical type with r_Q <= 24
        # and every divisor d > 1, marked l = d mod r_Q
        checked = 0
        for r_q in range(2, 25):
            for a in range(1, r_q // 2 + 1):
                if gcd(a, r_q) != 1:
                    continue
                for d in (d for d in range(2, r_q + 1) if r_q % d == 0):
                    count, fiber = preimage_singularity(mk(r_q, a, d % r_q), r_q // d)
                    assert count == 1
                    assert fiber == unit_search(d, (1, a, r_q - a)), (r_q, a, d)
                    checked += 1
        assert checked == 212

    def test_inverts_composition(self):
        # going down to the order-5 quotient and back up must recover the
        # point: the composed action of order 5 * 2 on the fiber 1/2(1,1,1),
        # with ambient exponents (4, 2, 3), has exponents (4*2 + 5, 2*2 + 5,
        # 3*2 + 5) mod 10
        m = mk(10, 3, 6)
        count, fiber = preimage_singularity(m, 5)
        assert fiber == SingularityType(2, 1)
        assert normalize_type(5 * 2, (4 * 2 + 5, 2 * 2 + 5, 3 * 2 + 5)) == m.type
        assert count * m.alpha == 5 * 1


class TestContributions:
    def test_half_point(self):
        s = SingularityType(2, 1)
        assert local(s, 1) == Rational(-1, 8)
        assert local(s, 0) == 0
        assert local(s, 2) == 0
        assert local(s, 3) == Rational(-1, 8)

    def test_third_point(self):
        s = SingularityType(3, 1)
        assert local(s, 1) == Rational(-2, 9)
        assert local(s, 2) == Rational(-1, 9)

    def test_one_fifth_123(self):
        s = SingularityType(5, 2)
        assert inverse_weight(s) == 3
        assert local(s, 1) == Rational(-2, 5)
        assert local(s, 2) == Rational(-1, 5)

    def test_inverse_weight_inverts_every_canonical_weight(self):
        for r in range(2, 25):
            for a in range(1, r // 2 + 1):
                if gcd(a, r) == 1:
                    b = inverse_weight(SingularityType(r, a))
                    assert 0 < b < r and (a * b) % r == 1

    @given(st.sampled_from([(2, 1), (3, 1), (5, 2), (7, 3), (10, 3), (11, 4)]), st.integers(0, 40))
    def test_periodicity(self, ra, i):
        s = SingularityType(*ra)
        assert local(s, i) == local(s, i + s.r)

    def test_terminal_sum(self):
        b = Basket.parse("5x1/2(1,1,1)_1, 1/6(1,1,5)_3")
        assert terminal_sum(b) == Rational(40, 3)
        assert terminal_sum(Basket()) == 0


class TestBasket:
    def test_parse_multiplicity_forms(self):
        assert Basket.parse("2x1/5(1,2,3)_1") == Basket.parse("1/5(1,2,3)_1 x2")
        assert len(Basket.parse("3x1/2(1,1,1)")) == 3

    def test_parse_normalizes_entries(self):
        assert Basket.parse("1/4(2,2,2)") == Basket.parse("1/2(1,1,1)")
        assert Basket.parse("1/5(4,2,3)") == Basket.parse("1/5(1,2,3)")

    def test_parse_empty(self):
        assert Basket.parse("") == Basket()
        assert Basket.parse("(empty)") == Basket()
        assert str(Basket()) == "(empty)"

    def test_parse_rejects_smooth_and_garbage(self):
        with pytest.raises(NotTerminalError):
            Basket.parse("1/1(1,1,1)")
        with pytest.raises(NotTerminalError):
            Basket.parse("not a basket")

    @pytest.mark.parametrize(
        "text", ["0x1/2(1,1,1)", "1/2(1,1,1) x0", "1/3(1,1,2), 00x1/2(1,1,1)"]
    )
    def test_parse_rejects_zero_count(self, text):
        # a count of 0 lists no point; dropping it would hide a typo
        with pytest.raises(NotTerminalError, match="cannot parse basket entry"):
            Basket.parse(text)

    @pytest.mark.parametrize("text", [None, 5, b"1/2(1,1,1)"], ids=["none", "int", "bytes"])
    def test_parse_refuses_what_is_no_text(self, text):
        message = re.escape(f"basket text must be str, got {text!r}")
        with pytest.raises(MalformedInputError, match=message):
            Basket.parse(text)

    @pytest.mark.parametrize("entries", [5, "1/2(1,1,1)"], ids=["int", "text"])
    def test_construction_refuses_what_is_no_sequence(self, entries):
        with pytest.raises(MalformedInputError, match="not a basket"):
            Basket(entries)

    def test_entries_must_be_marked(self):
        # a bare type has no marking; Basket.parse gives unmarked points l = 0
        message = r"basket entry must be MarkedSingularity, got SingularityType\(r=2, a=1\)"
        with pytest.raises(MalformedInputError, match=message):
            Basket((SingularityType(2, 1),))

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1/2(1,1,1)", "not a basket: .*read text with Basket.parse"),
            (7, "not a basket: 7; pass a Basket or a sequence of MarkedSingularity"),
            ([1], "basket entry must be MarkedSingularity, got 1"),
        ],
        ids=["text", "number", "bare-entry"],
    )
    def test_coerce_refuses_what_is_no_basket(self, value, message):
        with pytest.raises(MalformedInputError, match=message):
            Basket.coerce(value)

    def test_coerce_keeps_a_basket_and_reads_a_sequence(self):
        b = Basket.parse("1/2(1,1,1)_1, 1/3(1,1,2)")
        assert Basket.coerce(b) is b
        assert Basket.coerce([mk(3, 1), mk(2, 1, 1)]) == b

    def test_sorted_on_construction(self):
        b = Basket((mk(6, 1, 3), mk(2, 1, 1), mk(2, 1)))
        assert b.entries == (mk(2, 1), mk(2, 1, 1), mk(6, 1, 3))

    def test_str_round_trip(self):
        for text in (
            "1/2(1,1,1)",
            "1/2(1,1,1)_1 x5, 1/6(1,1,5)_3",
            "1/10(1,3,7)_6, 1/5(1,2,3)_1 x2",
        ):
            b = Basket.parse(text)
            assert Basket.parse(str(b)) == b

    def test_json_round_trip(self):
        b = Basket.parse("2x1/5(1,2,3)_1, 1/2(1,1,1)")
        assert Basket.from_json(b.to_json()) == b
        # unmarked entries leave the marking key out entirely
        assert all("l" not in rec for rec in Basket.parse("1/3(1,1,2)").to_json())

    @pytest.mark.parametrize(
        "rec",
        [
            {"r": 2, "a": 1, "l": 0.5},
            {"r": 2, "a": 1, "l": 1.0},
            {"r": 2, "a": 1, "l": True},
            {"r": 2, "a": True},
            {"r": 2.0, "a": 1},
            {"r": "2", "a": 1},
        ],
        ids=["fractional-l", "float-l", "bool-l", "bool-a", "float-r", "str-r"],
    )
    def test_from_json_requires_int_fields(self, rec):
        # 0.5 and true pass the range checks, so only the type keeps them out
        field = next(k for k in "ral" if type(rec.get(k, 0)) is not int)
        message = f"basket entry field {field} must be int, got {rec[field]!r}"
        with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
            Basket.from_json([rec])

    @pytest.mark.parametrize(
        "records, message",
        [
            ([{"r": 2}], "basket entry JSON has no field 'a'"),
            (5, "basket JSON must be a sequence, got 5"),
            ([5], "basket entry JSON must be an object with fields r and a, got int"),
        ],
        ids=["missing-a", "int-basket", "int-entry"],
    )
    def test_from_json_refuses_what_is_no_basket(self, records, message):
        with pytest.raises(MalformedInputError, match=message):
            Basket.from_json(records)

    def test_concatenation_and_views(self):
        b = Basket.parse("1/2(1,1,1)_1") + Basket.parse("1/3(1,1,2)")
        assert len(b) == 2
        assert tuple(e.type for e in b) == (SingularityType(2, 1), SingularityType(3, 1))
        assert b.counts() == {mk(2, 1, 1): 1, mk(3, 1): 1}
        assert bool(Basket()) is False
        assert b + [mk(2, 1)] == Basket.parse("1/2(1,1,1)_1, 1/2(1,1,1), 1/3(1,1,2)")
        with pytest.raises(MalformedInputError, match="^not a basket: 5; pass a Basket"):
            b + 5
