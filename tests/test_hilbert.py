"""Tests for the Hilbert series builders.

Frozen coefficient strings below were computed once with an independent
implementation of the closed forms (plain generating-function expansion
over Fraction) and cross-checked against the weighted-model oracles
before being committed.
"""

import random
from math import floor, gcd, lcm

import pytest

from fano_enriques.catalog import bundled_json
from fano_enriques import hilbert
import fano_enriques
from fano_enriques import enumeration, exact
from fano_enriques.errors import (
    InconsistentDataError,
    InconsistentMarkingError,
    InternalConsistencyError,
    MalformedInputError,
    NonInvertibleFactorError,
    OutOfRangeError,
)
from fano_enriques.exact import Rational
from fano_enriques.hilbert import (
    FanoData,
    FanoEnriquesData,
    altinok_series,
    bigraded_series,
    parity_defect,
    pfaffian_series,
    torsion_delta_at,
    torsion_delta_series,
    wci_series,
)
from fano_enriques.orbifold import Basket, MarkedSingularity, SingularityType, inverse_weight
from fano_enriques.quotient import CoverRecord
from fano_enriques.series import Bidegree, BigradedSeries
from oracle import binomial, geometric, presentation, product

ORACLE_TRUNCS = (0, 1, 2, 24, 72)


def mk(r, a, l=0):
    return MarkedSingularity(SingularityType(r, a), l)


def altinok_by_products(data, trunc):
    """Altinok's formula expanded through geometric series and the naive
    product of tests/oracle.py, with no integrality check: the route the
    builder used to take, kept as an independent oracle for the division
    route."""
    n = trunc
    t = BigradedSeries.polynomial(1, n, [(1, Bidegree(1, 0))])
    t2 = BigradedSeries.polynomial(1, n, [(1, Bidegree(2, 0))])
    geom1 = geometric(Bidegree(1, 0), 1, n)
    geom1_sq = product(geom1, geom1)
    half_k = BigradedSeries(1, [[data.minus_k_cubed / 2] + [0] * n])

    total = product(BigradedSeries.one(1, n) + t, geom1_sq)
    total = total + product(product(product(t + t2, geom1_sq), geom1_sq), half_k)
    for entry, mult in data.basket.counts().items():
        r = entry.type.r
        b = inverse_weight(entry.type)
        poly = [Rational(0)] * (n + 1)
        for i in range(1, min(r, n + 1)):
            bi = (b * i) % r
            poly[i] = mult * Rational(bi * (r - bi), 2 * r)
        correction = product(
            product(BigradedSeries(1, [poly]), geom1), geometric(Bidegree(r, 0), 1, n)
        )
        total = total - correction
    return total


def random_fano_data(rng):
    """A random basket of up to eight points and the least few -K^3 > 0 that
    pass the parity check against it.  -K^3 = local + 2k with local the
    basket's sum of b(r-b)/r, and k (the parity defect) may be negative,
    which forces a negative plurigenus h^0(-K) = k + 3 for k < -3."""
    entries = []
    for _ in range(rng.randint(0, 8)):
        r = rng.randint(2, 13)
        a = rng.choice([a for a in range(1, r // 2 + 1) if gcd(a, r) == 1])
        entries.append(mk(r, a))
    basket = Basket(tuple(entries))
    local = -2 * parity_defect(Rational(0), basket)
    k = rng.randint(floor(-local / 2) + 1, 3)
    return FanoData(local + 2 * k, basket)


def bundled_covers():
    return [
        CoverRecord.from_json(entry)
        for name in ("covers_codim1.json", "covers_codim2.json", "covers_codim3.json")
        for entry in bundled_json(name)["entries"]
    ]


class TestParityDefect:
    def test_values(self):
        assert parity_defect(Rational(4), Basket()) == 2
        assert parity_defect(Rational(5, 2), Basket.parse("1/2(1,1,1)")) == 1
        assert parity_defect(Rational(1, 2), Basket.parse("1/2(1,1,1)")) == 0
        # 1/5(1,2,3) has inverse weight 3, so it contributes 6/5
        assert parity_defect(Rational(16, 5), Basket.parse("1/5(1,2,3)")) == 1

    def test_markings_are_ignored(self):
        marked = Basket.parse("1/2(1,1,1)_1 x5, 1/6(1,1,5)_3")
        plain = Basket.parse("5x1/2(1,1,1), 1/6(1,1,5)")
        assert parity_defect(Rational(5, 2), marked) == parity_defect(Rational(5, 2), plain)


class TestFanoData:
    def test_accepts_consistent_data(self):
        FanoData(Rational(5, 2), Basket.parse("1/2(1,1,1)"))
        FanoData(Rational(4))

    def test_rejects_parity_violation(self):
        with pytest.raises(InconsistentDataError):
            FanoData(Rational(1), Basket.parse("1/2(1,1,1)"))
        with pytest.raises(InconsistentDataError):
            FanoData(Rational(3))

    @pytest.mark.parametrize(
        "k3, basket",
        [(0.1, ""), (2.5, "1/2(1,1,1)"), (True, ""), ("4", "")],
        ids=["0.1", "2.5", "bool", "str"],
    )
    def test_degree_must_be_exact(self, k3, basket):
        # a float would be read at its binary value, a bool as 0 or 1
        with pytest.raises(MalformedInputError, match=f"not an exact rational: {k3!r}"):
            FanoData(k3, Basket.parse(basket))

    def test_basket_text_refused(self):
        # an AttributeError on .type before
        with pytest.raises(MalformedInputError, match="read text with Basket.parse"):
            FanoData(2, "1/2(1,1,1)")

    def test_basket_sequence_read(self):
        entries = list(Basket.parse("1/2(1,1,1)"))
        assert FanoData(Rational(5, 2), entries) == FanoData(Rational(5, 2), Basket(tuple(entries)))

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(InconsistentDataError):
            FanoData(Rational(0))
        with pytest.raises(InconsistentDataError):
            FanoData(Rational(-2))


class TestAltinokSeries:
    def test_half_point_example(self):
        # -K^3 = 5/2 with a single half-point
        s = altinok_series(FanoData(Rational(5, 2), Basket.parse("1/2(1,1,1)")), 9)
        assert s.component(0) == (1, 4, 11, 24, 46, 79, 126, 189, 271, 374)

    def test_smooth_quartic(self):
        s = altinok_series(FanoData(Rational(4)), 6)
        assert s.component(0) == (1, 5, 15, 35, 69, 121, 195)

    def test_matches_hypersurface_oracle(self):
        cases = [
            ((1, 1, 1, 1, 1), (4,), Rational(4), Basket()),
            ((1, 1, 1, 1, 3), (6,), Rational(2), Basket()),
            ((1, 1, 1, 1, 1, 1), (2, 3), Rational(6), Basket()),
            ((1, 1, 2, 2, 3), (8,), Rational(2, 3), Basket.parse("4x1/2(1,1,1), 1/3(1,1,2)")),
        ]
        for weights, degrees, k3, basket in cases:
            assert altinok_series(FanoData(k3, basket), 20) == wci_series(weights, degrees, 20)

    def test_matches_pfaffian_oracle(self):
        got = altinok_series(
            FanoData(Rational(1), Basket.parse("2x1/2(1,1,1), 3x1/3(1,1,2)")), 20
        )
        assert got == pfaffian_series((1, 1, 2, 2, 3, 3, 3), (5, 5, 6, 6, 6), 20)

    def test_rejects_data_with_negative_coefficients(self):
        # 47 half-points pass the parity check with -K^3 = 3/2 but force
        # h^0(-K) below zero, so the series construction must refuse
        basket = Basket(tuple([mk(2, 1)] * 47))
        data = FanoData(Rational(3, 2), basket)
        with pytest.raises(InconsistentDataError):
            altinok_series(data, 4)

    @pytest.mark.parametrize("trunc", ORACLE_TRUNCS)
    def test_division_route_matches_product_oracle(self, trunc):
        rng = random.Random(20260 + trunc)
        checked = refused = 0
        for _ in range(40):
            data = random_fano_data(rng)
            expected = altinok_by_products(data, trunc)
            bad = [
                m for m, c in enumerate(expected.component(0))
                if c.denominator != 1 or c < 0
            ]
            if bad:
                with pytest.raises(InconsistentDataError, match=rf"at t\^{bad[0]} is"):
                    altinok_series(data, trunc)
                refused += 1
            else:
                assert altinok_series(data, trunc) == expected
                checked += 1
        assert checked >= 10
        if trunc >= 1:
            assert refused >= 1

    def test_negative_truncation(self):
        with pytest.raises(OutOfRangeError, match="trunc must be >= 0"):
            altinok_series(FanoData(Rational(4)), -1)

    def test_truncation_must_be_an_int(self):
        with pytest.raises(OutOfRangeError, match="trunc must be an integer, got 2.0"):
            altinok_series(FanoData(2, Basket()), 2.0)


class TestTorsionDelta:
    BT = Basket.parse("1/2(1,1,1)_1 x5, 1/6(1,1,5)_3")

    def test_zero_for_trivial_twist(self):
        s = torsion_delta_series(self.BT, 0, 12)
        assert s.component(0) == tuple([0] * 13)

    def test_zero_for_unmarked_basket(self):
        assert torsion_delta_at(Basket.parse("1/2(1,1,1)"), 1, 3) == 0

    def test_series_matches_pointwise_formula(self):
        # the builder reconciles both routes internally; check the public
        # values once more from the outside
        for i in range(2):
            s = torsion_delta_series(self.BT, i, 24)
            for n in range(25):
                assert s.coefficient(n) == torsion_delta_at(self.BT, i, n)

    def test_periodic_in_twist(self):
        period = lcm(*(e.type.r for e in self.BT))
        for n in range(6):
            assert torsion_delta_at(self.BT, 1, n) == torsion_delta_at(self.BT, 1 + period, n)

    def test_mixed_marking_basket(self):
        bt = Basket.parse("1/10(1,3,7)_6, 2x1/5(1,2,3)_1")
        for i in range(5):
            s = torsion_delta_series(bt, i, 20)
            assert s.coefficient(0) == torsion_delta_at(bt, i, 0)
            assert s.coefficient(7) == torsion_delta_at(bt, i, 7)

    def test_negative_truncation(self):
        with pytest.raises(OutOfRangeError, match="trunc must be >= 0"):
            torsion_delta_series(self.BT, 1, -1)


def off_by_one_at_period_end(monkeypatch, r_q):
    """Make the integer cycle of every index-r_q point one too large at its
    last n, so the summed cycle of a basket with lcm r_Q = r_q is wrong at
    n = r_q - 1 only.  The reconciled cycles are cached, so the cache is
    emptied first: a cycle reconciled earlier would hide the patch."""
    real = hilbert._delta_cycle_scaled

    def broken(r, a, lp):
        cycle = real(r, a, lp)
        return cycle[:-1] + (cycle[-1] + 1,) if r == r_q else cycle

    hilbert._reconciled_cycle.cache_clear()
    monkeypatch.setattr(hilbert, "_delta_cycle_scaled", broken)


def count_torsion_delta_at(monkeypatch) -> list:
    """Patch hilbert.torsion_delta_at to record each call's arguments."""
    calls, real = [], hilbert.torsion_delta_at

    def counted(bt, i, n):
        calls.append((bt, i, n))
        return real(bt, i, n)

    monkeypatch.setattr(hilbert, "torsion_delta_at", counted)
    return calls


class TestTorsionCycleReconciliation:
    """Each point type's integer cycle is checked against torsion_delta_at
    at every n of its period, however short the requested truncation, and
    only once."""

    def test_delta_series_reconciles_the_whole_period_at_trunc_zero(self, monkeypatch):
        off_by_one_at_period_end(monkeypatch, 6)
        with pytest.raises(InternalConsistencyError, match=r"values for 1/6\(1,1,5\)_3$"):
            torsion_delta_series(TestTorsionDelta.BT, 1, 0)

    def test_bigraded_series_reconciles_the_whole_period_at_trunc_zero(self, monkeypatch):
        off_by_one_at_period_end(monkeypatch, 10)
        with pytest.raises(InternalConsistencyError, match=r"values for 1/10\(1,3,7\)_6$"):
            bigraded_series(TestBigradedSeries.DATA, 0)

    def test_each_point_type_is_reconciled_once(self, monkeypatch):
        bt = TestBigradedSeries.DATA.bt
        hilbert._reconciled_cycle.cache_clear()
        calls = count_torsion_delta_at(monkeypatch)
        first = [torsion_delta_series(bt, i, 30) for i in range(5)]
        # 1/10(1,3,7) marked 6, 2, 8, 4 and 1/5(1,2,3) marked 1, 2, 3, 4
        assert len(calls) == 4 * 10 + 4 * 5
        del calls[:]
        assert [torsion_delta_series(bt, i, 30) for i in range(5)] == first
        assert calls == []

    def test_reproduction_reconciles_each_point_type_it_reaches_once(self, monkeypatch):
        from fano_enriques import catalog

        reached = set()
        real_series = hilbert.torsion_delta_series

        def recorded(bt, i, trunc):
            reached.update((e.type.r, e.type.a, lp) for e in bt if (lp := (i * e.l) % e.type.r))
            return real_series(bt, i, trunc)

        hilbert._reconciled_cycle.cache_clear()
        calls = count_torsion_delta_at(monkeypatch)
        monkeypatch.setattr(hilbert, "torsion_delta_series", recorded)
        catalog.reproduce()
        assert len(reached) == 48
        assert len(calls) == sum(r_q for r_q, _, _ in reached) == 386


class TestFanoEnriquesData:
    GOOD = dict(
        r=5,
        minus_k_cubed=Rational(1, 2),
        bt=Basket.parse("1/10(1,3,7)_6, 2x1/5(1,2,3)_1"),
        be=Basket(),
    )

    def test_accepts_book_example(self):
        data = FanoEnriquesData(**self.GOOD)
        assert data.combined_basket == data.bt

    def test_rejects_small_torsion_order(self):
        with pytest.raises(OutOfRangeError, match="torsion order 1 outside \\[2, 24\\]"):
            FanoEnriquesData(1, Rational(1, 2), Basket())

    def test_rejects_torsion_order_beyond_bound(self):
        # R3 bounds r by MAX_TORSION, defined once in exact
        assert fano_enriques.MAX_TORSION == enumeration.MAX_TORSION == exact.MAX_TORSION == 24
        FanoEnriquesData(exact.MAX_TORSION, Rational(2), Basket())
        for r in (exact.MAX_TORSION + 1, 10**9):
            with pytest.raises(OutOfRangeError, match=f"torsion order {r} outside \\[2, 24\\]"):
                FanoEnriquesData(r, Rational(2), Basket())

    @pytest.mark.parametrize(
        "k3, basket", [(Rational(-1), ""), (Rational(1), "1/2(1,1,1)_1")], ids=["negative", "parity"]
    )
    def test_messages_are_fano_data_messages(self, k3, basket):
        with pytest.raises(InconsistentDataError) as plain:
            FanoData(k3, Basket.parse(basket))
        with pytest.raises(InconsistentDataError) as torsion:
            FanoEnriquesData(2, k3, Basket.parse(basket))
        assert str(torsion.value) == str(plain.value)

    def test_rejects_unmarked_bt_entry(self):
        with pytest.raises(InconsistentMarkingError):
            FanoEnriquesData(2, Rational(1, 2), Basket.parse("1/2(1,1,1)"))

    def test_rejects_incompatible_stabilizer(self):
        # 1/3(1,1,2)_1 has stabilizer order 3, which does not divide 2
        with pytest.raises(InconsistentMarkingError):
            FanoEnriquesData(2, Rational(1, 2), Basket.parse("1/3(1,1,2)_1, 1/2(1,1,1)_1"))

    def test_rejects_marked_be_entry(self):
        with pytest.raises(InconsistentMarkingError):
            FanoEnriquesData(
                2, Rational(1), Basket.parse("1/2(1,1,1)_1"), Basket.parse("1/2(1,1,1)_1")
            )

    def test_rejects_parity_violation(self):
        with pytest.raises(InconsistentDataError):
            FanoEnriquesData(2, Rational(1), Basket.parse("1/2(1,1,1)_1"))

    def test_bt_of_bare_entries_refused(self):
        # an AttributeError on .l before
        with pytest.raises(MalformedInputError, match="not a singularity entry: 1"):
            FanoEnriquesData(2, 1, [1])

    def test_basket_sequences_read(self):
        data = FanoEnriquesData(**dict(self.GOOD, bt=list(self.GOOD["bt"]), be=[]))
        assert data == FanoEnriquesData(**self.GOOD)

    def test_json_round_trip(self):
        data = FanoEnriquesData(**self.GOOD)
        assert FanoEnriquesData.from_json(data.to_json()) == data
        assert data.to_json()["minusK3"] == "1/2"

    def test_float_degree_refused(self):
        with pytest.raises(MalformedInputError, match="not an exact rational: 0.5"):
            FanoEnriquesData(**dict(self.GOOD, minus_k_cubed=0.5))

    @pytest.mark.parametrize("k3", [0.5, 1e-400, True], ids=repr)
    def test_json_float_refused(self, k3):
        obj = FanoEnriquesData(**self.GOOD).to_json()
        obj["minusK3"] = k3
        with pytest.raises(MalformedInputError, match="not an exact rational"):
            FanoEnriquesData.from_json(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({}, "Fano-Enriques data JSON has no field 'r'"),
            ({"r": 5, "minusK3": "1/2"}, "Fano-Enriques data JSON has no field 'bt'"),
            (5, "Fano-Enriques data JSON must be an object with fields r, minusK3 and bt, got int"),
        ],
        ids=["empty", "no-bt", "int"],
    )
    def test_from_json_refuses_what_is_no_data(self, obj, message):
        with pytest.raises(MalformedInputError, match=message):
            FanoEnriquesData.from_json(obj)


class TestBigradedSeries:
    DATA = FanoEnriquesData(
        5,
        Rational(1, 2),
        Basket.parse("1/10(1,3,7)_6, 2x1/5(1,2,3)_1"),
    )

    def test_untwisted_component(self):
        fe = bigraded_series(self.DATA, 9)
        assert fe.component(0) == (1, 1, 2, 5, 9, 16, 25, 38, 54, 74)

    def test_low_degree_columns(self):
        fe = bigraded_series(self.DATA, 9)
        assert [fe.coefficient(0, i) for i in range(5)] == [1, 0, 0, 0, 0]
        assert [fe.coefficient(1, i) for i in range(5)] == [1, 1, 0, 1, 1]
        assert [fe.coefficient(2, i) for i in range(5)] == [2, 2, 3, 2, 2]

    def test_components_sum_to_cover_series(self):
        # eigenspace decomposition: summing over twists gives the series
        # of the degree-5 cyclic cover, which has -K^3 = 5/2 and a single
        # half-point upstairs
        fe = bigraded_series(self.DATA, 12)
        cover = altinok_series(FanoData(Rational(5, 2), Basket.parse("1/2(1,1,1)")), 12)
        assert fe.collapse() == cover

    def test_generator_peel_leaves_single_relation(self):
        fe = bigraded_series(self.DATA, 9)
        residual = fe
        for d in (Bidegree(1, 0), Bidegree(1, 1), Bidegree(1, 3), Bidegree(1, 4), Bidegree(2, 2)):
            residual = residual.peel(d)
        assert residual == binomial(5, 9, Bidegree(5, 0))

    def test_rejects_data_without_torsion_divisor(self):
        # four marked half-points pass parity with -K^3 = 2 but give
        # chi(sigma) = 1/2, so no torsion divisor of order 2 exists
        bad = FanoEnriquesData(2, Rational(2), Basket.parse("4x1/2(1,1,1)_1"))
        with pytest.raises(InconsistentDataError):
            bigraded_series(bad, 8)

    def test_negative_truncation(self):
        with pytest.raises(OutOfRangeError, match="trunc must be >= 0"):
            bigraded_series(self.DATA, -1)

    def test_torsion_order_must_be_an_int(self):
        # refused by FanoEnriquesData, before any series is built
        with pytest.raises(OutOfRangeError, match="torsion order must be an integer, got 2.0"):
            bigraded_series(FanoEnriquesData(2.0, Rational(2), Basket()), 5)


class TestModelOracles:
    def test_wci_requires_anticanonical_polarization(self):
        with pytest.raises(InconsistentDataError):
            wci_series((1, 1, 1, 1, 1), (5,), 20)

    def test_pfaffian_validation(self):
        with pytest.raises(InconsistentDataError):
            pfaffian_series((1, 1, 1, 1, 1, 1, 1), (2, 2, 2), 20)
        with pytest.raises(InconsistentDataError):
            pfaffian_series((1, 1, 2, 2, 3, 3, 3), (5, 5, 6, 6, 7), 20)

    def test_wci_rejects_degree_zero_relation(self):
        # the factor 1 - t^0 = 0 would make the series 0
        with pytest.raises(NonInvertibleFactorError):
            wci_series((1, 1, 1, 1, 1), (4, 0), 20)

    def test_pfaffian_shape_messages(self):
        with pytest.raises(InconsistentDataError, match="a Pfaffian model needs 5 degrees, got 3"):
            pfaffian_series((1, 1, 1, 1, 1, 1, 1), (2, 2, 2), 20)
        with pytest.raises(
            InconsistentDataError,
            match=r"Pfaffian degrees \(5, 5, 6, 6, 7\) incompatible with weights "
            r"\(1, 1, 2, 2, 3, 3, 3\): sum is not 2\*\(sum\(weights\) - 1\) = 28",
        ):
            pfaffian_series((1, 1, 2, 2, 3, 3, 3), (5, 5, 6, 6, 7), 20)

    def test_pfaffian_numerator_shape(self):
        # weights sum to 15, so e = 14 and the numerator is
        # 1 - 2t^5 - 3t^6 + 3t^8 + 2t^9 - t^14
        s = pfaffian_series((1, 1, 2, 2, 3, 3, 3), (5, 5, 6, 6, 6), 14)
        recovered = s
        for w in (1, 1, 2, 2, 3, 3, 3):
            recovered = recovered.peel(Bidegree(w, 0))
        coeffs = recovered.component(0)
        expected = [0] * 15
        expected[0] = 1
        expected[5] = -2
        expected[6] = -3
        expected[8] = 3
        expected[9] = 2
        expected[14] = -1
        assert list(coeffs) == expected

    def test_pfaffian_rejects_degree_beyond_e(self):
        # sum of degrees is 2e = 16, but 12 > e leaves a negative syzygy degree
        with pytest.raises(InconsistentDataError, match="exceed e = 8"):
            pfaffian_series((1, 1, 1, 1, 1, 1, 3), (1, 1, 1, 1, 12), 20)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: wci_series((1, 1, 1, 1, 1), "4", 5), "got '4'"),
            (lambda: wci_series((1, 1, 1, 1, 1.0), (4,), 5), "got 1.0"),
            (lambda: pfaffian_series((1, 1, 2, 2, 3, 3, 3), "55666", 5), "got '5'"),
            (lambda: pfaffian_series((1, 1, 2, 2, 3, 3, True), (5, 5, 6, 6, 6), 5), "got True"),
        ],
        ids=["wci-text-degrees", "wci-float-weight", "pfaffian-text-degrees", "pfaffian-bool-weight"],
    )
    def test_weights_and_degrees_must_be_ints(self, build, message):
        with pytest.raises(OutOfRangeError, match=f"t-degree must be an integer, {message}"):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: wci_series(5, (4,), 5), "weights must be a sequence, got 5"),
            (lambda: pfaffian_series((1,) * 7, 5, 5), "degrees must be a sequence, got 5"),
        ],
        ids=["wci-int-weights", "pfaffian-int-degrees"],
    )
    def test_weights_and_degrees_must_be_sequences(self, build, message):
        with pytest.raises(MalformedInputError, match=message):
            build()

    def test_negative_truncation(self):
        with pytest.raises(OutOfRangeError, match="trunc must be >= 0"):
            wci_series((1, 1, 1, 1, 1), (4,), -1)
        with pytest.raises(OutOfRangeError, match="trunc must be >= 0"):
            pfaffian_series((1, 1, 2, 2, 3, 3, 3), (5, 5, 6, 6, 6), -1)

    @pytest.mark.parametrize("trunc", ORACLE_TRUNCS)
    def test_bundled_covers_match_product_route(self, trunc):
        # the builders divide one integer numerator by (1 - t^w); the
        # oracle multiplies the same numerator by the geometric series of
        # every weight with the naive product of tests/oracle.py
        covers = bundled_covers()
        assert len(covers) == 48
        for cover in covers:
            gens = [Bidegree(w, 0) for w in cover.weights]
            if cover.structure == "pfaffian":
                e = sum(cover.weights) - 1
                numerator = BigradedSeries.one(1, trunc)
                for d in cover.degrees:
                    numerator = numerator - BigradedSeries.polynomial(1, trunc, [(1, Bidegree(d))])
                    numerator = numerator + BigradedSeries.polynomial(
                        1, trunc, [(1, Bidegree(e - d))]
                    )
                numerator = numerator - BigradedSeries.polynomial(1, trunc, [(1, Bidegree(e))])
                expected = product(numerator, presentation(gens, (), 1, trunc))
                assert pfaffian_series(cover.weights, cover.degrees, trunc) == expected
            else:
                rels = [Bidegree(d, 0) for d in cover.degrees]
                expected = presentation(gens, rels, 1, trunc)
                assert wci_series(cover.weights, cover.degrees, trunc) == expected
