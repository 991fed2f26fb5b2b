"""Tests for cover matching and the quotient search pipeline."""

import dataclasses
import hashlib
import json
import re
from collections import Counter
from math import prod

import pytest

from fano_enriques.catalog import bundled_catalog, bundled_json
from fano_enriques.enumeration import BtCandidate, enumerate_bt
from fano_enriques.errors import (
    CatalogError,
    InconsistentDataError,
    InconsistentMarkingError,
    MalformedInputError,
    OutOfRangeError,
)
from fano_enriques.exact import MAX_TRUNC, Rational
from fano_enriques.gradedrings import Presentation
from fano_enriques.hilbert import FanoEnriquesData
from fano_enriques.orbifold import Basket, MarkedSingularity, SingularityType, forced_preimage
from fano_enriques.quotient import (
    CROSS_CODIMENSION,
    CoverRecord,
    QuotientCandidate,
    Rejection,
    SearchResult,
    TRUNC,
    match_cover,
    search,
)
from fano_enriques.series import Bidegree
from oracle import series_k_cubed


def bd(pairs):
    return tuple(Bidegree(n, i) for n, i in pairs)


Y4 = CoverRecord("Y_{4} in P(1,1,1,1,1)", (1, 1, 1, 1, 1), (4,), Basket(), Rational(4))
Y5 = CoverRecord(
    "Y_{5} in P(1,1,1,1,2)", (1, 1, 1, 1, 2), (5,), Basket.parse("1/2(1,1,1)"), Rational(5, 2)
)
Y8 = CoverRecord(
    "Y_{8} in P(1,1,2,2,3)",
    (1, 1, 2, 2, 3),
    (8,),
    Basket.parse("4x1/2(1,1,1), 1/3(1,1,2)"),
    Rational(2, 3),
)
STANDIN = CoverRecord(
    "Y_{5,5,6,6,6} in P(1,1,2,2,3,3,3)",
    (1, 1, 2, 2, 3, 3, 3),
    (5, 5, 6, 6, 6),
    Basket.parse("2x1/2(1,1,1), 3x1/3(1,1,2)"),
    Rational(1),
    structure="pfaffian",
)

WORKED_BT = Basket.parse("1/10(1,3,7)_6, 2x1/5(1,2,3)_1")


def census(*orders):
    return [c for r in orders for c in enumerate_bt(r)]


class TestForcedPreimage:
    def test_marked_points_unwind(self):
        # fully marked half-points lift to smooth points and drop out
        got = forced_preimage(WORKED_BT, 5)
        assert got == Counter({SingularityType(2, 1): 1})

    def test_partially_marked_index_six_point(self):
        got = forced_preimage(Basket.parse("5x1/2(1,1,1)_1, 1/6(1,1,5)_3"), 2)
        assert got == Counter({SingularityType(3, 1): 1})

    def test_unmarked_entries_are_refused(self):
        # every entry of bt is marked; an unmarked one belongs to be
        with pytest.raises(InconsistentMarkingError, match=r"1/2\(1,1,1\) has l = 0"):
            forced_preimage(Basket.parse("1/2(1,1,1)"), 2)

    def test_empty_basket(self):
        assert forced_preimage(Basket(), 5) == Counter()


class TestCoverRecord:
    def test_validate_consistent_records(self):
        assert Y4.validate() == []
        assert Y5.validate() == []
        assert Y8.validate() == []
        assert STANDIN.validate() == []

    def test_implied_k_cubed(self):
        assert Y4.implied_k_cubed() == 4
        assert Y8.implied_k_cubed() == Rational(2, 3)
        assert STANDIN.implied_k_cubed() == 1

    def test_implied_k_cubed_of_bundled_covers(self):
        # a complete intersection forces prod(degrees)/prod(weights); a
        # Pfaffian cover has no such product; every cover also matches the
        # series route, its numerator over (1 - t)^codimension, summed
        covers = [
            cover
            for name in ("covers_codim1.json", "covers_codim2.json", "covers_codim3.json")
            for cover in bundled_catalog(name)
        ]
        ci = [c for c in covers if c.structure == "ci"]
        pfaffian = [c for c in covers if c.structure == "pfaffian"]
        assert (len(ci), len(pfaffian)) == (45, 3)
        for cover in ci:
            assert cover.implied_k_cubed() == Rational(prod(cover.degrees), prod(cover.weights))
        for cover in covers:
            assert cover.implied_k_cubed() == series_k_cubed(cover)

    def test_numerator_not_vanishing_to_codimension(self):
        # polarized, but one degree for codimension 2: 1 - t^5 has a simple zero
        rec = CoverRecord("bad", (1, 1, 1, 1, 1, 1), (5,), Basket(), Rational(1))
        message = "bad: numerator does not vanish to order 2 at t = 1"
        with pytest.raises(CatalogError, match=re.escape(message)):
            rec.implied_k_cubed()
        assert rec.validate() == [message]

    def test_validate_reports_the_builder_message(self):
        rec = CoverRecord(
            "bad", (1, 1, 2, 2, 3, 3, 3), (5, 5, 6, 6, 7), Basket(), Rational(1),
            structure="pfaffian",
        )
        with pytest.raises(InconsistentDataError) as exc:
            rec.series(TRUNC)
        assert rec.validate() == [str(exc.value)]

    def test_codimension(self):
        assert Y4.codimension == 1
        assert STANDIN.codimension == 3

    def test_validate_wrong_k_cubed(self):
        rec = CoverRecord("bad", (1, 1, 1, 1, 1), (4,), Basket(), Rational(5))
        assert any("model forces" in p for p in rec.validate())

    def test_validate_bad_polarization(self):
        rec = CoverRecord("bad", (1, 1, 1, 1, 1), (5,), Basket(), Rational(5))
        assert any("anticanonically" in p for p in rec.validate())

    def test_validate_parity_violating_basket(self):
        rec = CoverRecord(
            "bad", (1, 1, 1, 1, 1), (4,), Basket.parse("1/2(1,1,1)"), Rational(4)
        )
        assert any("parity" in p for p in rec.validate())

    def test_validate_pfaffian_shape(self):
        rec = CoverRecord(
            "bad", (1, 1, 2, 2, 3, 3, 3), (5, 5, 6, 6), Basket(), Rational(1),
            structure="pfaffian",
        )
        assert any("needs 5 degrees" in p for p in rec.validate())

    def test_validate_pfaffian_degree_beyond_e(self):
        # degrees sum to 2e = 16, but 12 > e would give a negative syzygy degree
        rec = CoverRecord(
            "bad", (1, 1, 1, 1, 1, 1, 3), (1, 1, 1, 1, 12), Basket(), Rational(1),
            structure="pfaffian",
        )
        assert any("incompatible with weights" in p for p in rec.validate())

    def test_construction_guards(self):
        with pytest.raises(CatalogError):
            CoverRecord("bad", (1, 1, 1, 1, 1), (4,), Basket(), Rational(4), structure="quintic")
        with pytest.raises(CatalogError):
            CoverRecord("bad", (), (4,), Basket(), Rational(4))
        with pytest.raises(CatalogError):
            CoverRecord("bad", (1, 1, 1, 1, 1), (0,), Basket(), Rational(4))
        # search reads only the point types, so a marking would be dropped
        with pytest.raises(CatalogError, match=r"bad: basket entry 1/2\(1,1,1\)_1 is marked"):
            CoverRecord("bad", (1, 1, 1, 1, 2), (5,), Basket.parse("1/2(1,1,1)_1"), Rational(5, 2))

    @pytest.mark.parametrize(
        "weights, degrees",
        [
            ((1, 1, 1, 1, 2.9), (5,)),
            ((1, 1, 1, 1, 2), (5.2,)),
            ((1, 1, 1, 1, 2), (5.0,)),
            ((1, 1, 1, True, 2), (5,)),
            ((1, 1, 1, 1, "2"), (5,)),
        ],
        ids=["fractional-weight", "fractional-degree", "float-degree", "bool", "str"],
    )
    def test_weights_and_degrees_must_be_ints(self, weights, degrees):
        # int() would truncate 2.9 and 5.2 and load the quintic instead
        with pytest.raises(CatalogError, match="must be positive integers"):
            CoverRecord("bad", weights, degrees, Basket.parse("1/2(1,1,1)"), Rational(5, 2))

    def test_json_round_trip(self):
        for rec in (Y5, STANDIN):
            assert CoverRecord.from_json(rec.to_json()) == rec
        assert "structure" not in Y5.to_json()
        assert STANDIN.to_json()["structure"] == "pfaffian"

    @pytest.mark.parametrize("k3", [2.5, True], ids=repr)
    def test_inexact_k3_refused(self, k3):
        with pytest.raises(MalformedInputError, match=f"not an exact rational: {k3!r}"):
            CoverRecord("bad", (1, 1, 1, 1, 2), (5,), Basket.parse("1/2(1,1,1)"), k3)

    def test_json_float_k3_refused(self):
        obj = Y5.to_json()
        obj["minusK3"] = 2.5
        with pytest.raises(MalformedInputError, match="not an exact rational: 2.5"):
            CoverRecord.from_json(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({}, "cover JSON has no field 'name'"),
            ({k: v for k, v in Y5.to_json().items() if k != "weights"},
             "cover JSON has no field 'weights'"),
            ([], "cover JSON must be an object with fields name, weights, degrees and minusK3"),
            (dict(Y5.to_json(), degrees=5), "degrees must be a sequence, got 5"),
        ],
        ids=["empty", "no-weights", "list", "int-degrees"],
    )
    def test_from_json_refuses_what_is_no_cover(self, obj, message):
        with pytest.raises(MalformedInputError, match=message):
            CoverRecord.from_json(obj)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("name", ["x"], r"name must be str, got \['x'\]"),
            ("name", 5, "name must be str, got 5"),
            ("notes", 5, "notes must be str, got 5"),
        ],
        ids=["list-name", "int-name", "int-notes"],
    )
    def test_name_and_notes_must_be_strings(self, field, value, message):
        # the reader used to pass the name through str() and keep any notes
        with pytest.raises(MalformedInputError, match=message):
            CoverRecord.from_json(dict(Y5.to_json(), **{field: value}))
        with pytest.raises(MalformedInputError, match=message):
            dataclasses.replace(Y5, **{field: value})

    def test_str(self):
        assert str(Y4) == "Y_{4} in P(1,1,1,1,1) = (4) in P(1,1,1,1,1)"


class TestRejection:
    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError):
            Rejection("Y", 2, Basket(), "bored")

    def test_json_and_str(self):
        rej = Rejection("Y", 2, Basket.parse("1/2(1,1,1)_1"), "parity-fail", "defect 1/2")
        assert rej.to_json()["reason"] == "parity-fail"
        assert "parity-fail" in str(rej)


class TestMatchCover:
    def test_assembles_quotient_data(self):
        outcome = match_cover(Y5, BtCandidate(5, WORKED_BT))
        assert isinstance(outcome, FanoEnriquesData)
        assert outcome.minus_k_cubed == Rational(1, 2)
        assert outcome.be == Basket()

    def test_residual_points_descend_unmarked(self):
        bt = Basket.parse("5x1/2(1,1,1)_1, 1/6(1,1,5)_3")
        outcome = match_cover(Y8, BtCandidate(2, bt))
        assert isinstance(outcome, FanoEnriquesData)
        # cover basket 4 x 1/2 + 1/3; the 1/3 is forced, the half-points
        # split into two free orbits of size 2
        assert outcome.be == Basket.parse("2x1/2(1,1,1)")

    def test_preimage_mismatch(self):
        bt = Basket.parse("5x1/2(1,1,1)_1, 1/6(1,1,5)_3")
        outcome = match_cover(Y4, BtCandidate(2, bt))
        assert isinstance(outcome, Rejection)
        assert outcome.reason == "preimage-mismatch"
        assert "cover has 0" in outcome.detail

    def test_orbit_indivisible(self):
        outcome = match_cover(Y5, BtCandidate(5, Basket.parse("2x1/5(1,2,3)_1")))
        assert isinstance(outcome, Rejection)
        assert outcome.reason == "orbit-indivisible"

    def test_parity_fail(self):
        outcome = match_cover(Y4, BtCandidate(5, Basket.parse("2x1/5(1,2,3)_1")))
        assert isinstance(outcome, Rejection)
        assert outcome.reason == "parity-fail"


class TestQuotientCandidate:
    def _candidate(self, diagnostics=()):
        data = FanoEnriquesData(5, Rational(1, 2), WORKED_BT)
        pres = Presentation(
            bd([(1, 0), (1, 1), (1, 3), (1, 4), (2, 2)]), bd([(5, 0)]), "clean"
        )
        return QuotientCandidate(Y5, data, pres, diagnostics)

    def test_degree_guard(self):
        data = FanoEnriquesData(5, Rational(1, 2), WORKED_BT)
        pres = Presentation((), (), "clean")
        with pytest.raises(InconsistentDataError):
            QuotientCandidate(Y4, data, pres)

    def test_matches_cover_shape(self):
        assert CROSS_CODIMENSION not in self._candidate().diagnostics

    def test_cross_codimension_flag(self):
        c = self._candidate((CROSS_CODIMENSION,))
        assert CROSS_CODIMENSION in c.diagnostics
        assert c.to_json()["flags"] == [CROSS_CODIMENSION]
        assert CROSS_CODIMENSION not in self._candidate().diagnostics

    def test_json_contains_action(self):
        # each generator and relation is its bidegree (n, i), i the exponent
        # of the torsion action
        obj = self._candidate().to_json()
        assert obj["generators"] == [[1, 0], [1, 1], [1, 3], [1, 4], [2, 2]]
        assert obj["relations"] == [[5, 0]]
        assert obj["flags"] == []


class TestSearch:
    def test_mini_catalog(self):
        res = search([Y4, Y5, Y8], census(2, 5), trunc=24)
        assert len(res) == 4
        assert len(res.clean()) == 2
        assert len(res.special()) == 2
        assert len(res.rejections) == 68
        reasons = Counter(r.reason for r in res.rejections)
        assert reasons == Counter(
            {"preimage-mismatch": 54, "orbit-indivisible": 11, "parity-fail": 3}
        )

    def test_mini_catalog_clean_rows(self):
        res = search([Y4, Y5, Y8], census(2, 5), trunc=24)
        by_cover = {c.cover.name: c for c in res.clean()}
        quartic = by_cover["Y_{4} in P(1,1,1,1,1)"]
        assert quartic.data.r == 5
        assert quartic.data.minus_k_cubed == Rational(4, 5)
        assert quartic.presentation.generators == bd(
            [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]
        )
        assert quartic.presentation.relations == bd([(4, 0)])
        assert CROSS_CODIMENSION not in quartic.diagnostics

        quintic = by_cover["Y_{5} in P(1,1,1,1,2)"]
        assert quintic.data.bt == WORKED_BT
        assert quintic.presentation.generators == bd(
            [(1, 0), (1, 1), (1, 3), (1, 4), (2, 2)]
        )

    def test_mini_catalog_special_rows(self):
        res = search([Y4, Y5, Y8], census(2, 5), trunc=24)
        specials = {c.cover.name: c for c in res.special()}
        assert set(specials) == {"Y_{4} in P(1,1,1,1,1)", "Y_{8} in P(1,1,2,2,3)"}
        collision = specials["Y_{8} in P(1,1,2,2,3)"]
        assert collision.data.r == 2
        assert collision.data.minus_k_cubed == Rational(1, 3)
        assert collision.presentation.generators == bd(
            [(1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (4, 1)]
        )
        assert collision.presentation.relations == bd([(4, 0)])
        assert collision.diagnostics == (CROSS_CODIMENSION,)

    def test_candidates_sorted(self):
        res = search([Y4, Y5, Y8], census(2, 5), trunc=24)
        keys = [(c.data.r, c.cover.name, c.data.bt.entries, c.data.be.entries) for c in res]
        assert keys == sorted(keys)

    def test_rejections_follow_the_census_then_the_catalog(self):
        order = census(5, 2)
        res = search([Y8, Y4, Y5], order, trunc=24)
        position = {c.entries: k for k, c in enumerate(order)}
        covers = [Y8.name, Y4.name, Y5.name]
        keys = [(position[rej.bt], covers.index(rej.cover)) for rej in res.rejections]
        assert keys == sorted(keys)
        assert [rej.r for rej in res.rejections[:3]] == [5, 5, 5]

    def test_search_result_container(self):
        res = SearchResult()
        assert res.clean() == [] and res.special() == [] and res.rejections == []
        assert res.to_json() == {"rows": [], "special_cases": [], "rejections": []}
        for args, message in [
            (([5],), "candidate must be QuotientCandidate, got 5"),
            (([], [5]), "rejection must be Rejection, got 5"),
            ((5,), "candidates must be a sequence, got 5"),
        ]:
            with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
                SearchResult(*args)

    def test_cover_whose_basket_contradicts_its_model(self):
        # -K^3 and parity hold, so only the series tells: the quartic's
        # model gives 5 at t^1, four half-points give 4
        rec = CoverRecord(
            "bad", (1, 1, 1, 1, 1), (4,), Basket.parse("4x1/2(1,1,1)"), Rational(4)
        )
        assert rec.validate() == []
        message = "bad: series mismatch at t^1: basket gives 4, model gives 5"
        with pytest.raises(CatalogError) as exc:
            search([Y4, rec], census(2, 5), trunc=24)
        assert str(exc.value) == message
        with pytest.raises(CatalogError, match=re.escape(message)):
            rec.orbifold_series(24)

    def test_every_contradicting_cover_is_one_line(self):
        # five half-points pass parity with -K^3 = 5/2 as well as one does
        quartic = CoverRecord(
            "bad", (1, 1, 1, 1, 1), (4,), Basket.parse("4x1/2(1,1,1)"), Rational(4)
        )
        quintic = dataclasses.replace(Y5, basket=Basket.parse("5x1/2(1,1,1)"))
        assert quintic.validate() == []
        with pytest.raises(CatalogError) as exc:
            search([quartic, Y8, quintic], census(2), trunc=24)
        lines = str(exc.value).splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("bad: series mismatch at t^")
        assert lines[1].startswith(f"{Y5.name}: series mismatch at t^")

    def test_builder_and_basket_errors_name_the_cover(self):
        unpolarized = CoverRecord("bad", (1, 1, 1, 1, 1), (5,), Basket(), Rational(5))
        with pytest.raises(CatalogError, match=r"^bad: weights .* not anticanonically"):
            unpolarized.orbifold_series(24)
        odd = dataclasses.replace(Y4, minus_k_cubed=Rational(1, 2))
        with pytest.raises(CatalogError, match=r"^Y_\{4\} .*: declared basket admits no series: "):
            odd.orbifold_series(24)

    def test_unloaded_records_search_like_loaded_ones(self):
        # search checks every cover itself, so a record that never went
        # through a loader gives the same output as a loaded one
        def run(catalog):
            res = search(catalog, census(2, 3, 5), trunc=24)
            return [c.to_json() for c in res], [r.to_json() for r in res.rejections]

        entries = bundled_json("covers_codim1.json")["entries"]
        expected = run([CoverRecord.from_json(e) for e in entries])
        assert run(bundled_catalog("covers_codim1.json")) == expected


class TestNegativeSizes:
    def test_search_unindexable_truncation(self):
        with pytest.raises(OutOfRangeError, match=f"trunc must be <= {MAX_TRUNC}, got {10**30}"):
            search([Y4], census(5), trunc=10**30)

    def test_search_truncation_must_be_an_int(self):
        with pytest.raises(OutOfRangeError, match="trunc must be an integer, got 24.0"):
            search([Y4], census(5), trunc=24.0)

    def test_cover_of_unindexable_degree(self):
        # -K^3 comes from the degrees by arithmetic, with no series to
        # t^(10^100 + 3)
        big = 10**100
        rec = CoverRecord("Y_{big}", (1, 1, 1, 1, big), (big + 3,), Basket(), Rational(1))
        assert rec.validate() == [
            f"declared -K^3 = 1 but the model forces {big + 3}/{big}",
            "-K^3 = 1 fails the parity constraint for basket {(empty)} (defect 1/2)",
        ]

    def test_search_negative_truncation(self):
        with pytest.raises(OutOfRangeError, match="trunc must be >= 0"):
            search([Y4], census(5), trunc=-1)


class TestModelDegree:
    """search refuses a truncation below the degree a cover's model needs:
    below it a presentation can miss a relation and still read clean."""

    Y24 = "Y_{24} in P(1,2,3,7,12)"

    def test_degree_of_each_structure(self):
        assert Y4.model_degree == 4
        assert Y8.model_degree == 8
        assert STANDIN.model_degree == 14  # sum(weights) - 1, the Pfaffian's top

    def test_bundled_catalogs_fit_the_default(self):
        needed = [
            max(c.model_degree for c in bundled_catalog(f"covers_codim{k}.json"))
            for k in (1, 2, 3)
        ]
        assert needed == [24, 12, 14]
        assert max(needed) <= TRUNC

    def test_every_short_cover_is_one_line(self):
        covers = bundled_catalog("covers_codim1.json")
        with pytest.raises(OutOfRangeError) as exc:
            search(covers, census(5), trunc=3)
        lines = str(exc.value).splitlines()
        assert len(lines) == len(covers)
        assert f"{self.Y24}: model needs trunc >= 24, got 3" in lines

    def test_one_below_the_largest_names_only_that_cover(self):
        with pytest.raises(OutOfRangeError) as exc:
            search(bundled_catalog("covers_codim1.json"), census(5), trunc=23)
        assert str(exc.value) == f"{self.Y24}: model needs trunc >= 24, got 23"

    def test_codimension_two_below_twelve(self):
        with pytest.raises(OutOfRangeError) as exc:
            search(bundled_catalog("covers_codim2.json"), census(2), trunc=11)
        assert (
            "Y_{8,12} in P(1,2,3,4,5,6): model needs trunc >= 12, got 11"
            in str(exc.value).splitlines()
        )

    def test_the_model_degree_itself_is_enough(self):
        # at t^3 the quartic's r = 5 row would read clean with no relation;
        # at t^4 it already carries (4,0), as at the default truncation
        with pytest.raises(OutOfRangeError):
            search([Y4], census(5), trunc=3)
        rows = [c.to_json() for c in search([Y4], census(5), trunc=4)]
        assert rows == [c.to_json() for c in search([Y4], census(5))]
        assert rows[0]["relations"] == [[4, 0]]


class TestSearchOutput:
    """The whole of `search --json` over each bundled catalog, pinned by the
    sha256 of its text: rows, special cases and every rejection with its
    detail, in order.  A change that moves any of it must update the pin on
    purpose."""

    SHA256 = {
        1: "fbee1f7ac62d7c4835290cf5fa1597fd4dba7fbdfae461ff078eac768bef483a",
        2: "f1152fae8b4718c1bd4e96f553125d40c78cf95cf0da2d7fabfed2670bcea0a4",
        3: "2b65bc3083f5312611076ef7c4bdf5deea7a2d3f6bb893617e5b74772259bdb3",
    }

    @pytest.mark.parametrize("codim", [1, 2, 3], ids=lambda c: f"covers_codim{c}")
    def test_search_json_is_pinned(self, reproduction, codim):
        # the reproduction searches covers_codim{c}.json against the whole census
        text = json.dumps(reproduction.searches[f"quotients_codim{codim}.json"].to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256[codim]
