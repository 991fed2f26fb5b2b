"""Tests for presentation inference from Hilbert series."""

import pytest

from fano_enriques.catalog import GOLDEN_FILES, bundled_json
from fano_enriques.errors import (
    InconsistentDataError,
    InferenceFailureError,
    MalformedInputError,
    NonInvertibleFactorError,
    OutOfRangeError,
)
from fano_enriques.exact import Rational
from fano_enriques.gradedrings import (
    MAX_LISTED,
    Presentation,
    infer_presentation,
    pfaffian_numerator,
    presentation_series,
)
from fano_enriques.hilbert import (
    FanoData,
    FanoEnriquesData,
    altinok_series,
    bigraded_series,
    pfaffian_series,
    wci_series,
)
from fano_enriques.orbifold import Basket
from fano_enriques.quotient import CoverRecord
from fano_enriques.series import Bidegree, BigradedSeries
from oracle import presentation, product


def bd(pairs):
    return tuple(Bidegree(n, i) for n, i in pairs)


class TestPresentation:
    def test_sorted_on_construction(self):
        p = Presentation(bd([(2, 0), (1, 1), (1, 0)]), bd([(5, 1), (4, 0)]), "clean")
        assert p.generators == bd([(1, 0), (1, 1), (2, 0)])
        assert p.relations == bd([(4, 0), (5, 1)])

    def test_status_validated(self):
        with pytest.raises(ValueError):
            Presentation((), (), "unsure")

    @pytest.mark.parametrize(
        "generators, relations, message",
        [
            (5, (), "generators must be a sequence, got 5"),
            ((), [(4, 0)], r"relations entry must be Bidegree, got \(4, 0\)"),
        ],
        ids=["int-generators", "pair-relation"],
    )
    def test_degrees_must_be_bidegrees(self, generators, relations, message):
        with pytest.raises(MalformedInputError, match=message):
            Presentation(generators, relations, "clean")

    def test_codimension(self):
        assert Presentation(bd([(1, 0)] * 5), bd([(4, 0)]), "clean").codimension == 1
        assert Presentation(bd([(1, 0)] * 7), bd([(2, 0)] * 3), "clean").codimension == 3

    def test_to_json(self):
        p = Presentation(bd([(2, 1), (1, 0)]), bd([(4, 1)]), "special")
        assert p.to_json() == {
            "generators": [[1, 0], [2, 1]],
            "relations": [[4, 1]],
            "status": "special",
            "codim": -2,
        }

    def test_str(self):
        p = Presentation(bd([(1, 0)]), (), "clean")
        assert str(p) == "generators (1,0) | relations - | clean"


class TestInferPresentation:
    def test_quartic_hypersurface(self):
        p = infer_presentation(wci_series((1, 1, 1, 1, 1), (4,), 12))
        assert p.status == "clean"
        assert p.generators == bd([(1, 0)] * 5)
        assert p.relations == bd([(4, 0)])

    def test_codimension_two_model(self):
        p = infer_presentation(wci_series((1, 1, 1, 1, 1, 1), (2, 3), 12))
        assert p.status == "clean"
        assert p.generators == bd([(1, 0)] * 6)
        assert p.relations == bd([(2, 0), (3, 0)])

    def test_bigraded_quotient_model(self):
        data = FanoEnriquesData(
            5, Rational(1, 2), Basket.parse("1/10(1,3,7)_6, 2x1/5(1,2,3)_1")
        )
        p = infer_presentation(bigraded_series(data, 20))
        assert p.status == "clean"
        assert p.generators == bd([(1, 0), (1, 1), (1, 3), (1, 4), (2, 2)])
        assert p.relations == bd([(5, 0)])

    def test_special_when_degrees_collide(self):
        # numerical data whose series forces a degree-4 generator after a
        # degree-4 relation; the engine must refuse to pick a model
        data = FanoEnriquesData(
            2,
            Rational(1, 3),
            Basket.parse("5x1/2(1,1,1)_1, 1/6(1,1,5)_3"),
            Basket.parse("2x1/2(1,1,1)"),
        )
        p = infer_presentation(bigraded_series(data, 24))
        assert p.status == "special"
        assert p.generators == bd([(1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (4, 1)])
        assert p.relations == bd([(4, 0)])

    def test_inconclusive_when_horizon_too_small(self):
        s = altinok_series(FanoData(Rational(5, 2), Basket.parse("1/2(1,1,1)")), 9)
        p = infer_presentation(s, max_degree=3)
        assert p.status == "inconclusive"
        assert p.generators == bd([(1, 0)] * 4 + [(2, 0)])
        assert p.relations == ()

    def test_pfaffian_closure(self):
        p = infer_presentation(pfaffian_series((1, 1, 2, 2, 3, 3, 3), (5, 5, 6, 6, 6), 24))
        assert p.status == "clean"
        assert p.generators == bd([(1, 0), (1, 0), (2, 0), (2, 0), (3, 0), (3, 0), (3, 0)])
        assert p.relations == bd([(5, 0), (5, 0), (6, 0), (6, 0), (6, 0)])

    def test_bigraded_pfaffian_closure(self):
        # r = 2, top (e, sbar) = (14, 1): relation (d, s) has its syzygy at
        # e^{sbar - s} t^{e - d}.  The numerator is built term by term and
        # divided by the generators through the product oracle.
        r, trunc, e, sbar = 2, 24, 14, 1
        gens = bd([(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (3, 1)])
        rels = bd([(5, 0), (5, 0), (6, 0), (6, 1), (6, 1)])
        numerator = BigradedSeries.one(r, trunc)
        numerator = numerator - BigradedSeries.polynomial(r, trunc, [(1, Bidegree(e, sbar))])
        for q in rels:
            numerator = numerator - BigradedSeries.polynomial(r, trunc, [(1, q)])
            numerator = numerator + BigradedSeries.polynomial(
                r, trunc, [(1, Bidegree(e - q.n, (sbar - q.i) % r))]
            )
        assert pfaffian_numerator(rels, Bidegree(e, sbar), r, trunc) == numerator
        p = infer_presentation(product(numerator, presentation(gens, (), r, trunc)))
        assert p == Presentation(gens, rels, "clean")

    def test_bundled_pfaffian_covers_close(self):
        covers = [
            CoverRecord.from_json(entry)
            for entry in bundled_json("covers_codim3.json")["entries"]
            if entry.get("structure") == "pfaffian"
        ]
        assert len(covers) == 3
        for cover in covers:
            p = infer_presentation(cover.series(24))
            assert p.status == "clean"
            assert p.generators == tuple(sorted(Bidegree(w, 0) for w in cover.weights))
            assert p.relations == tuple(sorted(Bidegree(d, 0) for d in cover.degrees))

    def test_relation_beyond_pfaffian_top(self):
        # five relations 2,2,2,2,10 sum to 2e = 18 but 10 > e: no Pfaffian
        # shape, so the next positive deviation is a generator
        gens = [(1, 0)] * 9 + [(11, 0)]
        rels = [(2, 0)] * 4 + [(10, 0)]
        p = infer_presentation(presentation_series(bd(gens), bd(rels), 1, 24))
        assert p == Presentation(bd(gens), bd(rels), "clean")

    def test_lists_up_to_max_listed(self):
        # 1 + c*t to t^1 is (1 - t)^-c there: c generators of degree 1
        assert MAX_LISTED == 10**4
        p = infer_presentation(BigradedSeries(1, [[1, MAX_LISTED]]))
        assert p == Presentation(bd([(1, 0)] * MAX_LISTED), (), "clean")
        with pytest.raises(InferenceFailureError, match=f"deviation {MAX_LISTED + 1} at"):
            infer_presentation(BigradedSeries(1, [[1, MAX_LISTED + 1]]))

    def test_max_listed_bounds_the_total(self):
        # 6000 generators of degree 1 pass, 5000 more of degree 2 would
        # list 11000 in all
        gens = bd([(1, 0)] * 6000 + [(2, 0)] * 5000)
        with pytest.raises(InferenceFailureError, match="deviation 5000 at \\(2,0\\) is too large"):
            infer_presentation(presentation_series(gens, (), 1, 2))

    def test_rejects_non_hilbert_input(self):
        with pytest.raises(InconsistentDataError):
            infer_presentation(BigradedSeries(1, [[2, 1, 1]]))
        with pytest.raises(InconsistentDataError):
            infer_presentation(BigradedSeries(1, [[1, -1, 0]]))
        with pytest.raises(InconsistentDataError):
            infer_presentation(BigradedSeries(1, [[1, Rational(1, 2)]]))


class TestRoundTrip:
    CASES = [
        (1, [(1, 0)] * 5, [(4, 0)]),
        (1, [(1, 0)] * 4 + [(2, 0), (3, 0)], [(4, 0), (4, 0)]),
        (5, [(1, 0), (1, 1), (1, 3), (1, 4), (2, 2)], [(5, 0)]),
        (2, [(1, 0), (1, 1), (1, 1), (2, 0), (2, 1)], [(6, 0)]),
    ]

    @pytest.mark.parametrize("r,gens,rels", CASES)
    def test_infer_recovers_presentation(self, r, gens, rels):
        series = presentation_series(bd(gens), bd(rels), r, trunc=20)
        p = infer_presentation(series, max_degree=20)
        assert p == Presentation(bd(gens), bd(rels), "clean")

    def test_presentation_series_matches_wci(self):
        lhs = presentation_series(bd([(1, 0)] * 5), bd([(4, 0)]), 1, 10)
        assert lhs == wci_series((1, 1, 1, 1, 1), (4,), 10)

    def test_presentation_series_negative_truncation(self):
        with pytest.raises(OutOfRangeError, match="trunc must be >= 0"):
            presentation_series(bd([(1, 0)] * 5), bd([(4, 0)]), 1, -1)

    def test_presentation_series_rejects_degree_zero_factors(self):
        with pytest.raises(NonInvertibleFactorError):
            presentation_series(bd([(1, 0)] * 5), bd([(0, 1)]), 2, 10)
        with pytest.raises(NonInvertibleFactorError):
            presentation_series(bd([(0, 1)]), (), 2, 10)

    @pytest.mark.parametrize(
        "generators, relations, message",
        [
            (5, [], "generators must be a sequence, got 5"),
            ([Bidegree(1)], 5, "relations must be a sequence, got 5"),
        ],
        ids=["int-generators", "int-relations"],
    )
    def test_presentation_series_needs_sequences(self, generators, relations, message):
        with pytest.raises(MalformedInputError, match=message):
            presentation_series(generators, relations, 1, 3)

    @pytest.mark.parametrize(
        "relations, top, message",
        [
            (5, Bidegree(4), "relations must be a sequence, got 5"),
            ([Bidegree(1)] * 5, 4, "top degree must be Bidegree, got 4"),
            ([1] * 5, Bidegree(4), "relations entry must be Bidegree, got 1"),
        ],
        ids=["int-relations", "int-top", "int-relation"],
    )
    def test_pfaffian_numerator_needs_bidegrees(self, relations, top, message):
        with pytest.raises(MalformedInputError, match=message):
            pfaffian_numerator(relations, top, 1, 3)

    def test_infer_needs_a_series(self):
        with pytest.raises(MalformedInputError, match="series must be BigradedSeries, got 5"):
            infer_presentation(5)

    GOLDEN_ROWS = [
        row
        for name in GOLDEN_FILES
        for row in bundled_json(name)["rows"] + bundled_json(name)["special_cases"]
    ]

    @pytest.mark.parametrize("trunc", (24, 48))
    def test_presentation_series_matches_product_oracle(self, trunc):
        # one peel per relation and one division per generator against the
        # naive product of binomials and geometric series
        assert len(self.GOLDEN_ROWS) == 64
        for row in self.GOLDEN_ROWS:
            gens = [Bidegree(n, i) for n, i in row["generators"]]
            rels = [Bidegree(n, i) for n, i in row["relations"]]
            expected = presentation(gens, rels, row["r"], trunc)
            assert presentation_series(gens, rels, row["r"], trunc) == expected

    def test_infer_negative_max_degree(self):
        series = presentation_series(bd([(1, 0)] * 5), bd([(4, 0)]), 1, 10)
        with pytest.raises(OutOfRangeError, match="max_degree must be >= 0"):
            infer_presentation(series, max_degree=-1)
