"""Randomized invariant checks across module boundaries."""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fano_enriques.catalog import GOLDEN_FILES, bundled_catalog, bundled_json
from fano_enriques.enumeration import (
    MAX_TORSION,
    BtCandidate,
    canonicalize,
    check_restrictions,
    enumerate_bt,
)
from fano_enriques.errors import (
    CatalogError,
    InconsistentDataError,
    InconsistentMarkingError,
    NonInvertibleFactorError,
)
from fano_enriques.exact import Rational, units
from fano_enriques.gradedrings import presentation_series
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
from fano_enriques.orbifold import Basket, MarkedSingularity, SingularityType
from fano_enriques.quotient import CoverRecord, search
from fano_enriques.series import Bidegree, BigradedSeries
from oracle import product, series_k_cubed


def singularity_types(max_r=12):
    def build(r):
        choices = [a for a in range(1, r // 2 + 1) if gcd(a, r) == 1]
        return st.sampled_from(choices).map(lambda a: SingularityType(r, a))

    return st.integers(2, max_r).flatmap(build)


def marked_entries(max_r=12):
    def mark(t):
        return st.integers(0, t.r - 1).map(lambda l: MarkedSingularity(t, l))

    return singularity_types(max_r).flatmap(mark)


baskets = st.lists(marked_entries(), max_size=4).map(lambda es: Basket(tuple(es)))


# marked entries whose stabilizer order divides a given torsion order
def torsion_pool(r):
    pool = []
    for alpha in (d for d in range(2, r + 1) if r % d == 0):
        for m in (1, 2, 3):
            r_q = alpha * m
            for a in range(1, r_q // 2 + 1):
                if gcd(a, r_q) != 1:
                    continue
                for u in range(1, alpha):
                    if gcd(u, alpha) == 1:
                        pool.append(MarkedSingularity(SingularityType(r_q, a), m * u))
    return pool


TORSION_POOLS = {r: torsion_pool(r) for r in (2, 3, 4, 5, 6, 8)}


class TestBasketProperties:
    @given(baskets)
    def test_str_parse_round_trip(self, b):
        assert Basket.parse(str(b)) == b

    @given(baskets)
    def test_json_round_trip(self, b):
        assert Basket.from_json(b.to_json()) == b

    @given(baskets, baskets)
    def test_concatenation_is_commutative(self, a, b):
        assert a + b == b + a


class TestParityProperty:
    @given(
        st.lists(singularity_types(8), max_size=4),
        st.integers(0, 3),
        st.sampled_from([Rational(-2), Rational(0), Rational(2), Rational(1, 2), Rational(1), Rational(-1, 3)]),
    )
    def test_construction_succeeds_iff_parity_holds(self, types, bump, offset):
        basket = Basket(tuple(MarkedSingularity(t, 0) for t in types))
        base = parity_defect(Rational(0), basket) * -2  # the basket sum itself
        k3 = base + 2 * bump + offset
        expect_ok = offset.denominator == 1 and offset % 2 == 0 and k3 > 0
        try:
            FanoData(k3, basket)
            assert expect_ok
        except InconsistentDataError:
            assert not expect_ok


class TestMarkingRuleProperty:
    @given(st.integers(2, MAX_TORSION), st.lists(marked_entries(24), max_size=4))
    def test_candidate_and_data_share_one_marking_rule(self, r, entries):
        # markings may be 0 or have a stabilizer order that does not divide
        # r; -K^3 is the basket sum plus 2, so parity always holds
        bt = Basket(tuple(entries))
        k3 = -2 * parity_defect(Rational(0), bt) + 2
        outcomes = []
        for build in (lambda: BtCandidate(r, bt), lambda: FanoEnriquesData(r, k3, bt)):
            try:
                build()
                outcomes.append("accepted")
            except InconsistentMarkingError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestTorsionDeltaProperty:
    @given(st.sampled_from(sorted(TORSION_POOLS)), st.data())
    def test_closed_form_matches_pointwise(self, r, data):
        entries = data.draw(
            st.lists(st.sampled_from(TORSION_POOLS[r]), min_size=1, max_size=3)
        )
        bt = Basket(tuple(entries))
        period = lcm(*(e.type.r for e in bt))
        trunc = min(2 * period, 30)
        for i in (1, r - 1):
            # the builder reconciles both routes internally and raises on
            # any mismatch; also compare the public values directly
            series = torsion_delta_series(bt, i, trunc)
            for n in range(trunc + 1):
                assert series.coefficient(n) == torsion_delta_at(bt, i, n)


class TestCanonicalizationProperty:
    CANDIDATES = enumerate_bt(5) + enumerate_bt(6) + enumerate_bt(8)

    @staticmethod
    def rescale(cand, u):
        return BtCandidate(
            cand.r,
            Basket(
                tuple(
                    MarkedSingularity(e.type, (u * e.l) % e.type.r)
                    for e in cand.entries
                )
            ),
        )

    @given(st.sampled_from(CANDIDATES), st.data())
    def test_unit_rescaling_collapses_to_canonical(self, cand, data):
        u = data.draw(st.sampled_from(units(cand.r)))
        assert canonicalize(self.rescale(cand, u)).entries == cand.entries

    def test_census_is_invariant_under_every_unit_rescaling(self):
        # every census basket and every u mod r: sigma -> u*sigma lands on
        # an admissible basket whose canonical form is the census entry
        checked = 0
        for r in range(2, MAX_TORSION + 1):
            for cand in enumerate_bt(r):
                for u in units(r):
                    rescaled = self.rescale(cand, u)
                    assert canonicalize(rescaled).entries == cand.entries
                    assert check_restrictions(rescaled).admissible, (cand, u)
                    checked += 1
        assert checked == 68

    @given(st.sampled_from(CANDIDATES))
    def test_enumerated_candidates_are_fixed_points(self, cand):
        assert canonicalize(cand) == cand


class TestSeriesProperties:
    @settings(max_examples=50)
    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.tuples(
                st.just(r),
                st.lists(
                    st.lists(st.integers(-4, 4), min_size=7, max_size=7),
                    min_size=r,
                    max_size=r,
                ),
                st.integers(1, 3),
                st.integers(0, 3),
            )
        )
    )
    def test_peel_then_divide_is_identity(self, packed):
        r, rows, n, i = packed
        s = BigradedSeries(r, rows)
        d = Bidegree(n, i)
        assert s.peel(d).divide_factor(d) == s

    @given(st.integers(2, 6), st.integers(4, 10))
    def test_collapse_commutes_with_peel(self, r, trunc):
        s = BigradedSeries.one(r, trunc)
        for k in range(r):
            s = product(s, BigradedSeries.polynomial(r, trunc, [(k + 1, Bidegree(1, k))]))
        d = Bidegree(2, 0)
        assert s.peel(d).collapse() == s.collapse().peel(Bidegree(2, 0))


GOLDEN_ROWS = [
    row
    for name in GOLDEN_FILES
    for golden in [bundled_json(name)]
    for row in golden["rows"] + golden["special_cases"]
]
COVERS = [
    CoverRecord.from_json(entry)
    for name in GOLDEN_FILES
    for entry in bundled_json(bundled_json(name)["catalog"])["entries"]
]
coefficients = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


def all_fractions(s: BigradedSeries) -> bool:
    return all(type(c) is Fraction for row in s.coeffs for c in row)


class TestExactCoefficientsProperty:
    """Every series the kernel and the builders return holds Fractions only:
    the constructor passes them through, so each route must produce them."""

    @settings(max_examples=50)
    @given(st.integers(1, 4), st.data())
    def test_kernel_operations(self, r, data):
        rows = st.lists(
            st.lists(coefficients, min_size=7, max_size=7), min_size=r, max_size=r
        )
        a, b = BigradedSeries(r, data.draw(rows)), BigradedSeries(r, data.draw(rows))
        d = Bidegree(data.draw(st.integers(1, 3)), data.draw(st.integers(0, r - 1)))
        for s in (a, a.peel(d), a.divide_factor(d), a + b, a - b, a.collapse()):
            assert all_fractions(s)

    @settings(max_examples=25)
    @given(st.sampled_from(COVERS), st.integers(0, 30))
    def test_cover_builders(self, cover, trunc):
        assert all_fractions(altinok_series(FanoData(cover.minus_k_cubed, cover.basket), trunc))
        model = pfaffian_series if cover.structure == "pfaffian" else wci_series
        assert all_fractions(model(cover.weights, cover.degrees, trunc))

    @settings(max_examples=25)
    @given(st.sampled_from(GOLDEN_ROWS), st.integers(0, 30))
    def test_quotient_builders(self, row, trunc):
        data = FanoEnriquesData.from_json(row)
        assert all_fractions(bigraded_series(data, trunc))
        generators = [Bidegree(n, i) for n, i in row["generators"]]
        relations = [Bidegree(n, i) for n, i in row["relations"]]
        assert all_fractions(presentation_series(generators, relations, data.r, trunc))


class TestBinomialProductProperty:
    """peel and divide_factor apply a product of binomials in one call, with
    the same result as one factor per call in turn."""

    @staticmethod
    def factors(r, trunc, data):
        factor = st.builds(Bidegree, st.integers(1, trunc + 2), st.integers(0, 2 * r))
        return data.draw(st.lists(factor, max_size=5))

    @settings(max_examples=50)
    @given(st.integers(1, 6), st.integers(0, 24), st.data())
    def test_one_call_is_the_factors_in_turn(self, r, trunc, data):
        rows = st.lists(
            st.lists(coefficients, min_size=trunc + 1, max_size=trunc + 1),
            min_size=r, max_size=r,
        )
        s, ds = BigradedSeries(r, data.draw(rows)), self.factors(r, trunc, data)
        peeled = divided = s
        for d in ds:
            peeled, divided = peeled.peel(d), divided.divide_factor(d)
        assert s.peel(*ds) == peeled
        assert s.divide_factor(*ds) == divided
        assert s.peel(*ds).divide_factor(*ds) == s
        assert s.peel() == s

    @settings(max_examples=50)
    @given(st.integers(1, 6), st.integers(0, 24), st.data())
    def test_a_factor_of_t_degree_0_anywhere_is_refused(self, r, trunc, data):
        s, ds = BigradedSeries.one(r, trunc), self.factors(r, trunc, data)
        ds.insert(data.draw(st.integers(0, len(ds))), Bidegree(0, data.draw(st.integers(0, r))))
        with pytest.raises(NonInvertibleFactorError):
            s.peel(*ds)
        with pytest.raises(NonInvertibleFactorError):
            s.divide_factor(*ds)


FULL_CENSUS = [c for r in range(2, MAX_TORSION + 1) for c in enumerate_bt(r)]
CODIM1 = bundled_catalog("covers_codim1.json")


class TestSearchOrderProperty:
    @settings(max_examples=8, deadline=None)
    @given(census=st.permutations(FULL_CENSUS), catalog=st.permutations(CODIM1))
    def test_rows_do_not_depend_on_census_or_catalog_order(self, reproduction, census, catalog):
        # rows are sorted; rejections come in census then catalog order, so
        # only their multiset is fixed
        shuffled = search(catalog, census)
        plain = reproduction.searches["quotients_codim1.json"]
        assert shuffled.golden_json() == plain.golden_json()
        assert Counter(shuffled.rejections) == Counter(plain.rejections)


@st.composite
def ci_covers(draw, relation):
    """A complete intersection of codimension c with m degrees, m and c
    related as relation says; polarization is not required."""
    c = draw(st.integers(2 if relation == "m < c" else 1, 4))
    lo, hi = {"m = c": (c, c), "m < c": (1, c - 1), "m > c": (c + 1, c + 3)}[relation]
    m = draw(st.integers(lo, hi))
    weights = draw(st.lists(st.integers(1, 6), min_size=c + 4, max_size=c + 4))
    degrees = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    return CoverRecord("ci", tuple(weights), tuple(degrees), Basket(), Rational(1))


@st.composite
def pfaffian_covers(draw):
    """6 to 8 weights and five degrees d <= e summing to 2e, e = sum(weights) - 1."""
    weights = draw(st.lists(st.integers(1, 5), min_size=6, max_size=8))
    e = sum(weights) - 1
    degrees, rest = [], 2 * e
    for left in range(4, 0, -1):  # each degree leaves the next ones in [1, e]
        degrees.append(draw(st.integers(max(1, rest - left * e), min(e, rest - left))))
        rest -= degrees[-1]
    return CoverRecord(
        "pfaffian", tuple(weights), (*degrees, rest), Basket(), Rational(1),
        structure="pfaffian",
    )


def k_cubed_outcome(route, cover):
    """The -K^3 a route gives, or the text of its CatalogError."""
    try:
        return route(cover)
    except CatalogError as exc:
        return str(exc)


class TestImpliedKCubedProperty:
    """CoverRecord.implied_k_cubed's integer arithmetic against the series
    route it replaced (oracle.series_k_cubed): the same -K^3, or the same
    CatalogError text."""

    @settings(max_examples=40)
    @pytest.mark.parametrize("relation", ["m = c", "m < c", "m > c"])
    @given(data=st.data())
    def test_complete_intersections(self, relation, data):
        cover = data.draw(ci_covers(relation))
        expected = k_cubed_outcome(series_k_cubed, cover)
        assert k_cubed_outcome(CoverRecord.implied_k_cubed, cover) == expected

    @settings(max_examples=60)
    @given(pfaffian_covers())
    def test_pfaffians(self, cover):
        expected = k_cubed_outcome(series_k_cubed, cover)
        assert k_cubed_outcome(CoverRecord.implied_k_cubed, cover) == expected
