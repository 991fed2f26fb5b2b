"""Acceptance suite: one test per headline contract.

Every test here rebuilds what it checks through the public API, so a green
run certifies the package end to end:

1. untwisted series of the order-5 quotient example, plus its quintic peel;
2. bigraded series of the same quotient: component 0, the low-degree
   columns, the component-sum identity against the cover, and the peel by
   the five generator bidegrees;
3. the census of admissible marked baskets for torsion orders up to 24;
4. the hypersurface catalog search against its golden file;
5. the codimension-2 and -3 searches, special cases included;
6. randomized oracle-equivalence properties (seeded, so reproducible);
7. the singularity composition algebra and the preimage identity on every
   shipped quotient row.

The timing asserts guard against accidental blowups in the exact
arithmetic; they are generous on purpose.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from fano_enriques.catalog import _diff, bundled_catalog, bundled_json
from fano_enriques.enumeration import MAX_TORSION, enumerate_bt
from fano_enriques.errors import InconsistentDataError
from fano_enriques.gradedrings import (
    Presentation,
    infer_presentation,
    presentation_series,
)
from fano_enriques.hilbert import (
    FanoData,
    altinok_series,
    bigraded_series,
    parity_defect,
    pfaffian_series,
    torsion_delta_at,
    torsion_delta_series,
    wci_series,
)
from fano_enriques.hilbert import FanoEnriquesData
from fano_enriques.orbifold import (
    SMOOTH,
    Basket,
    MarkedSingularity,
    SingularityType,
    forced_preimage,
    normalize_type,
    preimage_singularity,
)
from fano_enriques.quotient import Rejection
from fano_enriques.series import Bidegree

QUOTIENT_GOLDENS = (
    "quotients_codim1.json",
    "quotients_codim2.json",
    "quotients_codim3.json",
)


def _basket_json_key(records) -> tuple:
    return tuple(sorted(tuple(sorted(e.items())) for e in records))


def _type_counts(basket: Basket) -> Counter:
    out: Counter = Counter()
    for entry, mult in basket.counts().items():
        out[entry.type] += mult
    return out


# -- 1 -----------------------------------------------------------------------


def test_untwisted_series_and_quintic_peel():
    t0 = time.perf_counter()
    data = FanoData(Fraction(5, 2), Basket.parse("1/2(1,1,1)"))
    series = altinok_series(data, 9)
    assert [int(c) for c in series.component(0)] == [
        1, 4, 11, 24, 46, 79, 126, 189, 271, 374,
    ]

    residual = series
    for bd in [Bidegree(1, 0)] * 4 + [Bidegree(2, 0)]:
        residual = residual.peel(bd)
    assert [int(c) for c in residual.component(0)] == [
        1, 0, 0, 0, 0, -1, 0, 0, 0, 0,
    ]
    assert time.perf_counter() - t0 < 1.0


# -- 2 -----------------------------------------------------------------------


def test_bigraded_series_columns_sum_identity_and_peel():
    fe = FanoEnriquesData(
        5,
        Fraction(1, 2),
        Basket.parse("1/10(1,3,7)_6, 2x1/5(1,2,3)_1"),
        Basket(()),
    )
    series = bigraded_series(fe, 20)

    assert [int(c) for c in series.component(0)[:10]] == [
        1, 1, 2, 5, 9, 16, 25, 38, 54, 74,
    ]
    # full columns are pinned through t^2 only; beyond that the sum
    # identity below constrains every component at every degree
    columns = [
        [int(series.coefficient(n, i)) for i in range(5)] for n in range(3)
    ]
    assert columns == [
        [1, 0, 0, 0, 0],
        [1, 1, 0, 1, 1],
        [2, 2, 3, 2, 2],
    ]

    cover = altinok_series(FanoData(Fraction(5, 2), Basket.parse("1/2(1,1,1)")), 20)
    for n in range(21):
        assert sum(series.coefficient(n, i) for i in range(5)) == cover.coefficient(n, 0)

    residual = series
    for n, i in [(1, 0), (1, 1), (1, 3), (1, 4), (2, 2)]:
        residual = residual.peel(Bidegree(n, i))
    for i in range(5):
        for m, c in enumerate(residual.component(i)):
            expected = {(0, 0): 1, (5, 0): -1}.get((m, i), 0)
            assert c == expected, f"peel residual at e^{i} t^{m} is {c}"


# -- 3 -----------------------------------------------------------------------


def test_torsion_basket_census():
    t0 = time.perf_counter()
    found = {r: enumerate_bt(r) for r in range(2, MAX_TORSION + 1)}
    counts = {r: len(cands) for r, cands in found.items() if cands}
    assert counts == {2: 20, 3: 7, 4: 5, 5: 4, 6: 2, 8: 1}
    assert sum(counts.values()) == 39

    golden = bundled_json("torsion_baskets.json")
    assert golden["max_order"] == MAX_TORSION
    want = {
        (int(r), _basket_json_key(b))
        for r, baskets in golden["baskets"].items()
        for b in baskets
    }
    got = {
        (r, _basket_json_key(c.entries.to_json()))
        for r, cands in found.items()
        for c in cands
    }
    assert got == want
    assert time.perf_counter() - t0 < 60.0


# -- 4 -----------------------------------------------------------------------


def test_hypersurface_catalog_search(reproduction):
    golden = bundled_json("quotients_codim1.json")
    result = reproduction.searches["quotients_codim1.json"]

    assert len(golden["rows"]) == 12
    assert {row["label"] for row in golden["rows"]} == {str(k) for k in range(1, 13)}
    computed = reproduction.payload("quotients_codim1.json")
    assert _diff("quotients_codim1.json", "rows", golden["rows"], computed["rows"]) == []

    decoys = golden["decoys"]
    assert decoys
    clean_covers = {c.cover.name for c in result.clean()}
    for decoy in decoys:
        assert decoy["cover"] not in clean_covers
        seen = {r.reason for r in result.rejections if r.cover == decoy["cover"]}
        assert seen, f"decoy {decoy['cover']} was never rejected"
        assert seen <= set(Rejection.REASONS)
        assert set(decoy["reasons"]) <= seen


# -- 5 -----------------------------------------------------------------------


def test_codim2_and_codim3_catalog_searches(reproduction):
    g2 = bundled_json("quotients_codim2.json")
    labeled_special = [row for row in g2["special_cases"] if "label" in row]
    labeled_clean = [row for row in g2["rows"] if "label" in row]
    assert len(labeled_clean) + len(labeled_special) == 44
    assert {row["label"] for row in labeled_special} == {"3", "13"}
    for row in labeled_special:
        assert "cross-codimension" in row["flags"]

    computed = reproduction.payload("quotients_codim2.json")
    for field in ("rows", "special_cases"):
        assert _diff("quotients_codim2.json", field, g2[field], computed[field]) == [], field

    g3 = bundled_json("quotients_codim3.json")
    assert len(g3["rows"]) == 4
    assert {row["label"] for row in g3["rows"]} == {"1a", "1b", "1c", "2"}
    (row_1c,) = [row for row in g3["rows"] if row["label"] == "1c"]
    assert sorted(i for _, i in row_1c["relations"]) == [0, 2, 4]

    computed = reproduction.payload("quotients_codim3.json")
    for field in ("rows", "special_cases"):
        assert _diff("quotients_codim3.json", field, g3[field], computed[field]) == [], field

    # documented repairs stay documented: every row or cover whose source
    # entry needed fixing carries an errata note in the fixture
    repaired_rows = {"4c", "5a", "6c", "8a", "15", "18", "20", "25", "26", "27", "28"}
    noted = {
        row.get("label")
        for row in g2["rows"]
        if "errata" in row.get("notes", "")
    }
    assert repaired_rows <= noted
    assert "errata" in row_1c.get("notes", "")
    for covers_name, fixed in [
        ("covers_codim1.json", {"Y_{12} in P(1,1,2,3,6)", "Y_{16} in P(1,1,2,5,8)"}),
        ("covers_codim3.json", {"Y_{4,4,4,4,4} in P(1,1,1,2,2,2,2)"}),
    ]:
        entries = bundled_json(covers_name)["entries"]
        noted_covers = {e["name"] for e in entries if "errata" in e.get("notes", "")}
        assert fixed <= noted_covers


# -- 6 -----------------------------------------------------------------------


def _random_parity_case(rng: random.Random):
    types = []
    for _ in range(rng.randint(0, 4)):
        r = rng.randint(2, 10)
        a = rng.choice([a for a in range(1, r // 2 + 1) if gcd(a, r) == 1])
        types.append(MarkedSingularity(SingularityType(r, a), 0))
    basket = Basket(tuple(types))
    base = -2 * parity_defect(Fraction(0), basket)  # sum of b(r-b)/r
    offset = Fraction(rng.randint(-6, 12), 2)
    return basket, base + offset, offset


def _random_marked_basket(rng: random.Random):
    while True:
        entries = []
        for _ in range(rng.randint(1, 3)):
            r = rng.randint(2, 12)
            a = rng.choice([a for a in range(1, r // 2 + 1) if gcd(a, r) == 1])
            entries.append(MarkedSingularity(SingularityType(r, a), rng.randint(1, r - 1)))
        period = lcm(*[e.type.r for e in entries])
        if period <= 30:  # keeps the 2*lcm window affordable
            return Basket(tuple(entries)), period


def _random_presentation(rng: random.Random):
    """A presentation whose series the inference must round-trip cleanly."""
    r = rng.randint(1, 8)
    codim = rng.randint(1, 2)
    gens = [Bidegree(1, 0)]
    for _ in range(3 + codim):
        gens.append(Bidegree(rng.randint(1, 4), rng.randrange(r)))
    top = max(g.n for g in gens)
    rels = [
        Bidegree(rng.randint(top + 1, min(top + 4, 8 + top)), rng.randrange(r))
        for _ in range(codim)
    ]
    return gens, rels, r


def _collision_presentation(rng: random.Random):
    """Generator and relation at the same t-degree: must flag, not cancel."""
    r = rng.randint(2, 8)
    m = rng.randint(2, 4)
    e = rng.randrange(r)
    gens = [
        Bidegree(1, 0),
        Bidegree(1, 1),
        Bidegree(1, rng.randrange(r)),
        Bidegree(1, rng.randrange(r)),
        Bidegree(m, e),
    ]
    e_rel = 1 - e if e in (0, 1) else rng.choice([0, 1])
    rels = [Bidegree(m, e_rel)]
    return gens, rels, r


def test_randomized_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(91)

    # a) every bundled cover: closed-form series == model series to degree 20
    for name in ("covers_codim1.json", "covers_codim2.json", "covers_codim3.json"):
        for rec in bundled_catalog(name):
            oracle = pfaffian_series if rec.structure == "pfaffian" else wci_series
            model = oracle(rec.weights, rec.degrees, 20)
            assert altinok_series(FanoData(rec.minus_k_cubed, rec.basket), 20) == model, rec.name

    # b) 500 draws: construction succeeds iff the parity constraint holds
    # (and the degree is positive)
    for _ in range(500):
        basket, k3, offset = _random_parity_case(rng)
        expected = offset % 2 == 0 and k3 > 0
        try:
            FanoData(k3, basket)
            constructed = True
        except InconsistentDataError:
            constructed = False
        assert constructed == expected, (basket, k3)

    # c) 200 marked baskets: the delta series equals the per-n values on
    # a full double period
    for _ in range(200):
        bt, period = _random_marked_basket(rng)
        i = rng.randint(1, 2 * period)
        series = torsion_delta_series(bt, i, 2 * period)
        for n in range(2 * period + 1):
            assert series.coefficient(n, 0) == torsion_delta_at(bt, i, n)

    # d) 200 presentation round trips; every eighth instance plants a
    # generator/relation collision and must come back flagged
    for k in range(200):
        if k % 8 == 7:
            gens, rels, r = _collision_presentation(rng)
            series = presentation_series(gens, rels, r, max(q.n for q in rels) + 6)
            assert infer_presentation(series).status == "special"
            continue
        for _ in range(50):
            gens, rels, r = _random_presentation(rng)
            trunc = max(q.n for q in rels) + 4
            try:
                series = presentation_series(gens, rels, r, trunc)
                inferred = infer_presentation(series)
            except InconsistentDataError:
                continue  # not a Hilbert series; outside the property
            break
        else:
            raise AssertionError("no valid round-trip instance in 50 draws")
        assert inferred == Presentation(tuple(gens), tuple(rels), "clean")

    assert time.perf_counter() - t0 < 120.0


# -- 7 -----------------------------------------------------------------------


def test_singularity_composition_and_preimage_identity():
    # composing the order-5 ambient action with the residual stabilizers
    assert normalize_type(5, (4, 2, 3)) == SingularityType(5, 2)
    assert normalize_type(10, (13, 9, 11)) == SingularityType(10, 3)
    # order-4 action on a half-point: the composite is 1/4(1,1,3)
    assert normalize_type(8, (6, 6, 10)) == SingularityType(4, 1)

    # every shipped quotient row satisfies B_cover = preimage(bt) + r * be
    for golden_name in QUOTIENT_GOLDENS:
        golden = bundled_json(golden_name)
        covers = {
            rec.name: rec
            for rec in bundled_catalog(golden["catalog"])
        }
        rows = golden["rows"] + golden.get("special_cases", [])
        assert rows
        for row in rows:
            r = row["r"]
            bt = Basket.from_json(row["bt"])
            be = Basket.from_json(row["be"])
            need = forced_preimage(bt, r)
            for entry, mult in bt.counts().items():
                count, styp = preimage_singularity(entry, r)
                if styp is not SMOOTH:
                    assert need[styp] >= count * mult
            expected = +Counter(need)
            for entry, mult in be.counts().items():
                expected[entry.type] += r * mult
            assert _type_counts(covers[row["cover"]].basket) == +expected, (
                golden_name,
                row.get("label", row["cover"]),
            )
