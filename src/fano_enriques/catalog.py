"""Catalog files, bundled fixtures, and golden verification.

A catalog file is JSON: {"format_version": "1", "entries": [...]} with
one serialized CoverRecord per entry.  Records are fully validated on
load (weights/degrees arithmetic, parity, declared basket against the
model series), with per-entry diagnostics collected before failing.

Bundled under data/:

  covers_codim1.json      hypersurface covers plus decoys
  covers_codim2.json      codimension-2 complete intersection covers
  covers_codim3.json      codimension-3 covers plus decoys
  quotients_codim1.json   expected search output for the above
  quotients_codim2.json
  quotients_codim3.json
  torsion_baskets.json    the 39 admissible marked baskets, by order
  series_examples.json    frozen series values for the worked examples

reproduce() runs the paper's computation once from the cover catalogs
and the fixed inputs below, never from a golden: the census of marked
baskets, the search of each cover catalog against it, and the worked
series examples.  verify_fixtures() compares one reproduction with the
goldens and returns the mismatches (empty means all good).  The cover
catalogs are curated by hand, laid out as save_catalog writes them; the
other files are written from one reproduction by
scripts/build_catalogs.py, which then checks them against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence, Union

from .enumeration import MAX_TORSION, BtCandidate, enumerate_bt
from .errors import CatalogError
from .exact import Rational, format_rational
from .hilbert import FanoData, FanoEnriquesData, altinok_series, bigraded_series
from .orbifold import Basket
from .quotient import CoverRecord, QuotientCandidate, SearchResult, search
from .series import Bidegree

__all__ = [
    "FORMAT_VERSION",
    "load_catalog",
    "save_catalog",
    "bundled_catalog",
    "bundled_json",
    "verify_fixtures",
    "candidate_row",
    "Reproduction",
    "reproduce",
]

FORMAT_VERSION = "1"

# The reproduction's fixed inputs: the cover catalog each quotient golden
# searches, one truncation and degree bound for every search, and the two
# worked examples (a quotient of order 5 and its cover), each a data set
# whose series to t^9 is peeled by the listed bidegrees in turn.
SEARCHES = {f"quotients_codim{c}.json": f"covers_codim{c}.json" for c in (1, 2, 3)}
GOLDEN_FILES = tuple(SEARCHES)
TRUNC = MAX_DEGREE = 24
EXAMPLE_TRUNC = 9
EXAMPLES = {
    "untwisted": (FanoData(Rational(5, 2), Basket.parse("1/2(1,1,1)")), [(1, 0)] * 4 + [(2, 0)]),
    "bigraded": (
        FanoEnriquesData(5, Rational(1, 2), Basket.parse("1/10(1,3,7)_6, 2x1/5(1,2,3)_1")),
        [(1, 0), (1, 1), (1, 3), (1, 4), (2, 2)],
    ),
}


def _parse_file(source: Union[str, Path]) -> dict:
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CatalogError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CatalogError(f"{path}: expected a JSON object at top level")
    return obj


def _records_from(obj: dict, origin: str, trunc: int) -> list[CoverRecord]:
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise CatalogError(
            f"{origin}: format_version {version!r}, expected {FORMAT_VERSION!r}"
        )
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise CatalogError(f"{origin}: missing entry list")

    records: list[CoverRecord] = []
    problems: list[str] = []
    names: set[str] = set()
    for idx, raw in enumerate(entries):
        label = f"{origin} entry {idx}"
        try:
            record = CoverRecord.from_json(raw)
        except (KeyError, TypeError, ValueError, CatalogError) as exc:
            problems.append(f"{label}: unreadable record ({exc})")
            continue
        label = f"{label} ({record.name})"
        if record.name in names:
            problems.append(f"{label}: duplicate name")
        names.add(record.name)
        for issue in record.validate(trunc):
            problems.append(f"{label}: {issue}")
        records.append(record)
    if problems:
        raise CatalogError("\n".join(problems))
    return records


def load_catalog(path: Union[str, Path], trunc: int = 20) -> list[CoverRecord]:
    """Read and validate a catalog file; raises CatalogError listing every
    problem found rather than stopping at the first."""
    obj = _parse_file(path)
    return _records_from(obj, str(path), trunc)


def save_catalog(records: Sequence[CoverRecord], path: Union[str, Path]):
    payload = {
        "format_version": FORMAT_VERSION,
        "entries": [r.to_json() for r in records],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def _data_root():
    return resources.files("fano_enriques") / "data"


def bundled_json(name: str) -> dict:
    node = _data_root() / name
    try:
        text = node.read_text()
    except (FileNotFoundError, OSError) as exc:
        raise CatalogError(f"no bundled file {name!r}") from exc
    return json.loads(text)


def bundled_catalog(name: str, trunc: int = 20) -> list[CoverRecord]:
    return _records_from(bundled_json(name), name, trunc)


def resolve_catalog(source: str, trunc: int = 20) -> list[CoverRecord]:
    """A path if it exists on disk, else a bundled file name."""
    if Path(source).exists():
        return load_catalog(source, trunc)
    return bundled_catalog(source, trunc)


# ---------------------------------------------------------------------------
# golden verification


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}
_ROW_FIELDS = {"cover": str, "r": int, "minusK3": str, "bt": list, "be": list,
               "generators": list, "relations": list, "flags": list}


def _shape(where: str, obj, fields: dict) -> list[str]:
    """One problem line per key of a golden object that is missing, or not
    of the JSON type that the comparison and the printed tables read."""
    if not isinstance(obj, dict):
        return [f"{where}: not {_JSON_TYPES[dict]}"]
    return [
        f"{where}: missing key {key!r}" if key not in obj
        else f"{where}: key {key!r} is not {_JSON_TYPES[kind]}"
        for key, kind in fields.items()
        if not isinstance(obj.get(key), kind)
    ]


def _json_key(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _row_key(obj: dict) -> tuple:
    """A row's cover and order, then the rest it is compared on, as JSON."""
    rest = [obj[k] for k in ("minusK3", "bt", "be", "generators", "relations")]
    rest.append(sorted(map(_json_key, obj["flags"])))
    return obj["cover"], obj["r"], _json_key(rest)


def candidate_row(c: QuotientCandidate) -> dict:
    """A search candidate as the quotient goldens store a row, before any
    label or notes are added."""
    return {
        "cover": c.cover.name,
        "r": c.data.r,
        "minusK3": format_rational(c.data.minus_k_cubed),
        "bt": c.data.bt.to_json(),
        "be": c.data.be.to_json(),
        "generators": [[g.n, g.i] for g in c.presentation.generators],
        "relations": [[q.n, q.i] for q in c.presentation.relations],
        "flags": sorted(c.diagnostics),
    }


def _worked_example(data, peel) -> dict:
    """A worked series example of FanoData (r = 1) or FanoEnriquesData as
    series_examples.json stores it: its inputs, its component rows, and the
    nonzero coefficients left after peeling each (n, i) in turn, keyed "m"
    or "m,i"."""
    bigraded = isinstance(data, FanoEnriquesData)
    series = (bigraded_series if bigraded else altinok_series)(data, EXAMPLE_TRUNC)
    rows = [[format_rational(c) for c in series.component(i)] for i in range(series.r)]
    for n, i in peel:
        series = series.peel(Bidegree(n, i))
    peeled = {(f"{m},{i}" if bigraded else str(m)): format_rational(c)
              for i in range(series.r) for m, c in enumerate(series.component(i)) if c}
    peel = [list(d) for d in peel]
    if bigraded:
        return {"data": data.to_json(), "components": rows, "peel": peel, "peeled": peeled}
    return {"minusK3": format_rational(data.minus_k_cubed), "basket": data.basket.to_json(),
            "coeffs": rows[0], "peel": peel, "peeled": peeled}


@dataclass(frozen=True)
class Reproduction:
    """One run of what the goldens freeze: the census of orders 2..24, one
    search per quotient golden, the worked examples as stored."""

    census: list[BtCandidate]
    searches: dict[str, SearchResult]
    examples: dict[str, dict]

    def baskets(self) -> dict[str, list]:
        """The census as torsion_baskets.json stores it, by order."""
        baskets: dict[str, list] = {}
        for c in self.census:
            baskets.setdefault(str(c.r), []).append(c.entries.to_json())
        return baskets

    def reasons(self, golden_name: str) -> dict[str, list[str]]:
        """Each cover's distinct rejection reasons in one search, sorted."""
        reasons: dict[str, set] = {}
        for rej in self.searches[golden_name].rejections:
            reasons.setdefault(rej.cover, set()).add(rej.reason)
        return {cover: sorted(seen) for cover, seen in reasons.items()}

    def mismatches(self) -> list[str]:
        """Every difference between this run and the bundled goldens."""
        problems = _verify_series_examples(self)
        problems += _verify_baskets(self)
        for name in GOLDEN_FILES:
            problems += _verify_quotients(name, self)
        return problems


def reproduce() -> Reproduction:
    """The census, the three catalog searches and the worked examples, from
    the cover catalogs and the fixed inputs above; no golden is read."""
    census = [c for r in range(2, MAX_TORSION + 1) for c in enumerate_bt(r)]
    examples = {name: _worked_example(data, peel) for name, (data, peel) in EXAMPLES.items()}
    searches = {
        golden: search(
            bundled_catalog(covers, trunc=TRUNC), census, trunc=TRUNC, max_degree=MAX_DEGREE
        )
        for golden, covers in SEARCHES.items()
    }
    return Reproduction(census, searches, examples)


def _verify_quotients(golden_name: str, rep: Reproduction) -> list[str]:
    golden = bundled_json(golden_name)
    problems = _shape(golden_name, golden, {"rows": list, "special_cases": list, "decoys": list})
    if not problems:
        for key, fields in (("rows", _ROW_FIELDS), ("special_cases", _ROW_FIELDS),
                            ("decoys", {"cover": str, "reasons": list})):
            for k, entry in enumerate(golden[key]):
                problems += _shape(f"{golden_name} {key}[{k}]", entry, fields)
    if problems:
        return problems
    problems = [
        f"{golden_name}: {key} {golden.get(key)!r}, the reproduction uses {want!r}"
        for key, want in (
            ("catalog", SEARCHES[golden_name]), ("trunc", TRUNC), ("max_degree", MAX_DEGREE)
        )
        if golden.get(key) != want
    ]
    result = rep.searches[golden_name]
    for missing, kind, computed, expected in (
        ("expected row", "row", result.clean(), golden["rows"]),
        ("special case", "special case", result.special(), golden["special_cases"]),
    ):
        got = sorted(_row_key(candidate_row(c)) for c in computed)
        want = sorted(_row_key(row) for row in expected)
        for k in want:
            if k not in got:
                problems.append(f"{golden_name}: missing {missing} {k[0]} r={k[1]}")
        for k in got:
            if k not in want:
                problems.append(f"{golden_name}: unexpected {kind} {k[0]} r={k[1]}")

    clean_covers = {c.cover.name for c in result.clean()}
    reasons = rep.reasons(golden_name)
    for decoy in golden["decoys"]:
        name = decoy["cover"]
        if name in clean_covers:
            problems.append(f"{golden_name}: decoy {name} produced a clean row")
        seen = reasons.get(name, [])
        expected = decoy["reasons"]
        for reason in expected:
            if reason not in seen:
                problems.append(
                    f"{golden_name}: decoy {name} never rejected with "
                    f"{reason!r} (saw {seen or 'nothing'})"
                )
        if name not in clean_covers:  # else its clean row is the problem
            problems += [
                f"{golden_name}: decoy {name} rejected with unexpected {reason!r}"
                for reason in seen if reason not in expected
            ]
    return problems


def _verify_baskets(rep: Reproduction) -> list[str]:
    golden = bundled_json("torsion_baskets.json")
    problems = _shape("torsion_baskets.json", golden, {"max_order": int, "baskets": dict})
    if not problems:
        frozen = golden["baskets"]
        problems = _shape("torsion_baskets.json baskets", frozen, dict.fromkeys(frozen, list))
    if problems:
        return problems
    baskets = rep.baskets()
    for r in range(2, golden["max_order"] + 1):
        computed = sorted(map(_json_key, baskets.get(str(r), [])))
        want = sorted(map(_json_key, frozen.get(str(r), [])))
        if computed != want:
            problems.append(
                f"torsion_baskets.json: order {r} has {len(computed)} baskets, "
                f"golden lists {len(want)} (or contents differ)"
            )
    total = len(rep.census)
    want_total = sum(len(v) for v in frozen.values())
    if total != want_total:
        problems.append(
            f"torsion_baskets.json: {total} baskets enumerated, "
            f"golden freezes {want_total}"
        )
    return problems


def _verify_series_examples(rep: Reproduction) -> list[str]:
    golden = bundled_json("series_examples.json")
    problems = _shape("series_examples.json", golden, {"untwisted": dict, "bigraded": dict})
    if not problems:
        for name, values in (("untwisted", "coeffs"), ("bigraded", "components")):
            problems += _shape(f"series_examples.json {name}", golden[name],
                               {values: list, "peeled": dict})
    if problems:
        return problems
    problems = [
        f"series_examples.json: {name} inputs differ from the reproduction's"
        for name, example in rep.examples.items()
        if any(golden[name].get(k) != example.get(k) for k in ("minusK3", "basket", "data", "peel"))
    ]

    plain, want = rep.examples["untwisted"], golden["untwisted"]
    if plain["coeffs"] != want["coeffs"]:
        problems.append("series_examples.json: untwisted coefficients differ")
    problems += [
        f"series_examples.json: peeled untwisted series differs at t^{m}"
        for m in range(len(plain["coeffs"]))
        if plain["peeled"].get(str(m), "0") != want["peeled"].get(str(m), "0")
    ][:1]

    twisted, frozen = rep.examples["bigraded"], golden["bigraded"]
    rows = twisted["components"]
    if len(frozen["components"]) != len(rows):
        problems.append(f"series_examples.json: bigraded has {len(frozen['components'])} "
                        f"components, the reproduction {len(rows)}")
    problems += [
        f"series_examples.json: bigraded component {i} differs"
        for i, (row, want) in enumerate(zip(rows, frozen["components"])) if row != want
    ]
    problems += [
        f"series_examples.json: peeled bigraded series differs at t^{m} e^{i}"
        for i in range(len(rows)) for m in range(len(rows[i]))
        if twisted["peeled"].get(f"{m},{i}", "0") != frozen["peeled"].get(f"{m},{i}", "0")
    ]
    return problems


def verify_fixtures() -> list[str]:
    """Reproduce everything the bundled goldens freeze; returns all mismatches."""
    return reproduce().mismatches()
