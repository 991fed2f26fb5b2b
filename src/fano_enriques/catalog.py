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

verify_fixtures() recomputes everything the goldens freeze and returns
the list of mismatches (empty means all good).  The cover catalogs are
curated by hand, laid out as save_catalog writes them; the other files
are regenerated by scripts/build_catalogs.py, which reads the covers
and uses the same public recomputation helpers (candidate_row,
reasons_by_cover, census_baskets, worked_example).
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Sequence, Union

from .enumeration import MAX_TORSION, BtCandidate, enumerate_bt
from .errors import CatalogError
from .exact import format_rational, parse_rational
from .hilbert import FanoData, FanoEnriquesData, altinok_series, bigraded_series
from .orbifold import Basket
from .quotient import CoverRecord, QuotientCandidate, search
from .series import Bidegree

__all__ = [
    "FORMAT_VERSION",
    "load_catalog",
    "save_catalog",
    "bundled_catalog",
    "bundled_json",
    "verify_fixtures",
    "candidate_row",
    "reasons_by_cover",
    "census_baskets",
    "worked_example",
]

FORMAT_VERSION = "1"

GOLDEN_FILES = (
    "quotients_codim1.json",
    "quotients_codim2.json",
    "quotients_codim3.json",
)


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


def _basket_key(basket: list) -> tuple:
    return tuple(tuple(sorted(e.items())) for e in basket)


def _row_key(obj: dict) -> tuple:
    return (
        obj["cover"],
        obj["r"],
        obj["minusK3"],
        _basket_key(obj["bt"]),
        _basket_key(obj["be"]),
        tuple(tuple(g) for g in obj["generators"]),
        tuple(tuple(q) for q in obj["relations"]),
        tuple(sorted(obj.get("flags", ()))),
    )


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


def reasons_by_cover(result) -> dict[str, list[str]]:
    """Each cover's distinct rejection reasons, sorted as decoys list them."""
    reasons: dict[str, set] = {}
    for rej in result.rejections:
        reasons.setdefault(rej.cover, set()).add(rej.reason)
    return {cover: sorted(seen) for cover, seen in reasons.items()}


def census_baskets(census: Sequence[BtCandidate]) -> dict[str, list]:
    """The census as torsion_baskets.json stores it: each order that has
    baskets, mapped to them in census order."""
    baskets: dict[str, list] = {}
    for c in census:
        baskets.setdefault(str(c.r), []).append(c.entries.to_json())
    return baskets


def worked_example(data, trunc: int, peel) -> tuple[list, dict]:
    """A worked series example of FanoData (r = 1) or FanoEnriquesData as
    series_examples.json stores it: the component rows, and the nonzero
    coefficients left after peeling each (n, i) in turn, keyed "m" or "m,i"."""
    bigraded = isinstance(data, FanoEnriquesData)
    series = (bigraded_series if bigraded else altinok_series)(data, trunc)
    rows = [[format_rational(c) for c in series.component(i)] for i in range(series.r)]
    for n, i in peel:
        series = series.peel(Bidegree(n, i))
    peeled = {(f"{m},{i}" if bigraded else str(m)): format_rational(c)
              for i in range(series.r) for m, c in enumerate(series.component(i)) if c}
    return rows, peeled


def _verify_quotients(golden_name: str, census: Sequence[BtCandidate]) -> list[str]:
    golden = bundled_json(golden_name)
    catalog = bundled_catalog(golden["catalog"], trunc=golden.get("trunc", 24))
    result = search(
        catalog,
        census,
        trunc=golden.get("trunc", 24),
        max_degree=golden.get("max_degree", 24),
    )

    problems = []
    for missing, kind, computed, expected in (
        ("expected row", "row", result.clean(), golden["rows"]),
        ("special case", "special case", result.special(), golden.get("special_cases", [])),
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
    reasons = reasons_by_cover(result)
    for decoy in golden.get("decoys", []):
        name = decoy["cover"]
        if name in clean_covers:
            problems.append(f"{golden_name}: decoy {name} produced a clean row")
        seen = reasons.get(name, [])
        expected = decoy.get("reasons", [])
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


def _verify_baskets(census: Sequence[BtCandidate]) -> list[str]:
    golden = bundled_json("torsion_baskets.json")
    baskets = census_baskets(census)
    problems = []
    for r in range(2, golden.get("max_order", 24) + 1):
        computed = sorted(map(_basket_key, baskets.get(str(r), [])))
        want = sorted(map(_basket_key, golden["baskets"].get(str(r), [])))
        if computed != want:
            problems.append(
                f"torsion_baskets.json: order {r} has {len(computed)} baskets, "
                f"golden lists {len(want)} (or contents differ)"
            )
    total = len(census)
    want_total = sum(len(v) for v in golden["baskets"].values())
    if total != want_total:
        problems.append(
            f"torsion_baskets.json: {total} baskets enumerated, "
            f"golden freezes {want_total}"
        )
    return problems


def _verify_series_examples() -> list[str]:
    golden = bundled_json("series_examples.json")
    problems = []

    plain = golden["untwisted"]
    data = FanoData(parse_rational(plain["minusK3"]), Basket.from_json(plain["basket"]))
    (coeffs,), peeled = worked_example(data, len(plain["coeffs"]) - 1, plain["peel"])
    if coeffs != plain["coeffs"]:
        problems.append("series_examples.json: untwisted coefficients differ")
    for m in range(len(coeffs)):
        if peeled.get(str(m), "0") != plain["peeled"].get(str(m), "0"):
            problems.append(
                f"series_examples.json: peeled untwisted series differs at t^{m}"
            )
            break

    twisted = golden["bigraded"]
    fe = FanoEnriquesData.from_json(twisted["data"])
    rows, peeled = worked_example(fe, len(twisted["components"][0]) - 1, twisted["peel"])
    for i, row in enumerate(twisted["components"]):
        if rows[i % fe.r] != row:
            problems.append(f"series_examples.json: bigraded component {i} differs")
    for i in range(fe.r):
        for m in range(len(rows[i])):
            key = f"{m},{i}"
            if peeled.get(key, "0") != twisted["peeled"].get(key, "0"):
                problems.append(
                    f"series_examples.json: peeled bigraded series differs "
                    f"at t^{m} e^{i}"
                )
    return problems


def verify_fixtures() -> list[str]:
    """Recompute every bundled golden file; returns all mismatches found.

    The census is enumerated once and feeds both its own golden and the
    three catalog searches."""
    census = [c for r in range(2, MAX_TORSION + 1) for c in enumerate_bt(r)]
    problems = _verify_series_examples()
    problems += _verify_baskets(census)
    for name in GOLDEN_FILES:
        problems += _verify_quotients(name, census)
    return problems
