"""Catalog files, bundled fixtures, and golden verification.

A catalog file is JSON: {"format_version": "1", "entries": [...]} with
one serialized CoverRecord per entry.  Loading checks all that needs no
truncation (field types, the model's shape, -K^3, parity, distinct
names), with per-entry diagnostics collected before failing; search
checks each declared basket's series against the model's at its own.

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
series examples.  Its payload() is each golden's JSON as that run
determines it; the rows and special cases of a quotient golden are the
search result's golden_json(), which `search --json` prints for the same
catalog too.  verify_fixtures() compares the bundled goldens with those
payloads exactly, apart from the curated fields (each row's label and
notes) and the order of rows, special cases and decoys; it returns one
line per difference (empty means all good).  scripts/build_catalogs.py
writes curated_payload(), the payload with the curated fields, the order
and the decoys of the golden it replaces, so the paper's tables are kept
once, in the goldens.  The cover catalogs are curated by hand, laid out
as save_catalog writes them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence, Union

from .enumeration import BtCandidate, enumerate_bt
from .errors import CatalogError, EngineError
from .exact import MAX_TORSION, Rational, format_rational, parse_json, read_file
from .hilbert import FanoData, FanoEnriquesData, altinok_series, bigraded_series
from .orbifold import Basket
from .quotient import TRUNC, CoverRecord, SearchResult, search
from .series import Bidegree

__all__ = [
    "load_catalog",
    "save_catalog",
    "bundled_catalog",
    "bundled_json",
    "resolve_catalog",
    "verify_fixtures",
]

FORMAT_VERSION = "1"

# The reproduction's fixed inputs: the cover catalog each quotient golden
# searches (each at the search's default truncation TRUNC), and the two
# worked examples (a quotient of order 5 and its cover), each a data set
# whose series to t^9 is peeled by the product over the listed bidegrees.
SEARCHES = {f"quotients_codim{c}.json": f"covers_codim{c}.json" for c in (1, 2, 3)}
GOLDEN_FILES = tuple(SEARCHES)
GOLDENS = ("series_examples.json", "torsion_baskets.json", *GOLDEN_FILES)
EXAMPLE_TRUNC = 9
EXAMPLES = {
    "untwisted": (FanoData(Rational(5, 2), Basket.parse("1/2(1,1,1)")), [(1, 0)] * 4 + [(2, 0)]),
    "bigraded": (
        FanoEnriquesData(5, Rational(1, 2), Basket.parse("1/10(1,3,7)_6, 2x1/5(1,2,3)_1")),
        [(1, 0), (1, 1), (1, 3), (1, 4), (2, 2)],
    ),
}


def _records_from(obj, origin: str) -> list[CoverRecord]:
    if not isinstance(obj, dict):
        raise CatalogError(f"{origin}: expected a JSON object at top level")
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
        except EngineError as exc:
            problems.append(f"{label}: unreadable record ({exc})")
            continue
        label = f"{label} ({record.name})"
        if record.name in names:
            problems.append(f"{label}: duplicate name")
        names.add(record.name)
        for issue in record.validate():
            problems.append(f"{label}: {issue}")
        records.append(record)
    if problems:
        raise CatalogError("\n".join(problems))
    return records


def load_catalog(path: Union[str, Path]) -> list[CoverRecord]:
    """Read and validate a catalog file; raises CatalogError listing every
    problem found rather than stopping at the first."""
    return _records_from(parse_json(read_file(path), str(path)), str(path))


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
    if not node.is_file():
        raise CatalogError(f"no bundled file {name!r}")
    return parse_json(read_file(node), name)


def bundled_catalog(name: str) -> list[CoverRecord]:
    return _records_from(bundled_json(name), name)


def resolve_catalog(source: str) -> list[CoverRecord]:
    """A path if it exists on disk, else a bundled file name."""
    if Path(source).exists():
        return load_catalog(source)
    return bundled_catalog(source)


def _worked_example(data, peel) -> dict:
    """A worked series example of FanoData (r = 1) or FanoEnriquesData as
    series_examples.json stores it: its inputs, its component rows, and the
    nonzero coefficients left after one peel by the product over its (n, i),
    keyed "m" or "m,i"."""
    bigraded = isinstance(data, FanoEnriquesData)
    series = (bigraded_series if bigraded else altinok_series)(data, EXAMPLE_TRUNC)
    rows = [[format_rational(c) for c in series.component(i)] for i in range(series.r)]
    series = series.peel(*(Bidegree(n, i) for n, i in peel))
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

    def payload(self, name: str, decoys: Sequence[str] = ()) -> dict:
        """A golden's JSON as this run determines it.  A quotient golden
        gets the search's rows and special cases, unlabelled and in search
        order, and the distinct rejection reasons of each named decoy that
        produced no clean row."""
        if name == "torsion_baskets.json":
            baskets: dict[str, list] = {}
            for c in self.census:
                baskets.setdefault(str(c.r), []).append(c.entries.to_json())
            return {"max_order": MAX_TORSION, "baskets": baskets}
        if name == "series_examples.json":
            return self.examples
        result = self.searches[name]
        clean = {c.cover.name for c in result.clean()}
        reasons: dict[str, set] = {d: set() for d in decoys if d not in clean}
        for rej in result.rejections:
            if rej.cover in reasons:
                reasons[rej.cover].add(rej.reason)
        return {
            "format_version": FORMAT_VERSION,
            "catalog": SEARCHES[name],
            "trunc": TRUNC,
            "max_degree": TRUNC,
            **result.golden_json(),
            "decoys": [{"cover": d, "reasons": sorted(seen)} for d, seen in reasons.items()],
        }

    def mismatches(self) -> list[str]:
        """Every difference between the bundled goldens and this run's
        payloads, one line per key path."""
        problems: list[str] = []
        for name in GOLDENS:
            golden = bundled_json(name)
            problems += _diff(name, "", golden, self.payload(name, _decoy_names(golden)))
        return problems


def reproduce() -> Reproduction:
    """The census, the three catalog searches and the worked examples, from
    the cover catalogs and the fixed inputs above; no golden is read."""
    census = [c for r in range(2, MAX_TORSION + 1) for c in enumerate_bt(r)]
    examples = {name: _worked_example(data, peel) for name, (data, peel) in EXAMPLES.items()}
    searches = {
        golden: search(bundled_catalog(covers), census)
        for golden, covers in SEARCHES.items()
    }
    return Reproduction(census, searches, examples)


# ---------------------------------------------------------------------------
# golden comparison

# The golden lists matched by key rather than position, and the row fields
# curated by hand in the goldens, which no run derives: only
# curated_payload() carries them over, when a golden is rewritten.
KEYED = ("rows", "special_cases", "decoys")
CURATED = ("label", "notes")
_ABSENT = object()


def _decoy_names(golden) -> list[str]:
    """The covers a quotient golden names as decoys, as far as it is well formed."""
    decoys = golden.get("decoys") if isinstance(golden, dict) else None
    if not isinstance(decoys, list):
        return []
    return [d["cover"] for d in decoys if isinstance(d, dict) and isinstance(d.get("cover"), str)]


def _by_key(field: str, entries: list) -> dict:
    """A keyed golden list as an object.  A row or special case is keyed
    `cover r=N bt {basket}`, a decoy by its cover; an entry without them,
    or a repeated key, is keyed by its position."""
    out = {}
    for k, entry in enumerate(entries):
        key = str(k)
        if isinstance(entry, dict) and isinstance(entry.get("cover"), str):
            if field == "decoys":
                key = entry["cover"]
            elif "r" in entry and "bt" in entry:
                try:
                    bt = str(Basket.from_json(entry["bt"]))
                except EngineError:
                    bt = json.dumps(entry["bt"])
                key = f"{entry['cover']} r={entry['r']} bt {{{bt}}}"
        out[f"{key}, again at {k}" if key in out else key] = entry
    return out


def curated_payload(rep: Reproduction, name: str, golden) -> dict:
    """The payload that replaces `golden`, with what is curated carried over
    from it.  Each row or special case of a quotient golden takes the
    curated fields of the golden entry with its key and keeps that entry's
    place; new candidates follow in search order, with none.  The decoys are
    the catalog's covers that no labelled entry names, in catalog order."""
    if name not in SEARCHES:
        return rep.payload(name)
    fields = ("rows", "special_cases")
    lists = [golden.get(field) if isinstance(golden, dict) else None for field in fields]
    if not all(isinstance(entries, list) and all(isinstance(e, dict) for e in entries)
               for entries in lists):
        raise CatalogError(f"{name}: rows and special cases are not lists of objects")
    curated = {key: entry for field, entries in zip(fields, lists)
               for key, entry in _by_key(field, entries).items()}
    labelled = {e["cover"] for entries in lists for e in entries
                if "label" in e and isinstance(e.get("cover"), str)}
    covers = [entry["name"] for entry in bundled_json(SEARCHES[name])["entries"]]
    payload = rep.payload(name, [cover for cover in covers if cover not in labelled])
    for field, entries in zip(fields, lists):
        place = {key: k for k, key in enumerate(_by_key(field, entries))}
        run = sorted(_by_key(field, payload[field]).items(),
                     key=lambda item: place.get(item[0], len(place)))
        payload[field] = [dict(entry, **{f: curated[key][f] for f in CURATED
                                         if f in curated.get(key, ())})
                          for key, entry in run]
    return payload


def _brief(value) -> str:
    """A value as a problem line shows it: a list by its length."""
    if value is _ABSENT:
        return "nothing"
    if isinstance(value, list):
        return f"{len(value)} item{'s' * (len(value) != 1)}"
    return "an object" if isinstance(value, dict) else json.dumps(value)


def _dump(value) -> str:
    """Equal for equal JSON values only: 1, 1.0 and true differ."""
    return "" if value is _ABSENT else json.dumps(value, sort_keys=True)


def _diff(name: str, path: str, golden, run) -> list[str]:
    """One line per key path at which a golden differs from the run: rows,
    special cases and decoys are matched by key, all else exactly."""
    step = "{}.{}" if path else "{}{}"
    if path in KEYED and isinstance(golden, list) and isinstance(run, list):
        golden, run = ([{f: v for f, v in e.items() if f not in CURATED}
                        if isinstance(e, dict) else e for e in side] for side in (golden, run))
        if sorted(map(_dump, golden)) == sorted(map(_dump, run)):
            return []
        golden, run, step = _by_key(path, golden), _by_key(path, run), "{}[{}]"
    if path and _dump(golden) == _dump(run):  # a whole quotient golden never matches
        return []
    if isinstance(golden, dict) and isinstance(run, dict):
        keys = [*golden, *(key for key in run if key not in golden)]
        return [line for key in keys for line in _diff(
            name, step.format(path, key), golden.get(key, _ABSENT), run.get(key, _ABSENT))]
    if isinstance(golden, list) and isinstance(run, list) and len(golden) == len(run):
        return [line for k, (g, r) in enumerate(zip(golden, run))
                for line in _diff(name, f"{path}[{k}]", g, r)]
    where = f"{name} {path}" if path else name
    return [f"{where}: golden {_brief(golden)}, run {_brief(run)}"]


def verify_fixtures() -> list[str]:
    """Reproduce everything the bundled goldens freeze; returns all mismatches."""
    return reproduce().mismatches()
