"""Benchmark inputs, drawn from the goldens the package ships.

Both sides use this module: the worker builds its requests from it and
the parent checks the worker's answers against it, so the two agree on
the order of rows and covers.
"""

from __future__ import annotations

import hashlib
import random

from fano_enriques import MAX_TORSION, CoverRecord, bundled_json

GOLDEN_FILES = ("quotients_codim1.json", "quotients_codim2.json", "quotients_codim3.json")
SERIES_TRUNCATIONS = (24, 48, 72)
ORDERS = range(2, MAX_TORSION + 1)


def golden_rows() -> list[tuple[str, dict]]:
    """(expected status, row) for every golden quotient row: clean rows,
    then the special cases, file by file."""
    rows = []
    for name in GOLDEN_FILES:
        golden = bundled_json(name)
        rows += [("clean", row) for row in golden["rows"]]
        rows += [("special", row) for row in golden.get("special_cases", [])]
    return rows


def cover_records() -> list[CoverRecord]:
    """Every cover of the catalogs the goldens were searched over, read
    without validation (that is not timed work of the series workload)."""
    return [
        CoverRecord.from_json(entry)
        for name in GOLDEN_FILES
        for entry in bundled_json(bundled_json(name)["catalog"])["entries"]
    ]


def series_requests(seed: int, n_rows: int, n_covers: int) -> list[list]:
    """One pass of the series workload: every (request, truncation) pair
    once, in an order drawn from the seed.

    Each pass holds every pair, so the work of a pass does not depend on
    the seed; the seed fixes only the order in which it arrives.
    """
    requests = [
        [kind, index, n]
        for kind, count in (("row", n_rows), ("cover", n_covers))
        for index in range(count)
        for n in SERIES_TRUNCATIONS
    ]
    random.Random(seed).shuffle(requests)
    return requests


def digest(series) -> str:
    """Short fingerprint of a series' exact coefficients."""
    text = "|".join(",".join(str(c) for c in row) for row in series.coeffs)
    return hashlib.sha256(f"{series.r};{text}".encode()).hexdigest()[:32]


def basket_key(entries_json) -> tuple:
    return tuple(sorted((e["r"], e["a"], e.get("l", 0)) for e in entries_json))
