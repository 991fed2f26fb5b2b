#!/usr/bin/env python3
"""Regenerate the bundled quotient catalogs from scratch and print them.

Everything is recomputed live: the admissible torsion data, the three
quotient searches, and the two worked series examples.  Output is compared
row by row against the bundled golden files, so a clean run doubles as an
end-to-end consistency check.  Exits nonzero on any disagreement.
"""

from __future__ import annotations

import sys
import time

from fano_enriques.catalog import (
    GOLDEN_FILES,
    _candidate_row,
    _row_key,
    bundled_catalog,
    bundled_json,
)
from fano_enriques.enumeration import enumerate_bt
from fano_enriques.exact import format_rational, parse_rational
from fano_enriques.hilbert import FanoData, FanoEnriquesData, altinok_series, bigraded_series
from fano_enriques.orbifold import Basket
from fano_enriques.quotient import search


def rule(title: str):
    print()
    print(title)
    print("-" * len(title))


def show_baskets():
    golden = bundled_json("torsion_baskets.json")
    rule("Admissible torsion data by order")
    total = 0
    for r in range(2, golden["max_order"] + 1):
        found = enumerate_bt(r)
        want = golden["baskets"].get(str(r), [])
        if len(found) != len(want):
            sys.exit(f"order {r}: {len(found)} baskets, golden has {len(want)}")
        total += len(found)
        if not found:
            continue
        print(f"order {r}: {len(found)} baskets")
        for k, cand in enumerate(found, start=1):
            print(f"  {r}.{k}  {cand.entries}")
    print(f"total: {total}")


def fmt_pairs(pairs) -> str:
    return " ".join(f"({p.n},{p.i})" for p in pairs)


def show_catalog(golden_name: str):
    golden = bundled_json(golden_name)
    catalog = bundled_catalog(golden["catalog"], trunc=golden["trunc"])
    t0 = time.perf_counter()
    result = search(
        catalog, trunc=golden["trunc"], max_degree=golden["max_degree"]
    )
    dt = time.perf_counter() - t0

    labels = {}
    for row in golden["rows"] + golden["special_cases"]:
        labels[_row_key(row)] = row.get("label", "")

    rule(f"{golden['catalog']}: {len(catalog)} covers, search in {dt:.1f}s")
    for c in result:
        key = _row_key(_candidate_row(c))
        if key not in labels:
            sys.exit(f"{golden_name}: candidate {c.cover.name} r={c.data.r} "
                     f"not frozen in the golden file")
        label = labels.pop(key)
        flags = f"  [{', '.join(c.diagnostics)}]" if c.diagnostics else ""
        star = "*" if c.status == "special" else " "
        print(f"{star}{label or '-':>3}  {c.cover.name:<34} r={c.data.r}  "
              f"-K^3={format_rational(c.data.minus_k_cubed):>5}")
        print(f"      bt: {c.data.bt}")
        if len(c.data.be):
            print(f"      be: {c.data.be}")
        print(f"      generators {fmt_pairs(c.presentation.generators)}  |  "
              f"relations {fmt_pairs(c.presentation.relations)}{flags}")
    if labels:
        sys.exit(f"{golden_name}: {len(labels)} golden rows never produced")

    clean = result.clean()
    print(f"{len(clean)} clean, {len(result.special())} special "
          f"(marked *), {len(result.rejections)} rejected pairs")
    for decoy in golden["decoys"]:
        seen = sorted({r.reason for r in result.rejections
                       if r.cover == decoy["cover"]})
        print(f"  decoy {decoy['cover']}: {', '.join(seen)}")
        if any(c.cover.name == decoy["cover"] for c in clean):
            sys.exit(f"{golden_name}: decoy {decoy['cover']} went clean")


def show_series():
    golden = bundled_json("series_examples.json")

    plain = golden["untwisted"]
    rule("Worked series examples")
    basket = Basket.from_json(plain["basket"])
    series = altinok_series(
        FanoData(parse_rational(plain["minusK3"]), basket), len(plain["coeffs"]) - 1
    )
    got = [format_rational(c) for c in series.component(0)]
    if got != plain["coeffs"]:
        sys.exit("untwisted example drifted from the golden file")
    print(f"plain cover: -K^3 = {plain['minusK3']}, basket {{{basket}}}")
    print(f"  h^0(-nK), n = 0..{len(got) - 1}: {', '.join(got)}")
    print(f"  peel {plain['peel']} -> numerator "
          f"{_poly(plain['peeled'], bigraded=False)}")

    tw = golden["bigraded"]
    fe = FanoEnriquesData.from_json(tw["data"])
    series = bigraded_series(fe, len(tw["components"][0]) - 1)
    for i, row in enumerate(tw["components"]):
        got = [format_rational(c) for c in series.component(i)]
        if got != row:
            sys.exit(f"bigraded example component {i} drifted")
    print(f"order-{fe.r} quotient: -K^3 = {format_rational(fe.minus_k_cubed)}, "
          f"bt {{{fe.bt}}}")
    for i, row in enumerate(tw["components"]):
        print(f"  component {i}: {', '.join(row)}")
    print(f"  peel {tw['peel']} -> numerator {_poly(tw['peeled'], bigraded=True)}")


def _poly(coeffs: dict, bigraded: bool) -> str:
    terms = []
    for key, val in sorted(coeffs.items()):
        if bigraded:
            m, i = (int(x) for x in key.split(","))
            mono = f"e^{i} t^{m}" if i else f"t^{m}"
        else:
            m = int(key)
            mono = f"t^{m}"
        if m == 0:
            mono = "1"
        sign = "-" if val.startswith("-") else "+"
        mag = val.lstrip("-")
        coef = "" if mag == "1" else f"{mag} "
        terms.append(f"{sign} {coef}{mono}")
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else text


def main():
    show_baskets()
    for name in GOLDEN_FILES:
        show_catalog(name)
    show_series()
    print()
    print("all live output matches the bundled golden files")


if __name__ == "__main__":
    main()
