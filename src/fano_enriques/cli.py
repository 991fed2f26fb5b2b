"""Command line front end.

Subcommands:

  hilbert          series of a Fano threefold from -K^3 and a basket
  bigraded         component series of a threefold with torsion
  infer            presentation from a series (JSON file or stdin)
  enumerate-bt     admissible marked baskets for one or all orders
  search           quotient search over a catalog file
  verify-fixtures  recompute everything the bundled goldens freeze, then
                   show the verified census, catalog tables and series

Exit codes: 0 success, 1 usage or data error, 2 fixture mismatch.

Building the parser loads no engine module, only errors.py and exact.py
(for MAX_TORSION), so --help and usage errors start fast.  Each
subcommand imports what it runs: hilbert, bigraded and infer never load
the census, the search or the catalogs.
"""

from __future__ import annotations

import argparse
import sys

from .errors import EngineError


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    from .exact import MAX_TORSION

    parser = _Parser(
        prog="fano-enriques",
        description="exact Hilbert series, basket enumeration and quotient "
        "search for Fano threefolds with torsion",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("hilbert", help="series from -K^3 and a basket")
    p.add_argument("--k3", required=True, help="-K^3, e.g. 5/2")
    p.add_argument(
        "--basket", default="", help='basket, e.g. "1/2(1,1,1), 2x1/5(1,2,3)"'
    )
    p.add_argument("--trunc", type=int, default=20, help="truncation degree")

    p = sub.add_parser("bigraded", help="component series with a torsion divisor")
    p.add_argument("--r", type=int, required=True, help="torsion order")
    p.add_argument("--k3", required=True, help="-K^3, e.g. 1/2")
    p.add_argument(
        "--bt", required=True, help='marked basket, e.g. "2x1/5(1,2,3)_1, 1/10(1,3,7)_6"'
    )
    p.add_argument("--be", default="", help="unmarked basket part")
    p.add_argument("--trunc", type=int, default=20)

    p = sub.add_parser("infer", help="presentation from a series, to its truncation")
    p.add_argument(
        "--series",
        default="-",
        help="JSON file with fields r and coeffs, or - for stdin",
    )

    p = sub.add_parser("enumerate-bt", help="admissible marked baskets")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--r", type=int, help="one torsion order")
    which.add_argument(
        "--all", action="store_true", help=f"every order in [2, {MAX_TORSION}]"
    )

    p = sub.add_parser("search", help="quotient search over a catalog")
    p.add_argument(
        "--catalog", required=True, help="catalog file path or bundled name"
    )
    p.add_argument("--r", type=int, help="restrict to one torsion order")
    # None stands for quotient.TRUNC, read when the search runs
    p.add_argument("--trunc", type=int, help="truncation, inference runs to it")
    p.add_argument(
        "--rejections", action="store_true", help="also list every rejection"
    )

    sub.add_parser("verify-fixtures", help="recompute every bundled golden")

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable JSON output")
    return parser


def _print_json(value):
    import json

    print(json.dumps(value))


def _print_single(series, as_json: bool):
    from .exact import format_rational

    if as_json:
        _print_json(series.to_json())
    else:
        print(", ".join(format_rational(c) for c in series.component(0)))


def _cmd_hilbert(args) -> int:
    from .exact import parse_rational, truncation
    from .hilbert import FanoData, altinok_series
    from .orbifold import Basket

    data = FanoData(parse_rational(args.k3), Basket.parse(args.basket))
    trunc = truncation("--trunc", args.trunc)
    _print_single(altinok_series(data, trunc=trunc), args.json)
    return 0


def _cmd_bigraded(args) -> int:
    from .exact import format_rational, parse_rational, truncation
    from .hilbert import FanoEnriquesData, bigraded_series
    from .orbifold import Basket

    data = FanoEnriquesData(
        args.r, parse_rational(args.k3), Basket.parse(args.bt), Basket.parse(args.be)
    )
    series = bigraded_series(data, trunc=truncation("--trunc", args.trunc))
    if args.json:
        _print_json({"data": data.to_json(), "series": series.to_json()})
    else:
        for i in range(series.r):
            row = ", ".join(format_rational(c) for c in series.component(i))
            print(f"e^{i}: {row}")
    return 0


def _cmd_infer(args) -> int:
    from .exact import parse_json, read_file
    from .gradedrings import infer_presentation
    from .series import BigradedSeries

    if args.series == "-":
        text, origin = sys.stdin.read(), "stdin"
    else:
        text, origin = read_file(args.series), args.series
    series = BigradedSeries.from_json(parse_json(text, origin))
    presentation = infer_presentation(series)
    if args.json:
        _print_json(presentation.to_json())
    else:
        print(presentation)
    return 0


def _census(args) -> list:
    """The census of order --r, else of every order, order by order, each
    in enumeration order: a list of BtCandidate."""
    from .enumeration import enumerate_bt
    from .exact import MAX_TORSION

    orders = [args.r] if args.r is not None else range(2, MAX_TORSION + 1)
    return [c for r in orders for c in enumerate_bt(r)]


def _cmd_enumerate(args) -> int:
    rows = _census(args)
    if args.json:
        _print_json([{"r": c.r, "entries": c.entries.to_json()} for c in rows])
    else:
        for c in rows:
            print(c)
    return 0


def _cmd_search(args) -> int:
    from .catalog import resolve_catalog
    from .exact import truncation
    from .quotient import TRUNC, search

    trunc = truncation("--trunc", TRUNC if args.trunc is None else args.trunc)
    result = search(resolve_catalog(args.catalog), _census(args), trunc=trunc)
    if args.json:
        _print_json(result.to_json())
    else:
        for c in result:
            print(c)
        if args.rejections:
            for rej in result.rejections:
                print(rej)
        else:
            print(f"# {len(result)} candidates, {len(result.rejections)} rejections")
    return 0


def _peeled_series(peeled: dict, r: int, length: int):
    """A golden's peeled map, "m" or "m,i" -> coefficient, as a series."""
    from .series import BigradedSeries

    rows = [["0"] * length for _ in range(r)]
    for key, value in peeled.items():
        m, _, i = key.partition(",")
        rows[int(i or 0)][int(m)] = value
    return BigradedSeries.from_json({"r": r, "coeffs": rows})


def _print_goldens():
    """The census, the catalog tables and the worked series examples, read
    from the bundled goldens: once verify_fixtures() finds no problem they
    equal the live output on every field it compares."""
    from .catalog import GOLDEN_FILES, bundled_json
    from .orbifold import Basket

    census = bundled_json("torsion_baskets.json")["baskets"]
    print("Admissible torsion data by order")
    for r, baskets in census.items():
        print(f"order {r}: {len(baskets)} baskets")
        for k, basket in enumerate(baskets, start=1):
            print(f"  {r}.{k}  {Basket.from_json(basket)}")
    print(f"total: {sum(map(len, census.values()))}")

    for name in GOLDEN_FILES:
        golden = bundled_json(name)
        covers = bundled_json(golden["catalog"])["entries"]
        print(f"\n{golden['catalog']}: {len(covers)} covers")
        rows = [(" ", row) for row in golden["rows"]]
        rows += [("*", row) for row in golden["special_cases"]]
        for star, row in rows:
            flags = f"  [{', '.join(row['flags'])}]" if row["flags"] else ""
            print(f"{star}{row.get('label') or '-'!s:>3}  {row['cover']:<34} "
                  f"r={row['r']}  -K^3={row['minusK3']:>5}")
            print(f"      bt: {Basket.from_json(row['bt'])}")
            if row["be"]:
                print(f"      be: {Basket.from_json(row['be'])}")
            gens, rels = (" ".join(f"({n},{i})" for n, i in row[k])
                          for k in ("generators", "relations"))
            print(f"      generators {gens}  |  relations {rels}{flags}")
        print(f"{len(golden['rows'])} clean, {len(golden['special_cases'])} special (marked *)")
        for decoy in golden["decoys"]:
            print(f"  decoy {decoy['cover']}: {', '.join(decoy['reasons'])}")

    examples = bundled_json("series_examples.json")
    plain, twisted = examples["untwisted"], examples["bigraded"]
    data = twisted["data"]
    print("\nWorked series examples")
    print(f"plain cover: -K^3 = {plain['minusK3']}, "
          f"basket {{{Basket.from_json(plain['basket'])}}}")
    print(f"  h^0(-nK), n = 0..{len(plain['coeffs']) - 1}: {', '.join(plain['coeffs'])}")
    numerator = _peeled_series(plain["peeled"], 1, len(plain["coeffs"]))
    print(f"  peel {plain['peel']} -> numerator {numerator}")
    print(f"order-{data['r']} quotient: -K^3 = {data['minusK3']}, "
          f"bt {{{Basket.from_json(data['bt'])}}}")
    for i, row in enumerate(twisted["components"]):
        print(f"  component {i}: {', '.join(row)}")
    numerator = _peeled_series(twisted["peeled"], data["r"], len(twisted["components"][0]))
    print(f"  peel {twisted['peel']} -> numerator {numerator}")


def _cmd_verify(args) -> int:
    from .catalog import verify_fixtures

    problems = verify_fixtures()
    if args.json:
        _print_json({"ok": not problems, "problems": problems})
    elif problems:
        for problem in problems:
            print(problem)
    else:
        _print_goldens()
        print("\nall bundled fixtures verified")
    return 2 if problems else 0


_DISPATCH = {
    "hilbert": _cmd_hilbert,
    "bigraded": _cmd_bigraded,
    "infer": _cmd_infer,
    "enumerate-bt": _cmd_enumerate,
    "search": _cmd_search,
    "verify-fixtures": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](args)
    except (EngineError, OSError) as exc:
        print(f"fano-enriques {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
