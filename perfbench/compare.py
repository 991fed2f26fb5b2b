"""Summarize one result file, or compare two.

    python3 perfbench/compare.py RESULTS.jsonl
    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

A result file is what run.py appends to: one JSON line per run. For each
(workload, end-to-end metric) of the untraced runs this prints the median,
the quartile spread as a share of the median, and the bound from
BENCHMARK.json. Given two files it also marks each pair:

  better      AFTER wins at least 9 of 10 runs paired by seed (ties count
              for neither) and the medians differ by more than BEFORE's
              quartile distance, or every AFTER run beats every BEFORE run
  worse       AFTER's median is worse than BEFORE's by more than the bound
  unresolved  either side spreads wider than the bound
  unchanged   none of the above

Per-layer metrics of the traced runs follow, as "layer: a -> b unit".
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """{(workload, trace): [run record, ...]} in file order."""
    runs = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], record["trace"])].append(record)
    return runs


def paired(before, after, name):
    """Value pairs matched by seed, falling back to file order."""
    by_seed = {r["seed"]: r["metrics"][name] for r in before}
    pairs = [(by_seed[r["seed"]], r["metrics"][name]) for r in after if r["seed"] in by_seed]
    if not pairs:
        pairs = [(a["metrics"][name], b["metrics"][name]) for a, b in zip(before, after)]
    return pairs


def verdict(before, after, name, spec) -> str:
    a = [r["metrics"][name] for r in before]
    b = [r["metrics"][name] for r in after]
    sign = 1 if spec["better"] == "lower" else -1  # positive = AFTER worse

    def wins(x, y):
        return sign * (y - x) < 0

    med_a, med_b = stats.median(a), stats.median(b)
    q1, q3 = stats.quartiles(a)
    pairs = paired(before, after, name)
    won = sum(1 for x, y in pairs if wins(x, y))
    all_better = all(wins(x, y) for x in a for y in b)
    if all_better or (pairs and won >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1):
        return "better"
    if max(stats.spread(a), stats.spread(b)) > spec["bound"]:
        return "unresolved"
    if med_a and sign * (med_b - med_a) / med_a > spec["bound"]:
        return "worse"
    return "unchanged"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    sets = [load(path) for path in argv]
    first, last = sets[0], sets[-1]

    header = f"{'workload':<10} {'metric':<14} {'unit':<6} {'median':>12} {'spread':>7}"
    if len(sets) == 2:
        header += f" {'-> median':>12} {'spread':>7} {'change':>8}"
    print(header + f" {'bound':>6}  verdict")
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        before, after = first.get((workload, 0), []), last.get((workload, 0), [])
        if not before or not after:
            continue
        for name, spec in e2e.items():
            a = [r["metrics"][name] for r in before]
            line = f"{workload:<10} {name:<14} {spec['unit']:<6} {stats.median(a):>12.6g} {stats.spread(a):>7.2%}"
            if len(sets) == 2:
                b = [r["metrics"][name] for r in after]
                change = (stats.median(b) - stats.median(a)) / stats.median(a) if stats.median(a) else 0.0
                line += f" {stats.median(b):>12.6g} {stats.spread(b):>7.2%} {change:>+8.2%}"
                line += f" {spec['bound']:>6.2f}  {verdict(before, after, name, spec)}"
            else:
                steady = "steady" if stats.spread(a) < spec["bound"] / 3 else "spread"
                line += f" {spec['bound']:>6.2f}  {steady} (n={len(a)})"
            print(line)

    print()
    for workload in workloads:
        before, after = first.get((workload, 1), []), last.get((workload, 1), [])
        if not before or not after:
            continue
        for name, spec in layers.items():
            a = [r["metrics"].get(name, 0) for r in before]
            b = [r["metrics"].get(name, 0) for r in after]
            if not any(a) and not any(b):
                continue
            med_a, med_b = stats.median(a), stats.median(b)
            line = f"{workload}: {name}: {med_a:.6g}"
            if len(sets) == 2:
                line += f" -> {med_b:.6g}"
            line += f" {spec['unit']}"
            if len(sets) == 2 and med_a:
                line += f" ({(med_b - med_a) / med_a:+.1%})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
