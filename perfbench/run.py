"""Benchmark of the fano-enriques engine.

    python3 perfbench/run.py --workload reproduce|census|series \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from its `src/`.
Each pass of a workload runs in a fresh interpreter (worker.py), one pass
at a time, so every workload is a closed loop with one client. Passes
repeat until the next one would end after S seconds; at least one runs.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics (spans.py). Every
output is checked against the goldens in `src/fano_enriques/data/`; a
mismatch is printed with its item and counted in `failed`.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The run is also appended, with the raw
samples and an environment stamp, to perfbench/results/<commit>.jsonl,
which compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed check)."""


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": _git_commit(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# expected outputs, computed once per run by routes other than the one timed


class Census:
    """Each (r, strict) walk is one item."""

    def __init__(self, fe, fixtures):
        self.fixtures = fixtures
        golden = fe.bundled_json("torsion_baskets.json")["baskets"]
        self.expected = {}
        for r in fixtures.ORDERS:
            baskets = golden.get(str(r), [])
            self.expected[(r, False)] = sorted(fixtures.basket_key(b) for b in baskets)
            strict = []
            for b in baskets:
                candidate = fe.BtCandidate(r, fe.Basket.from_json(b))
                if fe.check_restrictions(candidate, strict_chi=True).admissible:
                    strict.append(fixtures.basket_key(b))
            self.expected[(r, True)] = sorted(strict)

    def task(self, seed):
        return {"workload": "census"}

    def check(self, result):
        """(failure reasons, items attempted, items that passed)."""
        failures = []
        for item in result["items"]:
            label = f"census r={item['r']} strict={item['strict']}"
            if item["error"]:
                failures.append(f"{label}: raised {item['error']}")
                continue
            got = sorted(self.fixtures.basket_key(b) for b in item["baskets"])
            want = self.expected[(item["r"], item["strict"])]
            if got != want:
                route = "check_restrictions(strict_chi=True)" if item["strict"] else "torsion_baskets.json"
                failures.append(f"{label}: {len(got)} baskets, {route} gives {len(want)} (or contents differ)")
        return failures, len(result["items"]), len(result["items"])


class Reproduce:
    """One `verify-fixtures --json` run per pass; throughput counts the
    (cover, r, bt) triples its three catalog searches try."""

    def __init__(self, fe, fixtures):
        census = fe.bundled_json("torsion_baskets.json")["baskets"]
        self.triples = len(fixtures.cover_records()) * sum(len(v) for v in census.values())

    def task(self, seed):
        return {"workload": "reproduce"}

    def check(self, result):
        item = result["items"][0]
        failure = None
        if item["error"]:
            failure = f"verify-fixtures raised {item['error']}"
        elif item["exit_code"] != 0:
            failure = f"verify-fixtures exited {item['exit_code']}: {item['stdout'].strip()[:500]}"
        else:
            try:
                report = json.loads(item["stdout"])
            except json.JSONDecodeError:
                report = None
            if not isinstance(report, dict) or report.get("ok") is not True:
                failure = f"verify-fixtures did not report ok: {item['stdout'].strip()[:500]}"
        completed = 0 if failure else self.triples
        return ([failure] if failure else []), 1, completed


class Series:
    """Shuffled library requests: bigraded series plus inference for each
    golden quotient row, Altinok series for each catalog cover."""

    def __init__(self, fe, fixtures):
        self.fixtures = fixtures
        self.rows = fixtures.golden_rows()
        covers = fixtures.cover_records()
        self.n_covers = len(covers)
        self.expected = {}
        for index, (status, row) in enumerate(self.rows):
            gens = [fe.Bidegree(*g) for g in row["generators"]]
            rels = [fe.Bidegree(*q) for q in row["relations"]]
            complete_intersection = status == "clean" and len(rels) == len(gens) - 4
            for n in fixtures.SERIES_TRUNCATIONS:
                want = {"generators": row["generators"], "relations": row["relations"], "status": status}
                if complete_intersection:
                    want["digest"] = self._digest(fe.presentation_series, gens, rels, row["r"], n)
                self.expected[("row", index, n)] = want
        for index, cover in enumerate(covers):
            for n in fixtures.SERIES_TRUNCATIONS:
                self.expected[("cover", index, n)] = {"digest": self._digest(cover.series, n)}

    def _digest(self, route, *args):
        try:
            return self.fixtures.digest(route(*args))
        except Exception as exc:  # reported against every item that needs it
            return f"check route raised {type(exc).__name__}: {exc}"

    def task(self, seed):
        requests = self.fixtures.series_requests(seed, len(self.rows), self.n_covers)
        return {"workload": "series", "requests": requests}

    def check(self, result):
        failures = []
        for item in result["items"]:
            key = (item["kind"], item["index"], item["n"])
            label = f"series {item['kind']} {item['index']} N={item['n']}"
            if item["kind"] == "row":
                label += f" ({self.rows[item['index']][1]['cover']}, r={self.rows[item['index']][1]['r']})"
            want = self.expected[key]
            if item["error"]:
                failures.append(f"{label}: raised {item['error']}")
                continue
            if "digest" in want and item["digest"] != want["digest"]:
                route = "presentation_series" if item["kind"] == "row" else "CoverRecord.series"
                failures.append(f"{label}: series differs from {route} ({want['digest']})")
                continue
            if item["kind"] == "row":
                got = item["presentation"]
                for field in ("generators", "relations", "status"):
                    if got[field] != want[field]:
                        failures.append(f"{label}: {field} {got[field]} != golden {want[field]}")
                        break
        return failures, len(result["items"]), len(result["items"]) - len(failures)


WORKLOADS = {"reproduce": Reproduce, "census": Census, "series": Series}


# ---------------------------------------------------------------------------
# passes


def spawn(task: dict) -> tuple[dict, float]:
    """Run one worker; returns its result and its set-up time in seconds."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(task), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{task['workload']} worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{task['workload']} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready"] - started


def run_passes(workload, task, seconds, traced: bool):
    """Untraced passes, or untraced/traced pairs, until the time is used."""
    begin = time.monotonic()
    passes, traced_passes, setups = [], [], []
    while True:
        lap = time.monotonic()
        result, setup = spawn(dict(task, trace=0))
        passes.append(result)
        setups.append(setup)
        if traced:
            spans_path = RESULTS / f"spans-{workload}.bin"
            result, _ = spawn(dict(task, trace=1, spans_path=str(spans_path)))
            traced_passes.append(result)
        now = time.monotonic()
        if now - begin + (now - lap) > seconds:
            return passes, traced_passes, setups


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, passes, setups, attempted, failed, completed):
    if workload == "reproduce":
        latencies = [p["wall_s"] for p in passes]
    else:
        latencies = [item["latency_s"] for p in passes for item in p["items"]]
    total_wall = sum(p["wall_s"] for p in passes)
    return {
        "setup_s": stats.median(setups),
        "wall_s": stats.median([p["wall_s"] for p in passes]),
        "cpu_s": stats.median([p["cpu_s"] for p in passes]),
        "items_per_s": completed / total_wall,
        "item_p50_ms": stats.median(latencies) * 1e3,
        "item_p90_ms": stats.percentile(latencies, 90) * 1e3,
        "peak_rss_mb": stats.median([p["peak_rss_mb"] for p in passes]),
        "ok_ratio": 1 - failed / attempted,
    }, len(latencies)


def per_layer(passes, traced_passes):
    layers = {}
    for name, unit in spans.LAYER_METRICS:
        values = [p["layers"][name] for p in traced_passes if name in p["layers"]]
        if values:
            layers[name] = stats.median(values)
        if unit in ("count", "computed_pairs") and len(set(values)) > 1:
            print(f"# warning: {name} differs between traced passes: {values}")
    layers["trace.overhead_ratio"] = stats.median(
        [p["wall_s"] for p in traced_passes]
    ) / stats.median([p["wall_s"] for p in passes])
    layers["process.wait_s"] = stats.median([p["wall_s"] - p["cpu_s"] for p in passes])
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fano_enriques" / "__init__.py").is_file():
        print(f"perfbench: no engine source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fano_enriques as fe
    import fixtures

    env = environment(args.seed)
    checker = WORKLOADS[args.workload](fe, fixtures)
    task = checker.task(args.seed)
    traced = bool(args.trace)

    setups = []
    if not traced:
        spawn({"workload": "setup"})  # fills __pycache__ so no sample pays for compiling
        setups += [spawn({"workload": "setup"})[1] for _ in range(SETUP_SAMPLES)]
    passes, traced_passes, pass_setups = run_passes(args.workload, task, args.seconds, traced)
    setups += pass_setups

    failures, attempted, completed = [], 0, 0
    for untraced, group in ((True, passes), (False, traced_passes)):
        for result in group:
            bad, tried, done = checker.check(result)
            failures += bad
            attempted += tried
            completed += done if untraced else 0
    failed = len(failures)
    for failure in failures:
        print(f"FAIL {failure}")

    e2e, samples = end_to_end(args.workload, passes, setups, attempted, failed, completed)
    if traced:
        metrics = per_layer(passes, traced_passes)
        units = dict(spans.LAYER_METRICS)
    else:
        metrics, units = e2e, END_TO_END_UNITS

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes"
        f" ({len(traced_passes)} traced), {samples} latency samples, {len(setups)} set-ups,"
        f" python {env['python']}, nproc {env['nproc']}, load {env['loadavg_at_start'][0]:.2f}"
    )
    if traced:
        print("# names wrapped per span:", json.dumps(traced_passes[0]["bindings"]))
    for name, value in metrics.items():
        print(f"{args.workload:<10} {name:<48} {value:>14.6g} {units[name]}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "metrics": metrics,
        "end_to_end": e2e,
        "bindings": traced_passes[0]["bindings"] if traced else None,
        "samples": {
            "setup_s": setups,
            "wall_s": [p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "traced_wall_s": [p["wall_s"] for p in traced_passes],
            "latency_samples": samples,
        },
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{env['git_commit'][:12]}.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
