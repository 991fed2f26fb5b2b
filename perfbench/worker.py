"""One pass of one workload in a fresh interpreter.

Started by run.py with the repository root as working directory. It
first does what every CLI start does, importing `fano_enriques.cli` and
building its parser (through `cli.main([])`, which prints the usage),
and records the monotonic clock when that is done, so the parent can
time set-up from the moment it spawned the process. It then reads a JSON
task from stdin, builds the pass's inputs, runs the pass (traced if the
task says so), and prints one JSON line.

Only the calls into the engine are timed; turning results into JSON for
the parent's checks happens outside the timed region.
"""

import io
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

_stderr, sys.stderr = sys.stderr, io.StringIO()
try:
    from fano_enriques import cli

    cli.main([])
finally:
    sys.stderr = _stderr
READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import fano_enriques as fe  # noqa: E402

import fixtures  # noqa: E402
import spans  # noqa: E402


def _failure() -> str:
    """The exception being handled, as one line."""
    return traceback.format_exc().strip().splitlines()[-1]


def reproduce(task):
    def run() -> dict:
        out = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify-fixtures", "--json"])
            error = None
        except Exception:
            code, error = None, _failure()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        item = {"latency_s": wall, "exit_code": code, "stdout": out.getvalue(), "error": error}
        return {"wall_s": wall, "cpu_s": cpu, "items": [item]}

    return run


def census(task):
    def run() -> dict:
        walks, wall, cpu = [], 0.0, 0.0
        for strict in (False, True):
            for r in fixtures.ORDERS:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                try:
                    found, error = fe.enumerate_bt(r, strict), None
                except Exception:
                    found, error = [], _failure()
                latency = time.perf_counter() - wall0
                cpu += time.process_time() - cpu0
                wall += latency
                walks.append((r, strict, latency, found, error))
        items = [
            {
                "r": r,
                "strict": strict,
                "latency_s": latency,
                "baskets": [c.entries.to_json() for c in found],
                "error": error,
            }
            for r, strict, latency, found, error in walks
        ]
        return {"wall_s": wall, "cpu_s": cpu, "items": items}

    return run


def series(task):
    rows = [fe.FanoEnriquesData.from_json(row) for _, row in fixtures.golden_rows()]
    covers = [fe.FanoData(c.minus_k_cubed, c.basket) for c in fixtures.cover_records()]

    def run() -> dict:
        items, wall, cpu = [], 0.0, 0.0
        for kind, index, n in task["requests"]:
            item = {"kind": kind, "index": index, "n": n, "error": None}
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                if kind == "row":
                    result = fe.bigraded_series(rows[index], n)
                    presentation = fe.infer_presentation(result, max_degree=n)
                else:
                    result = fe.altinok_series(covers[index], n)
            except Exception:
                result, item["error"] = None, _failure()
            item["latency_s"] = time.perf_counter() - wall0
            cpu += time.process_time() - cpu0
            wall += item["latency_s"]
            if result is not None:
                item["digest"] = fixtures.digest(result)
                if kind == "row":
                    item["presentation"] = presentation.to_json()
            items.append(item)
        return {"wall_s": wall, "cpu_s": cpu, "items": items}

    return run


PASSES = {"reproduce": reproduce, "census": census, "series": series}


def main() -> int:
    task = json.load(sys.stdin)
    result = {"ready": READY}
    if task["workload"] != "setup":
        run = PASSES[task["workload"]](task)  # inputs are built before tracing starts
        tracer = None
        if task["trace"]:
            tracer = spans.Tracer()
            result["bindings"] = spans.install(tracer)
        result.update(run())
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = spans.summarize(tracer)
            tracer.write(Path(task["spans_path"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
