"""Outside-in tracing of the engine's public functions.

The wrappers live here, not in the package: `install` replaces a public
function at every name it is bound under (its home module, every module
that imported it by name, the package namespace, class attributes such
as `__rmul__ = __mul__`) with a wrapper that records one span per call.

Spans are (name, parent, start, end) rows kept in flat arrays, 24 bytes
each, and written out once the pass ends. Self time is computed after the
pass, so the per-call cost inside the timed region is one append per
array and two clock reads.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# Layer metric names and units, in report order (BENCHMARK.json adds the
# direction). Counts are per pass; times are seconds per pass. `summarize`
# fills every name, with 0 where a layer is not reached by the workload.
ORDERS = range(2, 25)  # torsion orders 2..MAX_TORSION; kept here so no engine import is needed
CODIMS = (1, 2, 3)
MATCH_REASONS = ("preimage-mismatch", "orbit-indivisible", "parity-fail")
INFERENCE_OUTCOMES = ("clean", "special", "inconclusive", "failed")

LAYER_METRICS: list[tuple[str, str]] = [
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.mul.coeff_pairs", "computed_pairs"),
    ("series.init.calls", "count"),
    ("series.init.self_s", "s"),
    ("series.peel.calls", "count"),
    ("series.peel.self_s", "s"),
    ("series.divide_factor.calls", "count"),
    ("series.divide_factor.self_s", "s"),
]
for _fn in (
    "altinok_series",
    "torsion_delta_series",
    "torsion_delta_at",
    "bigraded_series",
    "model_series",
):
    LAYER_METRICS += [
        (f"hilbert.{_fn}.calls", "count"),
        (f"hilbert.{_fn}.self_s", "s"),
    ]
LAYER_METRICS += [
    ("enumeration.enumerate_bt.calls", "count"),
    ("enumeration.enumerate_bt.self_s", "s"),
    ("enumeration.enumerate_bt.baskets", "count"),
    ("enumeration.enumerate_bt.empty_orders_s", "s"),
]
LAYER_METRICS += [
    (f"enumeration.enumerate_bt.r{r}.self_s", "s") for r in ORDERS
]
LAYER_METRICS += [
    ("enumeration.canonicalize.calls", "count"),
    ("enumeration.yield", "ratio"),
    ("gradedrings.infer_presentation.calls", "count"),
    ("gradedrings.infer_presentation.self_s", "s"),
]
LAYER_METRICS += [
    (f"gradedrings.infer_presentation.{o}", "count")
    for o in INFERENCE_OUTCOMES
]
LAYER_METRICS += [
    ("quotient.match_cover.calls", "count"),
    ("quotient.match_cover.self_s", "s"),
    ("quotient.match_cover.accepted", "count"),
]
LAYER_METRICS += [
    (f"quotient.match_cover.{reason}", "count") for reason in MATCH_REASONS
]
for _c in CODIMS:
    LAYER_METRICS.append((f"quotient.match_cover.codim{_c}.accepted", "count"))
    LAYER_METRICS += [
        (f"quotient.match_cover.codim{_c}.{reason}", "count")
        for reason in MATCH_REASONS
    ]
LAYER_METRICS += [
    ("quotient.search.calls", "count"),
    ("quotient.search.self_s", "s"),
    ("quotient.search.candidates", "count"),
    ("quotient.search.dedup_hits", "count"),
    ("quotient.search.useful_ratio", "ratio"),
    ("quotient.cover_validate.calls", "count"),
    ("quotient.cover_validate.self_s", "s"),
    ("catalog.load.calls", "count"),
    ("catalog.load.self_s", "s"),
    ("catalog.verify_fixtures.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("process.wait_s", "s"),
]


class Tracer:
    """Span recorder for one traced pass in one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """Wrap `fn` so each call records a span.

        `name` is a span name, or a function of the call's arguments giving
        one. `after(args, kwargs, result, exc, seconds)` runs once the span
        has ended and may add to `self.counts`.
        """
        clock = time.perf_counter
        stack, names, parents = self._stack, self.name_id, self.parent
        starts, ends = self.start, self.end
        fixed = None if callable(name) else self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if fixed is not None else self._id(name(*args, **kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            result = exc = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if after is not None:
                    after(args, kwargs, result, exc, ends[idx] - starts[idx])

        return traced

    def open_span(self):
        """Name of the innermost span still open, or None."""
        top = self._stack[-1]
        return self.names[self.name_id[top]] if top >= 0 else None

    # -- after the pass -------------------------------------------------

    def span_table(self):
        """Per span name: [calls, total_s, self_s]."""
        n = len(self.start)
        covered = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for k in range(n):
            p = parents[k]
            if p >= 0:
                covered[p] += ends[k] - starts[k]
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for k in range(n):
            row = table[self.names[self.name_id[k]]]
            dur = ends[k] - starts[k]
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered[k]
        return table

    def write(self, path: Path):
        """Write the spans: a JSON header line, then the four arrays raw."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [
                ["name_id", "i", self.name_id.itemsize],
                ["parent", "i", self.parent.itemsize],
                ["start", "d", self.start.itemsize],
                ["end", "d", self.end.itemsize],
            ],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(handle)


def _rebind(original, replacement, namespaces) -> int:
    """Point every attribute bound to `original` at `replacement`."""
    bound = 0
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)
                bound += 1
    return bound


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap the engine's public functions; returns bindings per span name.

    Every `fano_enriques` module already imported is searched, so a name
    imported into another module is traced as well.
    """
    from fano_enriques import catalog, cli, enumeration, gradedrings, hilbert, quotient
    from fano_enriques.series import BigradedSeries
    from fano_enriques.quotient import CoverRecord, Rejection

    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "fano_enriques" or name.startswith("fano_enriques."))
    ]
    counts = tracer.counts

    def after_mul(args, kwargs, result, exc, seconds):
        a, b = args
        if isinstance(b, BigradedSeries):
            n = min(a.trunc, b.trunc)
            counts["series.mul.coeff_pairs"] += a.r * a.r * (n + 1) * (n + 2) // 2

    def after_enumerate(args, kwargs, result, exc, seconds):
        if result is not None:
            counts["enumeration.enumerate_bt.baskets"] += len(result)
            if not result:
                counts["enumeration.enumerate_bt.empty_orders_s"] += seconds

    def after_infer(args, kwargs, result, exc, seconds):
        outcome = "failed" if exc is not None else result.status
        counts[f"gradedrings.infer_presentation.{outcome}"] += 1

    def after_match(args, kwargs, result, exc, seconds):
        if result is None:
            return
        outcome = result.reason if isinstance(result, Rejection) else "accepted"
        cover = args[0] if args else kwargs["cover"]
        counts[f"quotient.match_cover.{outcome}"] += 1
        counts[f"quotient.match_cover.codim{cover.codimension}.{outcome}"] += 1
        if tracer.open_span() == "quotient.search":
            counts["quotient.search.triples"] += 1
            if outcome == "accepted":
                counts["quotient.search.accepted"] += 1

    def after_bigraded(args, kwargs, result, exc, seconds):
        if tracer.open_span() == "quotient.search":
            counts["quotient.search.series_built"] += 1

    def after_search(args, kwargs, result, exc, seconds):
        if result is not None:
            counts["quotient.search.candidates"] += len(result)

    def enumerate_name(r, *args, **kwargs):
        return f"enumeration.enumerate_bt.r{r}"

    # (span name, namespace, attribute, after). A name the engine no longer
    # has is skipped and its layer reads 0, so a later refactor that removes
    # one still gets a traced run.
    targets = [
        ("hilbert.altinok_series", hilbert, "altinok_series", None),
        ("hilbert.torsion_delta_series", hilbert, "torsion_delta_series", None),
        ("hilbert.torsion_delta_at", hilbert, "torsion_delta_at", None),
        ("hilbert.bigraded_series", hilbert, "bigraded_series", after_bigraded),
        ("hilbert.model_series", hilbert, "wci_series", None),
        ("hilbert.model_series", hilbert, "pfaffian_series", None),
        (enumerate_name, enumeration, "enumerate_bt", after_enumerate),
        ("enumeration.canonicalize", enumeration, "canonicalize", None),
        ("gradedrings.infer_presentation", gradedrings, "infer_presentation", after_infer),
        ("quotient.match_cover", quotient, "match_cover", after_match),
        ("quotient.search", quotient, "search", after_search),
        ("catalog.load", catalog, "load_catalog", None),
        ("catalog.load", catalog, "bundled_catalog", None),
        ("catalog.verify_fixtures", catalog, "verify_fixtures", None),
        ("cli.main", cli, "main", None),
        ("series.init", BigradedSeries, "__init__", None),
        ("series.mul", BigradedSeries, "__mul__", after_mul),
        ("series.peel", BigradedSeries, "peel", None),
        ("series.divide_factor", BigradedSeries, "divide_factor", None),
        ("quotient.cover_validate", CoverRecord, "validate", None),
    ]

    bindings: Counter = Counter()
    for name, home, attr, after in targets:
        label = name if isinstance(name, str) else "enumeration.enumerate_bt"
        fn = vars(home).get(attr)
        if fn is None:
            bindings[label] += 0
            continue
        # methods are rebound on their class only; functions wherever imported
        namespaces = [home] if isinstance(home, type) else modules
        bindings[label] += _rebind(fn, tracer.wrap(name, fn, after), namespaces)
    return dict(bindings)


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the run-level ones)."""
    table = tracer.span_table()
    counts = tracer.counts
    out: dict[str, float] = {}

    def span(metric_prefix, span_name):
        calls, _, self_s = table.get(span_name, (0, 0.0, 0.0))
        out[f"{metric_prefix}.calls"] = calls
        out[f"{metric_prefix}.self_s"] = self_s

    for layer in ("series.mul", "series.init", "series.peel", "series.divide_factor"):
        span(layer, layer)
    out["series.mul.coeff_pairs"] = counts["series.mul.coeff_pairs"]
    for fn in (
        "altinok_series",
        "torsion_delta_series",
        "torsion_delta_at",
        "bigraded_series",
        "model_series",
    ):
        span(f"hilbert.{fn}", f"hilbert.{fn}")

    enum_calls, enum_self = 0, 0.0
    for r in ORDERS:
        calls, _, self_s = table.get(f"enumeration.enumerate_bt.r{r}", (0, 0.0, 0.0))
        out[f"enumeration.enumerate_bt.r{r}.self_s"] = self_s
        enum_calls += calls
        enum_self += self_s
    out["enumeration.enumerate_bt.calls"] = enum_calls
    out["enumeration.enumerate_bt.self_s"] = enum_self
    out["enumeration.enumerate_bt.baskets"] = counts["enumeration.enumerate_bt.baskets"]
    out["enumeration.enumerate_bt.empty_orders_s"] = counts[
        "enumeration.enumerate_bt.empty_orders_s"
    ]
    canon = table.get("enumeration.canonicalize", (0, 0.0, 0.0))[0]
    out["enumeration.canonicalize.calls"] = canon
    out["enumeration.yield"] = out["enumeration.enumerate_bt.baskets"] / canon if canon else 0.0

    span("gradedrings.infer_presentation", "gradedrings.infer_presentation")
    for outcome in INFERENCE_OUTCOMES:
        key = f"gradedrings.infer_presentation.{outcome}"
        out[key] = counts[key]

    span("quotient.match_cover", "quotient.match_cover")
    for outcome in ("accepted",) + MATCH_REASONS:
        out[f"quotient.match_cover.{outcome}"] = counts[f"quotient.match_cover.{outcome}"]
        for c in CODIMS:
            key = f"quotient.match_cover.codim{c}.{outcome}"
            out[key] = counts[key]
    span("quotient.search", "quotient.search")
    out["quotient.search.candidates"] = counts["quotient.search.candidates"]
    out["quotient.search.dedup_hits"] = (
        counts["quotient.search.accepted"] - counts["quotient.search.series_built"]
    )
    triples = counts["quotient.search.triples"]
    out["quotient.search.useful_ratio"] = (
        out["quotient.search.candidates"] / triples if triples else 0.0
    )
    span("quotient.cover_validate", "quotient.cover_validate")
    span("catalog.load", "catalog.load")
    out["catalog.verify_fixtures.self_s"] = table.get(
        "catalog.verify_fixtures", (0, 0.0, 0.0)
    )[2]
    out["cli.main.self_s"] = table.get("cli.main", (0, 0.0, 0.0))[2]
    out["trace.spans"] = len(tracer.start)
    return out
