"""Spans around the benchmark's calls into the package, and the per-layer
metrics derived from them.

A span is recorded by the benchmark itself at the boundary of one
public call into one package module; spans inside the package are not
recorded. Each span carries the id of the op that caused it, so the spans
of one op share an identifier. Spans stay in memory until the run ends.
"""

import json
from collections import Counter
from time import perf_counter

MODULES = ("codes", "graph", "constructions", "counting", "tables", "cli")

# Per-layer time metrics: "<module>.<kind>_s" sums the spans of that kind.
TIMED_KINDS = {
    "codes": ("expand", "values", "verify", "falsify", "write", "read", "oracle"),
    "graph": ("build", "certificate", "search", "canonical"),
    "constructions": ("mmin", "doubling", "zero_block", "gl"),
    "counting": ("fib", "spaced", "bounds"),
    "tables": ("reproduce",),
    "cli": ("busy",),
}
COUNTS = (
    "codes.verify_words", "codes.io_words", "codes.oracle_calls",
    "codes.refusals", "graph.refusals", "constructions.refusals",
    "graph.build_calls", "graph.search_calls",
    "constructions.calls", "counting.calls",
    "tables.cells", "cli.calls", "cli.bytes_out",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_ratio")):
        return "ratio"
    return "B" if name.endswith("bytes_out") else "count"


class Tracer:
    """Records a span per call into the package when enabled; otherwise
    calls straight through."""

    def __init__(self, enabled: bool, refusal_type: type):
        self.enabled = enabled
        self.refusal_type = refusal_type
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.mismatch_cells: set = set()
        self.op_id = 0
        self.ops: list[tuple] = []  # (op_id, kind, start, end, ok)

    def call(self, module: str, kind: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        outcome = "error"
        try:
            result = fn(*args, **kwargs)
            outcome = "ok"
            return result
        except self.refusal_type:
            outcome = "refused"
            raise
        finally:
            self.spans.append(
                (self.op_id, module, kind, start, perf_counter(), outcome)
            )

    def count(self, name: str, n: int = 1):
        if self.enabled:
            self.counts[name] += n

    def layer_metrics(self, wall_s: float, overhead_s: float) -> dict:
        busy = {(m, k): 0.0 for m in MODULES for k in TIMED_KINDS[m]}
        counts = Counter(self.counts)
        for _, module, kind, start, end, outcome in self.spans:
            busy[module, kind] += end - start
            if outcome == "refused":
                counts[f"{module}.refusals"] += 1
        out = {}
        for (module, kind), seconds in busy.items():
            out[f"{module}.{kind}_s"] = (seconds, "s")
        for name in COUNTS:
            out[name] = (counts[name], layer_unit(name))
        searches = counts["graph.search_calls"]
        out["graph.optimal_ratio"] = (
            counts["graph.optimal"] / searches if searches else 0.0, "ratio"
        )
        out["tables.cells_known_mismatch"] = (len(self.mismatch_cells), "count")
        for module in MODULES:
            module_busy = sum(s for (m, _), s in busy.items() if m == module)
            out[f"{module}.share"] = (module_busy / wall_s, "ratio")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for op_id, kind, start, end, ok in self.ops:
                fh.write(json.dumps({
                    "op": op_id, "name": f"op.{kind}", "start": start,
                    "end": end, "outcome": "ok" if ok else "failed",
                }) + "\n")
            for op_id, module, kind, start, end, outcome in self.spans:
                fh.write(json.dumps({
                    "op": op_id, "name": f"{module}.{kind}", "start": start,
                    "end": end, "outcome": outcome,
                }) + "\n")
