"""Outside-in tracing of the `nwidth` layers.

The package is not changed: `install` replaces each traced public
function by a wrapper at every module attribute that holds it.  That
matters because `cli`, `nwidths` and `convergence` import `assemble`,
`top_eigenvalues`, `top_eigenpairs` and `rows_from_eigenvalues` by
name, and `nystrom` imports `kernel_column`; a wrapper on the defining
module alone would see none of the CLI's calls.

Spans (name, start, end, parent) are kept in memory and summarised at
the end.  Assembly may call `kernel_column` from worker threads; a span
opened on a thread with no open span of its own takes the main thread's
innermost open span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

ROOT = "cli.main"
EMIT = "cli.emit"


@dataclass
class Span:
    ident: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


def _count_assemble(counts, system):
    m = system.matrix.shape[0]
    counts["nystrom.entries"] += m * (m + 1) // 2
    counts["nystrom.matrix_mb"] = max(counts["nystrom.matrix_mb"], 8 * m * m / 2**20)


def _count_values(counts, values):
    counts["eigensolver.values_count"] += len(values)


def _count_rows(counts, rows):
    counts["nwidths.rows"] += len(rows)
    counts["nwidths.flagged"] += sum(1 for row in rows if row.flag)


def _count_knots(counts, report):
    counts["knots.reports"] += 1
    counts["knots.zeros"] += len(report.zeros)


#: (defining module, function, span name, result hook)
TRACED = (
    ("nwidth.kernel", "kernel_column", "kernel.column", None),
    ("nwidth.nystrom", "assemble", "nystrom.assemble", _count_assemble),
    ("nwidth.eigensolver", "top_eigenvalues", "eigensolver.values", _count_values),
    ("nwidth.eigensolver", "top_eigenpairs", "eigensolver.pairs", None),
    ("nwidth.nwidths", "rows_from_eigenvalues", "nwidths.rows", _count_rows),
    ("nwidth.nwidths", "nwidth_rows", "nwidths.pipeline", None),
    ("nwidth.nwidths", "conjecture_table", "nwidths.pipeline", None),
    ("nwidth.convergence", "run_study", "convergence.study", None),
    ("nwidth.knots", "extract_knots", "knots.extract", _count_knots),
    ("nwidth.nwidths", "results_csv", EMIT, None),
    ("nwidth.nwidths", "results_records", EMIT, None),
    ("nwidth.knots", "knots_csv", EMIT, None),
    ("nwidth.knots", "curve_csv", EMIT, None),
    ("nwidth.convergence", "points_csv", EMIT, None),
    ("nwidth.convergence", "summary_csv", EMIT, None),
)

#: Every per-layer metric `summarize` reports, with its unit.
LAYER_UNITS = {
    "kernel.column_s": "s",
    "kernel.columns": "count",
    "nystrom.assemble_s": "s",
    "nystrom.assemble_calls": "count",
    "nystrom.entries": "count",
    "nystrom.matrix_mb": "MiB",
    "eigensolver.values_s": "s",
    "eigensolver.values_calls": "count",
    "eigensolver.values_count": "count",
    "eigensolver.pairs_s": "s",
    "eigensolver.pairs_calls": "count",
    "eigensolver.errors": "count",
    "nwidths.rows": "count",
    "nwidths.flagged": "count",
    "nwidths.self_s": "s",
    "convergence.self_s": "s",
    "convergence.solves": "count",
    "knots.extract_s": "s",
    "knots.zeros": "count",
    "knots.ok_ratio": "ratio",
    "cli.self_s": "s",
    "cli.emit_s": "s",
    "cli.bytes_out": "bytes",
    "trace.coverage": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(next(self._ids), parent, name, time.perf_counter())
        stack.append(span.ident)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str, hook=None):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                self.close(span)
            if hook is not None:
                hook(counts, result)
            return result

        return traced


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every function of TRACED wherever a `nwidth` module binds it.

    Returns how many module attributes were rebound per function.
    """
    modules = [mod for name, mod in sys.modules.items()
               if (name == "nwidth" or name.startswith("nwidth.")) and mod is not None]
    rebound = {}
    for module_name, attr, span_name, hook in TRACED:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(original, span_name, hook)
        hits = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    hits += 1
        rebound[f"{module_name}.{attr}"] = hits
    return rebound


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [(max(s, span.start), min(e, span.end)) for s, e in children.get(span.ident, ())]
        out[span.ident] = (span.end - span.start) - _covered([c for c in clipped if c[1] > c[0]])
    return out


def summarize(tracer: Tracer, wall_s: float, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose invocations took wall_s in total.

    `*_s` of kernel, nystrom, eigensolver, knots and cli.emit are inclusive
    span time summed over calls (and over threads for kernel columns);
    `nwidths.self_s`, `convergence.self_s` and `cli.self_s` are self time.
    trace.coverage is the share of wall_s covered by the layer spans
    directly below the cli.main roots.
    """
    spans = tracer.spans
    counts = tracer.counts
    by_id = {span.ident: span for span in spans}
    own = self_times(spans)
    total = defaultdict(float)
    calls = Counter()
    selft = defaultdict(float)
    for span in spans:
        total[span.name] += span.end - span.start
        calls[span.name] += 1
        selft[span.name] += own[span.ident]

    def under(span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == name:
                return True
            parent = by_id[parent].parent
        return False

    solves = sum(1 for s in spans
                 if s.name in ("eigensolver.values", "eigensolver.pairs") and under(s, "convergence.study"))
    attempts = calls["knots.extract"]
    covered = total[ROOT] - selft[ROOT]
    metrics = {
        "kernel.column_s": total["kernel.column"],
        "kernel.columns": calls["kernel.column"],
        "nystrom.assemble_s": total["nystrom.assemble"],
        "nystrom.assemble_calls": calls["nystrom.assemble"],
        "nystrom.entries": counts["nystrom.entries"],
        "nystrom.matrix_mb": counts["nystrom.matrix_mb"],
        "eigensolver.values_s": total["eigensolver.values"],
        "eigensolver.values_calls": calls["eigensolver.values"],
        "eigensolver.values_count": counts["eigensolver.values_count"],
        "eigensolver.pairs_s": total["eigensolver.pairs"],
        "eigensolver.pairs_calls": calls["eigensolver.pairs"],
        "eigensolver.errors": counts["eigensolver.values.errors"] + counts["eigensolver.pairs.errors"],
        "nwidths.rows": counts["nwidths.rows"],
        "nwidths.flagged": counts["nwidths.flagged"],
        "nwidths.self_s": selft["nwidths.rows"] + selft["nwidths.pipeline"],
        "convergence.self_s": selft["convergence.study"],
        "convergence.solves": solves,
        "knots.extract_s": total["knots.extract"],
        "knots.zeros": counts["knots.zeros"],
        # 1 when no extraction was attempted: nothing was wasted
        "knots.ok_ratio": counts["knots.reports"] / attempts if attempts else 1.0,
        "cli.self_s": selft[ROOT],
        "cli.emit_s": total[EMIT],
        "cli.bytes_out": bytes_out,
        "trace.coverage": covered / wall_s if wall_s > 0 else 0.0,
    }
    return metrics
