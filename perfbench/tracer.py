"""Per-layer spans and counters, recorded by wrapping public functions.

Nothing in ``src/`` is instrumented: while a :class:`LayerTracer` is
recording, the layers' public methods and module functions listed in
:data:`SPANS` are replaced by timing wrappers, and restored afterwards.
Module functions are wrapped in the module that calls them, because
``executor.py`` and ``analyzer.py`` import ``load_build_graph`` by name.

Each span keeps its name, start, end, parent span and the id of the run
(one traced drive of one cell) it belongs to.  A span's *self time* is
its duration minus the time its child spans cover.  Spans stay in memory
and are written at exit as Chrome trace JSON, which Perfetto opens.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Tuple

import repro.buildsys.executor as executor_module
import repro.conflict.analyzer as analyzer_module
from repro.buildsys.executor import BuildContext, BuildExecutor
from repro.buildsys.hashing import TargetHasher
from repro.conflict.analyzer import ConflictAnalyzer
from repro.conflict.conflict_graph import ConflictGraph
from repro.journal.sink import JournalWriter
from repro.planner.planner import PlannerEngine
from repro.service.core import CoreService
from repro.speculation.engine import SpeculationEngine
from repro.vcs.patch import Patch, SnapshotOverlay
from repro.vcs.repository import Repository

#: ``(owner, attribute, span name)``; the span name's first component is
#: the layer.
SPANS = (
    (CoreService, "submit", "service.submit"),
    (CoreService, "pump", "service.pump"),
    (PlannerEngine, "plan", "planner.plan"),
    (PlannerEngine, "complete", "planner.complete"),
    (SpeculationEngine, "select_builds", "speculation.select_builds"),
    (ConflictAnalyzer, "conflict", "conflict.conflict"),
    (ConflictAnalyzer, "analyze", "conflict.analyze"),
    (ConflictAnalyzer, "advance_base", "conflict.advance_base"),
    (ConflictGraph, "add", "conflict.graph_add"),
    (TargetHasher, "all_hashes", "buildsys.hash"),
    (TargetHasher, "hash_of", "buildsys.hash"),
    (BuildContext, "derive", "buildsys.derive"),
    (BuildExecutor, "build_between", "buildsys.build_between"),
    (executor_module, "load_build_graph", "buildsys.load_graph"),
    (analyzer_module, "load_build_graph", "buildsys.load_graph"),
    (Repository, "commit_to_mainline", "vcs.commit"),
    (Patch, "apply", "vcs.patch_apply"),
    (JournalWriter, "append", "journal.append"),
    (JournalWriter, "maybe_snapshot", "journal.snapshot"),
)

LAYERS = ("service", "planner", "speculation", "conflict", "buildsys", "vcs", "journal")

#: ``(span id, name, start, end, parent span id or -1, run id)``.
Span = Tuple[int, str, float, float, int, int]


class LayerTracer:
    """Spans plus count-only probes for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        #: Time covered by spans with no parent, per run id.
        self.covered_s: Dict[int, float] = defaultdict(float)
        self.run_labels: Dict[int, str] = {}
        self.overlay_lookups = 0
        self.overlay_hops = 0
        self.steps_executed = 0
        self.steps_cached = 0
        self._stack: List[list] = []
        self._next_span = 0
        self._run_id = -1

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                if parent is None:
                    tracer.covered_s[tracer._run_id] += duration
                    parent_id = -1
                else:
                    parent[1] += duration
                    parent_id = parent[0]
                tracer.spans.append(
                    (span_id, name, start, end, parent_id, tracer._run_id)
                )

        wrapper.__wrapped__ = fn
        return wrapper

    def _overlay_probes(self):
        """Count top-level overlay lookups and the layers each one visits."""
        tracer = self
        getitem = SnapshotOverlay.__getitem__
        get = SnapshotOverlay.get
        depth = [0]

        def probed_getitem(overlay, path):
            tracer.overlay_hops += 1
            if depth[0] == 0:
                tracer.overlay_lookups += 1
            depth[0] += 1
            try:
                return getitem(overlay, path)
            finally:
                depth[0] -= 1

        def probed_get(overlay, path, default=None):
            if depth[0] == 0:
                tracer.overlay_lookups += 1
            depth[0] += 1
            try:
                return get(overlay, path, default)
            finally:
                depth[0] -= 1

        return (
            (SnapshotOverlay, "__getitem__", probed_getitem),
            (SnapshotOverlay, "get", probed_get),
        )

    def _report_probe(self):
        tracer = self
        record = BuildExecutor.record_report

        def probed_record(executor, report):
            tracer.steps_executed += report.steps_executed
            tracer.steps_cached += report.steps_cached
            return record(executor, report)

        return ((BuildExecutor, "record_report", probed_record),)

    @contextlib.contextmanager
    def recording(self, label: str) -> Iterator[None]:
        """Install every wrapper for one run, then restore the originals."""
        self._run_id += 1
        self.run_labels[self._run_id] = label
        patches = [
            (owner, attr, self._span(name, getattr(owner, attr)))
            for owner, attr, name in SPANS
        ]
        patches.extend(self._overlay_probes())
        patches.extend(self._report_probe())
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
            self._stack.clear()

    # -- reporting --------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def table(self, wall_s: float) -> str:
        """Per-span and per-layer self time, as a printable table."""
        lines = [f"{'span':<28}{'calls':>10}{'total_s':>10}{'self_s':>10}{'self%':>7}"]
        for name in sorted(self.self_s, key=self.self_s.get, reverse=True):
            lines.append(
                f"{name:<28}{self.calls[name]:>10}{self.total_s[name]:>10.3f}"
                f"{self.self_s[name]:>10.3f}{100 * self.self_s[name] / wall_s:>6.1f}%"
            )
        lines.append("")
        lines.append(f"{'layer':<28}{'self_s':>10}{'self%':>7}")
        for layer, seconds in sorted(
            self.layer_self_s().items(), key=lambda item: item[1], reverse=True
        ):
            lines.append(f"{layer:<28}{seconds:>10.3f}{100 * seconds / wall_s:>6.1f}%")
        return "\n".join(lines)

    def write_chrome_trace(self, path: str, max_spans: int) -> int:
        """Write whole runs' spans, oldest run first, up to ``max_spans``.

        Returns the number of runs written.
        """
        by_run: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            by_run[span[5]].append(span)
        events: List[dict] = []
        written = 0
        origin = min((span[2] for span in self.spans), default=0.0)
        for run_id in sorted(by_run):
            spans = by_run[run_id]
            if written and len(events) + len(spans) > max_spans:
                break
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": run_id,
                    "args": {"name": self.run_labels[run_id]},
                }
            )
            for span_id, name, start, end, parent, _ in spans:
                events.append(
                    {
                        "name": name,
                        "cat": name.split(".", 1)[0],
                        "ph": "X",
                        "ts": (start - origin) * 1e6,
                        "dur": (end - start) * 1e6,
                        "pid": 1,
                        "tid": run_id,
                        "args": {"span": span_id, "parent": parent, "run": run_id},
                    }
                )
            written += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return written
