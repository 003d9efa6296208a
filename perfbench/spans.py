"""In-memory spans around the public functions each susmine layer exposes.

:func:`install` replaces each binding in :data:`BINDINGS` with a wrapper
that records one span per call: name, start, end and enclosing span. The
binding wrapped is the one the caller looks up (``susmine.pipeline.build_dfg``,
not ``susmine.dfg.build_dfg``), so every call the pipeline makes is seen.
A binding that no longer exists raises at install time, so a rename cannot
silently drop a layer from the trace.
"""

from __future__ import annotations

import functools
import importlib
import time

#: (span name, module, attribute the caller looks up; "Class.method" for methods)
BINDINGS = (
    ("cli.main", "susmine.cli", "main"),
    ("cli.build_parser", "susmine.cli", "build_parser"),
    ("ocel.parse_ocel", "susmine.cli", "parse_ocel"),
    ("annotations.parse_annotations", "susmine.cli", "parse_annotations"),
    ("annotations.bind_annotations", "susmine.pipeline", "bind_annotations"),
    ("inventory.direct_inventory", "susmine.pipeline", "direct_inventory"),
    ("inventory.direct_inventory", "susmine.scoping", "direct_inventory"),
    ("scoping.scoped_impacts", "susmine.pipeline", "scoped_impacts"),
    ("impact.characterize", "susmine.scoping", "characterize"),
    ("annotations.entries_for_flow", "susmine.annotations", "CharacterizationTable.entries_for_flow"),
    ("allocation.apply_allocations", "susmine.pipeline", "apply_allocations"),
    ("audit.pattern_audit", "susmine.pipeline", "pattern_audit"),
    ("dfg.build_dfg", "susmine.pipeline", "build_dfg"),
    ("model.events_related_to", "susmine.model", "EventLog.events_related_to"),
    ("model.digest", "susmine.model", "EventLog.digest"),
    ("pipeline.activity_type_totals", "susmine.pipeline", "activity_type_totals"),
    ("inventory.rollup_inventory", "susmine.pipeline", "rollup_inventory"),
    ("report.write_outputs", "susmine.cli", "write_outputs"),
    ("report.render_report", "susmine.report", "render_report"),
    ("report.build_report", "susmine.report", "build_report"),
    ("report.inventory_to_csv", "susmine.report", "inventory_to_csv"),
    ("report.impact_csv", "susmine.report", "impact_csv"),
    ("report.scoped_impact_csv", "susmine.report", "scoped_impact_csv"),
    ("report.ledger_csv", "susmine.report", "ledger_csv"),
    ("dfg.emit_dot", "susmine.dfg", "emit_dot"),
)

#: span name -> (count name, size of the wrapped call's result)
COUNTS = {
    "ocel.parse_ocel": ("ocel.relations", lambda log: len(log.relations)),
    "annotations.bind_annotations": ("annotations.resolved", lambda al: len(al.resolved)),
    "allocation.apply_allocations": ("allocation.ledger_entries", lambda result: len(result[1].entries)),
}

#: The span every ``assess`` call starts in; time in it that no child
#: span covers is the trace's unaccounted share.
ROOT = "cli.main"


class Recorder:
    """Spans as ``[name index, start, end, parent index or -1]``, in call order."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)
        count_name, measure = COUNTS.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_index, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._stack.pop()
            if count_name is not None:
                self.counts[count_name] = self.counts.get(count_name, 0) + measure(result)
            return result

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every binding in :data:`BINDINGS`; raises LookupError for one
    that no longer exists."""
    for name, module_name, attribute in BINDINGS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, leaf, None)):
            raise LookupError(f"traced binding {module_name}.{attribute} no longer exists")
        setattr(owner, leaf, recorder.wrap(name, getattr(owner, leaf)))


def self_times(names: list[str], spans: list[list]) -> dict[str, tuple[float, int]]:
    """Per span name: (total self time, number of calls).

    Self time is a span's duration minus the durations of its direct
    children; the wrapped code is single-threaded, so children never
    overlap and the self times of one tree sum to its root's duration.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for (name_index, start, end, _), children in zip(spans, child_time):
        total, calls = out.get(names[name_index], (0.0, 0))
        out[names[name_index]] = (total + (end - start) - children, calls + 1)
    return out


def root_time(names: list[str], spans: list[list]) -> float:
    """Summed duration of the :data:`ROOT` spans."""
    return sum(end - start for name_index, start, end, parent in spans
               if parent < 0 and names[name_index] == ROOT)
