"""Directly-follows graphs with impact-annotated nodes.

Each object induces one trace: its related events sorted by (timestamp,
event id). Consecutive activities within a trace become edges; activity
types become nodes carrying event counts and, after annotation, the
post-allocation scoped impact totals of that activity type. Object-
centric divergence/convergence artifacts of this flattening are a known
limitation — the graph is a reporting view, not a discovery result.

Emission to DOT is byte-deterministic: nodes and edges are sorted, and
label numbers use a fixed shortest-form rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LogMismatchError
from .model import ComponentKind, EventLog
from .scoping import ScopedVector, collapse_scopes


@dataclass
class DFGNode:
    activity: str
    event_count: int
    vector: ScopedVector = field(default_factory=dict)


@dataclass
class AnnotatedDFG:
    log_digest: str
    nodes: dict[str, DFGNode] = field(default_factory=dict)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)


def build_dfg(log: EventLog) -> AnnotatedDFG:
    """Graph skeleton: every declared or occurring activity type becomes a
    node (so objectless events and a lenient load's undeclared activities
    still appear); one trace per object yields edges."""
    dfg = AnnotatedDFG(log_digest=log.digest())
    counts = log.member_counts(ComponentKind.ACTIVITY_TYPE)
    for activity in sorted(log.activity_types | counts.keys()):
        dfg.nodes[activity] = DFGNode(activity, counts.get(activity, 0))
    for obj in log.objects:
        trace = sorted(log.events_related_to(obj.object_id), key=lambda e: (e.timestamp, e.event_id))
        for prev, nxt in zip(trace, trace[1:]):
            edge = (prev.activity, nxt.activity)
            dfg.edges[edge] = dfg.edges.get(edge, 0) + 1
    return dfg


def annotate_dfg(
    dfg: AnnotatedDFG,
    activity_vectors: dict[str, ScopedVector],
    results_digest: str,
) -> AnnotatedDFG:
    """Attach per-activity-type scoped impact vectors to the nodes.

    ``results_digest`` must be the digest of the log the pipeline ran on;
    annotating a graph from a different log raises
    :class:`LogMismatchError`.
    """
    if results_digest != dfg.log_digest:
        raise LogMismatchError(
            f"pipeline results stem from log {results_digest[:12]}…, "
            f"graph from log {dfg.log_digest[:12]}…"
        )
    for activity, node in dfg.nodes.items():
        node.vector = dict(activity_vectors.get(activity, {}))
    return dfg


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _quote(text: str) -> str:
    return '"' + _escape(text) + '"'


def format_amount(x: float) -> str:
    """Fixed shortest-form number rendering for labels ('5', '0.25')."""
    return format(x, ".6g")


def emit_dot(dfg: AnnotatedDFG) -> str:
    """Render the graph as a Graphviz digraph; byte-deterministic."""
    lines = ["digraph {"]
    for activity in sorted(dfg.nodes):
        node = dfg.nodes[activity]
        label_parts = [activity, f"events: {node.event_count}"]
        for category, q in collapse_scopes(node.vector).items():
            label_parts.append(f"{category}: {format_amount(q.amount)} {q.unit}")
        label = "\\n".join(_escape(part) for part in label_parts)
        lines.append(f'  {_quote(activity)} [shape=box, label="{label}"];')
    for (src, dst), freq in sorted(dfg.edges.items()):
        lines.append(f"  {_quote(src)} -> {_quote(dst)} [label={_quote(str(freq))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
