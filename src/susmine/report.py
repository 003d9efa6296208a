"""Report emission: the JSON report plus its CSV and DOT projections.

The JSON document (``"schema": "susmine-report/1"``) is the single
machine-readable artifact; every CSV is a projection of it. All output is
byte-deterministic for identical inputs: keys are sorted, rows are sorted,
and nothing time- or environment-dependent is embedded.

Exact decimal amounts (inventory stage) are serialized as strings to
preserve their digits; impact amounts are JSON numbers. ``report.json``
is written by a one-pass emitter that reproduces
``json.dumps(indent=2, sort_keys=True)`` byte for byte, without falling
back to ``json``'s pure-Python encoder as any ``indent`` does.
"""

from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .errors import NonFiniteImpactError
from .model import ComponentRef, Quantity
from .impact import classify_impacts
from .inventory import INVENTORY_COLUMNS, InvKey, inventory_row, inventory_to_csv
from .ocel import log_summary
from .pipeline import PipelineResult
from .scoping import ScopedVector, collapse_scopes, unscoped_share

REPORT_SCHEMA_ID = "susmine-report/1"

#: Files written by a full assessment, in a fixed layout.
OUTPUT_FILES = (
    "report.json",
    "inventory.csv",
    "impacts.csv",
    "impacts_scoped.csv",
    "ledger.csv",
    "dfg.dot",
)


def _component_obj(ref: ComponentRef) -> dict:
    return {"kind": ref.kind.value, "id": ref.id}


def _inventory_entries(entries: list[tuple[InvKey, Quantity]]) -> list[dict]:
    return [dict(zip(INVENTORY_COLUMNS, inventory_row(key, q))) for key, q in entries]


def _scoped_obj(sv: ScopedVector) -> dict:
    out: dict = {}
    for (category, scope), q in sorted(sv.items()):
        out.setdefault(category, {})[scope] = {"amount": q.amount, "unit": q.unit}
    return out


def build_report(result: PipelineResult) -> dict:
    al = result.al
    summary = log_summary(al.log)
    totals = result.totals
    category_totals = collapse_scopes(totals)
    by_class = classify_impacts(category_totals, al.table)

    by_scope = _scoped_obj(totals)
    process_totals = {
        category: {
            "class": al.table.categories[category].impact_class.value,
            "total": {"amount": q.amount, "unit": q.unit},
            "by_scope": by_scope[category],
        }
        for category, q in category_totals.items()
    }

    report = {
        "schema": REPORT_SCHEMA_ID,
        "mode": result.mode.value,
        "log": {
            "digest": al.log.digest(),
            "event_count": summary.event_count,
            "object_count": summary.object_count,
            "per_activity": summary.per_activity,
            "per_object_type": summary.per_object_type,
        },
        "scope_set": {"name": al.scope_set.name, "scopes": list(al.scope_set.scopes)},
        "inventory": {
            "entries": _inventory_entries(result.inventory.sorted_entries()),
            "negative_entries": _inventory_entries(result.inventory.negative_entries()),
        },
        "impacts": {
            "components": [
                {"component": _component_obj(ref), "impacts": _scoped_obj(sv)}
                for ref, sv in result.post_allocation.items()
                if sv
            ],
            "process_totals": process_totals,
            "class_totals": {
                cls.value: {cat: {"amount": q.amount, "unit": q.unit} for cat, q in sorted(vec.items())}
                for cls, vec in by_class.items()
            },
        },
        "unscoped_share": unscoped_share(totals),
        "uncharacterized_flows": [
            {"flow": f, "unit": u, "direction": d} for (f, u, d) in result.uncharacterized
        ],
        "allocation": {
            "entries": [
                {
                    "source": _component_obj(e.source),
                    "target": _component_obj(e.target),
                    "category": e.category,
                    "scope": e.scope,
                    "amount": e.amount,
                    "weight": e.weight,
                }
                for e in result.ledger.entries
            ],
            "residuals": [
                {
                    "component": _component_obj(ref),
                    "impacts": _scoped_obj(sv),
                }
                for ref, sv in sorted(result.ledger.residuals.items())
            ],
            "warnings": list(result.ledger.warnings),
        },
        "audit": {col: level.value for col, level in result.audit_row.items()},
        "functional_unit": None,
    }

    if result.fu is not None:
        scale = float(result.fu_scale)
        per_fu: ScopedVector = {}
        for (category, scope), q in totals.items():
            amount = q.amount * scale
            if not math.isfinite(amount):
                raise NonFiniteImpactError(
                    f"impact per functional unit in category '{category}', scope '{scope}' "
                    f"overflows a float ({q.amount} {q.unit} x scale {result.fu_scale})"
                )
            per_fu[category, scope] = Quantity(amount, q.unit)
        report["functional_unit"] = {
            "object_type": result.fu.object_type,
            "reference": {"amount": str(result.fu.reference.amount), "unit": result.fu.reference.unit},
            "measured_attribute": result.fu.measured_attribute,
            "measured_output": str(result.fu_output),
            "scale_factor": str(result.fu_scale),
            "inventory_per_fu": _inventory_entries(result.fu_inventory.sorted_entries()),
            "impacts_per_fu": _scoped_obj(per_fu),
        }
    return report


class _Newlines(dict):
    """Newline plus indent per nesting depth: a table covering any report,
    deeper levels built on each use."""

    def __missing__(self, depth: int) -> str:
        return "\n" + "  " * depth


_NEWLINES = _Newlines((depth, "\n" + "  " * depth) for depth in range(12))
_LITERALS = {None: "null", True: "true", False: "false"}


def _non_finite(value: float) -> ValueError:
    return ValueError(f"out of range float {value!r} is not JSON compliant")


def _emit(value, depth: int, append) -> None:
    """Append the JSON text of ``value`` at nesting ``depth`` with the rules of
    ``json.dumps(indent=2, sort_keys=True)``: sorted keys, ASCII escapes,
    ``float.__repr__``, ``{}``/``[]`` when empty. Only the types
    :func:`build_report` produces are accepted (exact dict with str keys,
    list, str, float, int, bool, None); anything else raises ``TypeError``,
    and a non-finite float raises ``ValueError``."""
    kind = type(value)
    if kind is dict:
        if not value:
            append("{}")
            return
        inner = _NEWLINES[depth + 1]
        separator = "," + inner
        lead = "{" + inner
        # _quote raises TypeError for a key that is not a str; leaf strings
        # and floats, most of a report, are written inline
        for key in sorted(value):
            item = value[key]
            item_kind = type(item)
            if item_kind is str:
                append(f"{lead}{_quote(key)}: {_quote(item)}")
            elif item_kind is float:
                if item - item:  # nan for inf and nan
                    raise _non_finite(item)
                append(f"{lead}{_quote(key)}: {float.__repr__(item)}")
            else:
                append(f"{lead}{_quote(key)}: ")
                _emit(item, depth + 1, append)
            lead = separator
        append(_NEWLINES[depth] + "}")
    elif kind is list:
        if not value:
            append("[]")
            return
        inner = _NEWLINES[depth + 1]
        separator = "," + inner
        lead = "[" + inner
        for item in value:
            append(lead)
            _emit(item, depth + 1, append)
            lead = separator
        append(_NEWLINES[depth] + "]")
    elif kind is str:
        append(_quote(value))
    elif kind is float:
        if value - value:
            raise _non_finite(value)
        append(float.__repr__(value))
    elif kind is int:
        append(int.__repr__(value))
    elif value is None or kind is bool:
        append(_LITERALS[value])
    else:
        raise TypeError(f"{kind.__name__} is not a report value")


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` in one pass."""
    parts: list[str] = []
    _emit(value, 0, parts.append)
    return "".join(parts)


def render_report(result: PipelineResult) -> str:
    return _dumps(build_report(result)) + "\n"


def _csv_writer(out: io.StringIO) -> "csv.writer":
    return csv.writer(out, lineterminator="\n")


def impact_csv(result: PipelineResult) -> str:
    """Post-allocation per-component impacts, collapsed over scopes."""
    out = io.StringIO()
    writer = _csv_writer(out)
    writer.writerow(["component_kind", "component_id", "category", "class", "amount", "impact_unit"])
    for ref, sv in result.post_allocation.items():
        for category, q in sorted(collapse_scopes(sv).items()):
            info = result.al.table.categories[category]
            writer.writerow([
                ref.kind.value, ref.id or "", category, info.impact_class.value,
                repr(q.amount), q.unit,
            ])
    return out.getvalue()


def scoped_impact_csv(result: PipelineResult) -> str:
    """As :func:`impact_csv` plus a scope column."""
    out = io.StringIO()
    writer = _csv_writer(out)
    writer.writerow(["component_kind", "component_id", "category", "class", "scope", "amount", "impact_unit"])
    for ref, sv in result.post_allocation.items():
        for (category, scope), q in sorted(sv.items()):
            info = result.al.table.categories[category]
            writer.writerow([
                ref.kind.value, ref.id or "", category, info.impact_class.value, scope,
                repr(q.amount), q.unit,
            ])
    return out.getvalue()


def ledger_csv(result: PipelineResult) -> str:
    out = io.StringIO()
    writer = _csv_writer(out)
    writer.writerow([
        "source_kind", "source_id", "target_kind", "target_id",
        "category", "scope", "amount", "weight",
    ])
    for e in result.ledger.entries:
        writer.writerow([
            e.source.kind.value, e.source.id or "",
            e.target.kind.value, e.target.id or "",
            e.category, e.scope, repr(e.amount), repr(e.weight),
        ])
    return out.getvalue()


def write_outputs(result: PipelineResult, outdir: str | Path) -> dict[str, Path]:
    """Write the full artifact set; re-running on identical inputs
    overwrites with identical bytes."""
    from .dfg import emit_dot

    contents = {
        "report.json": render_report(result),
        "inventory.csv": inventory_to_csv(result.inventory),
        "impacts.csv": impact_csv(result),
        "impacts_scoped.csv": scoped_impact_csv(result),
        "ledger.csv": ledger_csv(result),
        "dfg.dot": emit_dot(result.dfg),
    }
    # rendered before the directory is made: a failed render leaves nothing behind
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for name, text in contents.items():
        path = outdir / name
        path.write_text(text, encoding="utf-8")
        written[name] = path
    return written
