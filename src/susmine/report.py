"""Report emission: the JSON report plus its CSV and DOT projections.

The JSON document (``"schema": "susmine-report/1"``) is the single
machine-readable artifact; every CSV is a projection of it. All output is
byte-deterministic for identical inputs: keys are sorted, rows are sorted,
and nothing time- or environment-dependent is embedded.

Exact decimal amounts (inventory stage) are serialized as strings to
preserve their digits; impact amounts are JSON numbers.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

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

    process_totals: dict = {}
    for category, q in sorted(category_totals.items()):
        info = al.table.categories[category]
        process_totals[category] = {
            "class": info.impact_class.value,
            "total": {"amount": q.amount, "unit": q.unit},
            "by_scope": {
                scope: {"amount": sq.amount, "unit": sq.unit}
                for (cat, scope), sq in sorted(totals.items())
                if cat == category
            },
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
        report["functional_unit"] = {
            "object_type": result.fu.object_type,
            "reference": {"amount": str(result.fu.reference.amount), "unit": result.fu.reference.unit},
            "measured_attribute": result.fu.measured_attribute,
            "measured_output": str(result.fu_output),
            "scale_factor": str(result.fu_scale),
            "inventory_per_fu": _inventory_entries(result.fu_inventory.sorted_entries()),
            "impacts_per_fu": {
                category: {
                    scope: {"amount": q.amount * float(result.fu_scale), "unit": q.unit}
                    for (cat, scope), q in sorted(totals.items())
                    if cat == category
                }
                for category in sorted({cat for (cat, _) in totals})
            },
        }
    return report


def render_report(result: PipelineResult) -> str:
    return json.dumps(build_report(result), indent=2, sort_keys=True) + "\n"


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

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    contents = {
        "report.json": render_report(result),
        "inventory.csv": inventory_to_csv(result.inventory),
        "impacts.csv": impact_csv(result),
        "impacts_scoped.csv": scoped_impact_csv(result),
        "ledger.csv": ledger_csv(result),
        "dfg.dot": emit_dot(result.dfg),
    }
    written: dict[str, Path] = {}
    for name, text in contents.items():
        path = outdir / name
        path.write_text(text, encoding="utf-8")
        written[name] = path
    return written
