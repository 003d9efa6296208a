"""Independent brute-force oracles used by the test suite.

The totals and pair-count oracles work directly on raw JSON documents with
flat loops and no shared code with the engine's aggregation paths, so
agreement between the two is meaningful. They assume assignments already
use the factor table's units (true for all generated bundles); unit
conversion paths are exercised by dedicated tests instead.

:func:`report_dict` builds ``report.json``'s document as a plain dict from a
pipeline result, sharing no code with ``susmine.report``, so that
``json.dumps`` of it checks the report emitter byte for byte.

:func:`serialize_ocel` writes a parsed log back as the accepted OCEL
subset, so that parse and serialize can be checked to be a fixed point.

:func:`csv_projections` writes the four CSV projections row by row with
``csv.writer``, sharing no code with ``susmine.report``, so that each
CSV artifact can be checked against it byte for byte.

:func:`checked_scoped_total`, :func:`checked_activity_type_totals` and
:func:`checked_collapse_scopes` add scoped vectors cell by cell, checking
every partial sum; the engine's roll-ups must give their floats, in
their order, and raise their messages.

:func:`rendered` gives what one of ``susmine.report``'s writers writes
onto a stream, as a string.
"""

import csv
import io
import json
import math
from datetime import datetime, timezone
from decimal import Decimal

from susmine.errors import NonFiniteImpactError
from susmine.impact import classify_impacts
from susmine.model import ComponentKind, EventLog, Quantity, Relation, Scalar


def rendered(write, subject) -> str:
    """The text ``write(subject, out)`` writes onto a fresh stream; the
    writer itself returns None."""
    out = io.StringIO()
    assert write(subject, out) is None
    return out.getvalue()


def _counts(log_doc):
    per_activity = {}
    for e in log_doc["events"]:
        per_activity[e["type"]] = per_activity.get(e["type"], 0) + 1
    per_object_type = {}
    for o in log_doc["objects"]:
        per_object_type[o["type"]] = per_object_type.get(o["type"], 0) + 1
    return per_activity, per_object_type


def _occurrences(assignment, per_activity, per_object_type):
    if assignment.get("basis") == "per_instance":
        kind = assignment["component"]["kind"]
        cid = assignment["component"]["id"]
        if kind == "activity_type":
            return per_activity.get(cid, 0)
        return per_object_type.get(cid, 0)
    return 1


def flat_inventory_totals(log_doc, ann_doc):
    """Global inventory totals (flow, direction, scope) -> exact Decimal."""
    per_activity, per_object_type = _counts(log_doc)
    totals = {}
    for a in ann_doc.get("assignments", []):
        n = _occurrences(a, per_activity, per_object_type)
        key = (a["flow"], a["direction"], a.get("scope") or "unscoped")
        totals[key] = totals.get(key, Decimal(0)) + Decimal(str(a["amount"])) * n
    return totals


def flat_impact_totals(log_doc, ann_doc, magnitude=False):
    """Global impact totals (category, scope) -> float via a flat double
    loop over assignment occurrences x factor entries; with ``magnitude``,
    the sum of each term's absolute value instead, which bounds the
    rounding error of any order of summing the terms."""
    per_activity, per_object_type = _counts(log_doc)
    entries = ann_doc.get("characterization", {}).get("factors", [])
    totals = {}
    for a in ann_doc.get("assignments", []):
        n = _occurrences(a, per_activity, per_object_type)
        scope = a.get("scope") or "unscoped"
        for entry in entries:
            if entry["flow"] != a["flow"] or entry["unit"] != a["unit"]:
                continue
            if entry.get("direction") is not None and entry["direction"] != a["direction"]:
                continue
            for category, factor in entry["factors"].items():
                key = (category, scope)
                contribution = float(Decimal(str(a["amount"]))) * factor * n
                totals[key] = totals.get(key, 0.0) + (abs(contribution) if magnitude else contribution)
    return totals


def pair_counts(log_doc):
    """Directly-follows edge frequencies by brute-force pair counting."""
    events_by_id = {e["id"]: e for e in log_doc["events"]}
    trace_of = {}
    for e in log_doc["events"]:
        for rel in e.get("relationships", []):
            trace = trace_of.setdefault(rel["objectId"], [])
            if e["id"] not in trace:
                trace.append(e["id"])
    edges = {}
    for object_id, event_ids in trace_of.items():
        ordered = sorted(event_ids, key=lambda eid: (events_by_id[eid]["time"], eid))
        for a, b in zip(ordered, ordered[1:]):
            key = (events_by_id[a]["type"], events_by_id[b]["type"])
            edges[key] = edges.get(key, 0) + 1
    return edges


def _ref_dict(ref):
    return {"kind": ref.kind.value, "id": ref.id}


def _cells_dict(sv):
    """A scoped vector as {category: {scope: {amount, unit}}}."""
    out = {}
    for (category, scope), q in sorted(sv.items()):
        out.setdefault(category, {})[scope] = {"amount": q.amount, "unit": q.unit}
    return out


def _category_totals(totals):
    """Each category's cells summed in (category, scope) order, the first
    cell taken as is (so a lone -0.0 keeps its sign), with the last unit."""
    sums = {}
    for (category, _), q in sorted(totals.items()):
        amount = q.amount if category not in sums else sums[category].amount + q.amount
        sums[category] = Quantity(amount, q.unit)
    return sums


def _unscoped_shares(totals):
    """Per category, the unscoped cells over all cells, each summed from 0.0
    in the vector's own cell order; 0.0 where the total is zero."""
    whole, part = {}, {}
    for (category, scope), q in totals.items():
        whole[category] = whole.get(category, 0.0) + q.amount
        if scope == "unscoped":
            part[category] = part.get(category, 0.0) + q.amount
    return {
        category: part.get(category, 0.0) / whole[category] if whole[category] != 0 else 0.0
        for category in sorted(whole)
    }


def _inventory_dicts(entries):
    """Inventory entries in key order, each with its exact amount as a string."""
    return [
        {
            "component_kind": key.component.kind.value,
            "component_id": key.component.id,
            "flow": key.flow,
            "direction": key.direction.value,
            "scope": key.scope,
            "amount": str(q.amount),
            "unit": q.unit,
        }
        for key, q in sorted(entries)
    ]


def _component_dicts(vectors):
    return [{"component": _ref_dict(ref), "impacts": _cells_dict(sv)} for ref, sv in sorted(vectors.items())]


def report_dict(result):
    """``report.json``'s document for a pipeline result, built as one dict
    with every list in its documented order."""
    al = result.al
    per_activity, per_object_type = {}, {}
    for e in al.log.events:
        per_activity[e.activity] = per_activity.get(e.activity, 0) + 1
    for o in al.log.objects:
        per_object_type[o.object_type] = per_object_type.get(o.object_type, 0) + 1
    totals = result.totals
    category_totals = _category_totals(totals)
    by_scope = _cells_dict(totals)
    entries = result.inventory.entries.items()
    report = {
        "schema": "susmine-report/1",
        "mode": result.mode.value,
        "log": {
            "digest": al.log.digest(),
            "event_count": len(al.log.events),
            "object_count": len(al.log.objects),
            "per_activity": per_activity,
            "per_object_type": per_object_type,
        },
        "scope_set": {"name": al.scope_set.name, "scopes": list(al.scope_set.scopes)},
        "inventory": {
            "entries": _inventory_dicts(entries),
            "negative_entries": _inventory_dicts((key, q) for key, q in entries if q.amount < 0),
        },
        "impacts": {
            "components": _component_dicts({ref: sv for ref, sv in result.post_allocation.items() if sv}),
            "process_totals": {
                category: {
                    "class": al.table.categories[category].impact_class.value,
                    "total": {"amount": q.amount, "unit": q.unit},
                    "by_scope": by_scope[category],
                }
                for category, q in category_totals.items()
            },
            "class_totals": {
                cls.value: {category: {"amount": q.amount, "unit": q.unit} for category, q in vec.items()}
                for cls, vec in classify_impacts(category_totals, al.table).items()
            },
        },
        "unscoped_share": _unscoped_shares(totals),
        "uncharacterized_flows": [
            {"flow": flow, "unit": unit, "direction": direction}
            for flow, unit, direction in result.uncharacterized
        ],
        "allocation": {
            "entries": [
                {
                    "source": _ref_dict(e.source),
                    "target": _ref_dict(e.target),
                    "category": e.category,
                    "scope": e.scope,
                    "amount": e.amount,
                    "weight": e.weight,
                }
                for e in sorted(result.ledger.entries)
            ],
            "residuals": _component_dicts(result.ledger.residuals),
            "warnings": list(result.ledger.warnings),
        },
        "audit": {column: level.value for column, level in result.audit_row.items()},
        "functional_unit": None,
    }
    if result.fu is not None:
        scale = float(result.fu_scale)
        report["functional_unit"] = {
            "object_type": result.fu.object_type,
            "reference": {"amount": str(result.fu.reference.amount), "unit": result.fu.reference.unit},
            "measured_attribute": result.fu.measured_attribute,
            "measured_output": str(result.fu_output),
            "scale_factor": str(result.fu_scale),
            "inventory_per_fu": _inventory_dicts(result.fu_inventory.entries.items()),
            "impacts_per_fu": _cells_dict(
                {cell: Quantity(q.amount * scale, q.unit) for cell, q in totals.items()}
            ),
        }
    return report


def _csv_text(header, rows) -> str:
    # csv quotes a field holding "\r" only with "\r" in its line terminator
    # (before 3.13), so each line is written with "\r\n" and ended by "\n"
    lines = []
    for row in [header, *rows]:
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(row)
        lines.append(line.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


def csv_projections(result):
    """The four CSV projections of a pipeline result, name -> text, each
    written by one ``csv.writer`` row by row, with rows in their
    documented order."""
    classes = {category: info.impact_class.value for category, info in result.al.table.categories.items()}
    components = sorted((ref, sv) for ref, sv in result.post_allocation.items())
    return {
        "inventory.csv": _csv_text(
            ("component_kind", "component_id", "flow", "direction", "scope", "amount", "unit"),
            [(key.component.kind.value, key.component.id, key.flow, key.direction.value, key.scope,
              str(q.amount), q.unit) for key, q in sorted(result.inventory.entries.items())],
        ),
        "impacts.csv": _csv_text(
            ("component_kind", "component_id", "category", "class", "amount", "impact_unit"),
            [(ref.kind.value, ref.id, category, classes[category], repr(q.amount), q.unit)
             for ref, sv in components for category, q in _category_totals(sv).items()],
        ),
        "impacts_scoped.csv": _csv_text(
            ("component_kind", "component_id", "category", "class", "scope", "amount", "impact_unit"),
            [(ref.kind.value, ref.id, category, classes[category], scope, repr(q.amount), q.unit)
             for ref, sv in components for (category, scope), q in sorted(sv.items())],
        ),
        "ledger.csv": _csv_text(
            ("source_kind", "source_id", "target_kind", "target_id", "category", "scope", "amount", "weight"),
            [(e.source.kind.value, e.source.id, e.target.kind.value, e.target.id, e.category, e.scope,
              repr(e.amount), repr(e.weight)) for e in sorted(result.ledger.entries)],
        ),
    }


def _scalar_out(value: Scalar):
    # Decimal attributes only occur on programmatically built logs; emit
    # them as numbers so reparsing yields the standard float form.
    return float(value) if isinstance(value, Decimal) else value


def _time_out(ts: datetime) -> str:
    """A timestamp in UTC with a trailing 'Z'; a naive one is taken as UTC."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def serialize_ocel(log: EventLog) -> str:
    """Serialize back to the accepted subset; parse∘serialize is a fixed point."""
    rels_by_event: dict[str, list[Relation]] = {}
    for rel in log.relations:
        rels_by_event.setdefault(rel.event_id, []).append(rel)

    doc = {
        "objectTypes": [{"name": n} for n in sorted(log.object_types)],
        "eventTypes": [{"name": n} for n in sorted(log.activity_types)],
        "objects": [
            {
                "id": o.object_id,
                "type": o.object_type,
                "attributes": [
                    {"name": k, "value": _scalar_out(v)} for k, v in sorted(o.attributes.items())
                ],
            }
            for o in log.objects
        ],
        "events": [
            {
                "id": e.event_id,
                "type": e.activity,
                "time": _time_out(e.timestamp),
                "attributes": [
                    {"name": k, "value": _scalar_out(v)} for k, v in sorted(e.attributes.items())
                ],
                "relationships": [
                    {"objectId": r.object_id, "qualifier": r.qualifier}
                    for r in rels_by_event.get(e.event_id, [])
                ],
            }
            for e in log.events
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _checked_add(total, key, q, name):
    """Add ``q`` into ``total[key]``, checking the sum; a sum that is not
    finite raises naming ``name`` (when given) and the cell."""
    amount = q.amount if key not in total else total[key].amount + q.amount
    if not math.isfinite(amount):
        raise NonFiniteImpactError(f"{name + ': ' if name else ''}impact {key} is not finite ({amount})")
    total[key] = Quantity(amount, q.unit)


def checked_scoped_total(vectors):
    """All components' cells summed per (category, scope), component by
    component in the vectors' order."""
    total = {}
    for sv in vectors.values():
        for key, q in sv.items():
            _checked_add(total, key, q, "process")
    return total


def checked_activity_type_totals(log, vectors):
    """Per activity type id, the cells of its instances present in ``log``
    and of the type itself, summed in the vectors' order."""
    totals = {}
    for ref, sv in vectors.items():
        if ref.kind is ComponentKind.ACTIVITY_TYPE:
            type_id = ref.id
        elif ref.kind is ComponentKind.ACTIVITY_INSTANCE and log.event(ref.id) is not None:
            type_id = log.event(ref.id).activity
        else:
            continue
        total = totals.setdefault(type_id, {})
        for key, q in sv.items():
            _checked_add(total, key, q, f"activity_type:{type_id}")
    return totals


def checked_collapse_scopes(sv):
    """A scoped vector's cells summed per category, in (category, scope) order."""
    out = {}
    for (category, _), q in sorted(sv.items()):
        _checked_add(out, category, q, None)
    return out
