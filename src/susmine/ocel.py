"""Ingest for a bit-exact OCEL 2.0 JSON subset.

Accepted grammar (documented in docs/ocel-subset.md):

    {
      "objectTypes": [{"name": str, "attributes": [{"name": str, "type": str}]}],
      "eventTypes":  [{"name": str, "attributes": [{"name": str, "type": str}]}],
      "objects":     [{"id": str, "type": str,
                       "attributes": [{"name": str, "value": scalar}]}],
      "events":      [{"id": str, "type": str, "time": iso8601,
                       "attributes": [{"name": str, "value": scalar}],
                       "relationships": [{"objectId": str, "qualifier": str}]}]
    }

Anything else — unknown keys, object-to-object relationships, attribute
change timelines — is rejected with :class:`SchemaError` rather than
silently dropped. Attribute values stay plain JSON scalars; exact decimal
handling starts at the annotation layer, not here.

Strict ingest additionally requires the parsed log to pass
:func:`validate_log`; lenient ingest returns the log as-is so dirty data
can still be loaded and audited.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal

from .errors import IntegrityError, SchemaError, abbreviate
from .model import (
    ComponentKind,
    Event,
    EventLog,
    ObjectInstance,
    Relation,
    Scalar,
    format_timestamp,
    parse_timestamp,
    validate_log,
)

_TOP_KEYS = {"objectTypes", "eventTypes", "objects", "events"}
_EVENT_KEYS = {"id", "type", "time", "attributes", "relationships"}
_OBJECT_KEYS = {"id", "type", "attributes"}


@dataclass
class LogSummary:
    """Exact tallies over a log; counts equal brute-force scans."""

    event_count: int
    object_count: int
    per_activity: dict[str, int]
    per_object_type: dict[str, int]


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SchemaError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise SchemaError(f"{where}: unsupported key(s) {sorted(unknown)}")


def _parse_attributes(raw, where: str) -> dict[str, Scalar]:
    if raw is None:
        return {}
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: 'attributes' must be an array")
    out: dict[str, Scalar] = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: attribute entries must be objects")
        name = _require(entry, "name", where)
        value = _require(entry, "value", where)
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where}: attribute names must be non-empty strings")
        if isinstance(value, (dict, list)):
            raise SchemaError(f"{where}: attribute '{name}' must be a scalar")
        out[name] = value
    return out


def _parse_type_names(raw, where: str) -> set[str]:
    if not isinstance(raw, list):
        raise SchemaError(f"'{where}' must be an array")
    names: set[str] = set()
    for entry in raw:
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: entries must be objects")
        name = _require(entry, "name", where)
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where}: type names must be non-empty strings")
        names.add(name)
    return names


def _finite_float(token: str) -> float:
    """JSON number hook: rejects NaN, Infinity and overflowing literals (1e400)."""
    value = float(token)
    if not math.isfinite(value):
        raise SchemaError(f"non-finite number '{abbreviate(token)}'")
    return value


def _finite_int(token: str) -> int:
    """JSON integer hook: rejects integers beyond float range, which the
    weights and sums built from attributes could not hold."""
    _finite_float(token)
    return int(token)


def parse_ocel(document: bytes | str, strict: bool = True) -> EventLog:
    """Parse an OCEL 2.0 JSON subset document into an :class:`EventLog`.

    Raises ``json.JSONDecodeError`` for malformed JSON, ``SchemaError``
    for structural problems and non-finite numbers, and ``IntegrityError``
    when strict and the log violates its invariants.
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    data = json.loads(
        document, parse_constant=_finite_float, parse_float=_finite_float, parse_int=_finite_int
    )
    if not isinstance(data, dict):
        raise SchemaError("top level must be a JSON object")
    _check_keys(data, _TOP_KEYS, "document")
    for key in _TOP_KEYS:
        _require(data, key, "document")

    activity_types = _parse_type_names(data["eventTypes"], "eventTypes")
    object_types = _parse_type_names(data["objectTypes"], "objectTypes")

    objects: list[ObjectInstance] = []
    if not isinstance(data["objects"], list):
        raise SchemaError("'objects' must be an array")
    for raw in data["objects"]:
        if not isinstance(raw, dict):
            raise SchemaError("objects: entries must be objects")
        if "relationships" in raw:
            raise SchemaError("objects: object-to-object relationships are not supported")
        _check_keys(raw, _OBJECT_KEYS, "objects")
        oid = _require(raw, "id", "objects")
        otype = _require(raw, "type", "objects")
        if not isinstance(oid, str) or not isinstance(otype, str):
            raise SchemaError("objects: 'id' and 'type' must be strings")
        if not otype:
            raise SchemaError(f"object '{oid}': 'type' must be a non-empty string")
        objects.append(ObjectInstance(oid, otype, _parse_attributes(raw.get("attributes"), f"object '{oid}'")))

    events: list[Event] = []
    relations: list[Relation] = []
    if not isinstance(data["events"], list):
        raise SchemaError("'events' must be an array")
    for raw in data["events"]:
        if not isinstance(raw, dict):
            raise SchemaError("events: entries must be objects")
        _check_keys(raw, _EVENT_KEYS, "events")
        eid = _require(raw, "id", "events")
        etype = _require(raw, "type", "events")
        time_raw = _require(raw, "time", "events")
        if not isinstance(eid, str) or not isinstance(etype, str) or not isinstance(time_raw, str):
            raise SchemaError("events: 'id', 'type' and 'time' must be strings")
        if not etype:
            raise SchemaError(f"event '{eid}': 'type' must be a non-empty string")
        try:
            ts = parse_timestamp(time_raw)
        except ValueError as exc:
            raise SchemaError(f"event '{eid}': unparseable time '{time_raw}'") from exc
        events.append(Event(eid, etype, ts, _parse_attributes(raw.get("attributes"), f"event '{eid}'")))
        rels = raw.get("relationships", [])
        if not isinstance(rels, list):
            raise SchemaError(f"event '{eid}': 'relationships' must be an array")
        for rel in rels:
            if not isinstance(rel, dict):
                raise SchemaError(f"event '{eid}': relationship entries must be objects")
            _check_keys(rel, {"objectId", "qualifier"}, f"event '{eid}' relationship")
            obj_id = _require(rel, "objectId", f"event '{eid}' relationship")
            qualifier = rel.get("qualifier", "")
            if not isinstance(obj_id, str) or not isinstance(qualifier, str):
                raise SchemaError(f"event '{eid}': relationship fields must be strings")
            relations.append(Relation(eid, obj_id, qualifier))

    log = EventLog(
        activity_types=activity_types,
        object_types=object_types,
        events=events,
        objects=objects,
        relations=relations,
    )
    if strict:
        violations = validate_log(log)
        if violations:
            raise IntegrityError(violations)
    return log


def _scalar_out(value: Scalar):
    # Decimal attributes only occur on programmatically built logs; emit
    # them as numbers so reparsing yields the standard float form.
    return float(value) if isinstance(value, Decimal) else value


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
                "time": format_timestamp(e.timestamp),
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


def log_summary(log: EventLog) -> LogSummary:
    return LogSummary(
        event_count=len(log.events),
        object_count=len(log.objects),
        per_activity=log.member_counts(ComponentKind.ACTIVITY_TYPE),
        per_object_type=log.member_counts(ComponentKind.OBJECT_TYPE),
    )
