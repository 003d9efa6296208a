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

Every record goes through one check (:func:`susmine.errors.record`): a
JSON object with only its own keys and all of its required ones. Anything
else — unknown keys, object-to-object relationships, attribute change
timelines (a ``time`` key, or one name given twice), a type name given
twice — is rejected with :class:`SchemaError` rather than silently
dropped. Attribute values stay plain JSON scalars; exact decimal handling
starts at the annotation layer, not here.

Strict ingest additionally requires the parsed log to pass
:func:`validate_log`; lenient ingest returns the log as-is so dirty data
can still be loaded and audited.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal

from .errors import IntegrityError, SchemaError, abbreviate, array, record
from .model import (
    Event,
    EventLog,
    ObjectInstance,
    Relation,
    Scalar,
    format_timestamp,
    parse_timestamp,
    validate_log,
)

#: Each record kind's keys; required keys are tuples in grammar order, so
#: the first missing one is named the same way on every run.
_DOCUMENT_KEYS = ("objectTypes", "eventTypes", "objects", "events")
_TYPE_KEYS = frozenset({"name", "attributes"})
_OBJECT_KEYS = frozenset({"id", "type", "attributes"})
_EVENT_KEYS = frozenset({"id", "type", "time", "attributes", "relationships"})
_RELATIONSHIP_KEYS = frozenset({"objectId", "qualifier"})


def _attributes(raw, where: str, field: str = "value") -> dict[str, Scalar]:
    """An ``attributes`` array as name -> ``field``: ``{name, value}`` entries
    with a scalar value, or with ``field="type"`` a type's ``{name, type}``
    declarations."""
    out: dict[str, Scalar] = {}
    allowed, required = frozenset({"name", field}), ("name", field)
    for entry in array(raw, f"{where}: 'attributes'"):
        record(entry, where, allowed, required, "attribute entries")
        name = entry["name"]
        value = entry[field]
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where}: attribute names must be non-empty strings")
        if name in out:
            raise SchemaError(f"{where}: attribute '{name}' is repeated")
        if field == "type" and not isinstance(value, str):
            raise SchemaError(f"{where}: attribute '{name}' type must be a string")
        if isinstance(value, (dict, list)):
            raise SchemaError(f"{where}: attribute '{name}' must be a scalar")
        out[name] = value
    return out


def _type_names(raw, section: str) -> set[str]:
    names: set[str] = set()
    for entry in array(raw, f"'{section}'"):
        name = record(entry, section, _TYPE_KEYS, ("name",))["name"]
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{section}: type names must be non-empty strings")
        if name in names:
            raise SchemaError(f"{section}: type '{name}' is repeated")
        _attributes(entry.get("attributes", []), f"{section} '{name}'", "type")
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
    record(data, "document", frozenset(_DOCUMENT_KEYS), _DOCUMENT_KEYS, None)

    activity_types = _type_names(data["eventTypes"], "eventTypes")
    object_types = _type_names(data["objectTypes"], "objectTypes")

    objects: list[ObjectInstance] = []
    for raw in array(data["objects"], "'objects'"):
        if isinstance(raw, dict) and "relationships" in raw:
            raise SchemaError("objects: object-to-object relationships are not supported")
        record(raw, "objects", _OBJECT_KEYS, ("id", "type"))
        oid, otype = raw["id"], raw["type"]
        if not isinstance(oid, str) or not isinstance(otype, str):
            raise SchemaError("objects: 'id' and 'type' must be strings")
        if not otype:
            raise SchemaError(f"object '{oid}': 'type' must be a non-empty string")
        objects.append(ObjectInstance(oid, otype, _attributes(raw.get("attributes", []), f"object '{oid}'")))

    events: list[Event] = []
    relations: list[Relation] = []
    for raw in array(data["events"], "'events'"):
        record(raw, "events", _EVENT_KEYS, ("id", "type", "time"))
        eid, etype, time_raw = raw["id"], raw["type"], raw["time"]
        if not isinstance(eid, str) or not isinstance(etype, str) or not isinstance(time_raw, str):
            raise SchemaError("events: 'id', 'type' and 'time' must be strings")
        if not etype:
            raise SchemaError(f"event '{eid}': 'type' must be a non-empty string")
        try:
            ts = parse_timestamp(time_raw)
        except ValueError as exc:
            raise SchemaError(f"event '{eid}': unparseable time '{time_raw}'") from exc
        events.append(Event(eid, etype, ts, _attributes(raw.get("attributes", []), f"event '{eid}'")))
        where = f"event '{eid}' relationship"
        for rel in array(raw.get("relationships", []), f"event '{eid}': 'relationships'"):
            record(rel, where, _RELATIONSHIP_KEYS, ("objectId",))
            obj_id, qualifier = rel["objectId"], rel.get("qualifier", "")
            if not isinstance(obj_id, str) or not isinstance(qualifier, str):
                raise SchemaError(f"{where}: 'objectId' and 'qualifier' must be strings")
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

