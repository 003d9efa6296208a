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
JSON object with only its own keys, all of its required ones, and every
field present of its kind (type names, attribute names and the ``type``
of objects and events are non-empty strings; null is of no kind).
Anything else — unknown keys, object-to-object relationships, attribute
change timelines (a ``time`` key, or one name given twice), a type name
given twice — is rejected with :class:`SchemaError` rather than silently
dropped. Attribute values stay plain JSON scalars; exact decimal handling
starts at the annotation layer, not here.

Strict ingest additionally requires the parsed log to pass
:func:`validate_log`; lenient ingest returns the log as-is so dirty data
can still be loaded and audited.
"""

from __future__ import annotations

import math

from .errors import TEXT, IntegrityError, SchemaError, abbreviate, load_json, record
from .model import (
    Event,
    EventLog,
    ObjectInstance,
    Relation,
    Scalar,
    parse_timestamp,
    validate_log,
)

#: Each record kind's fields and their kinds; required keys are tuples in
#: grammar order, so the first missing one is named the same way on every run.
_DOCUMENT_FIELDS = {"objectTypes": list, "eventTypes": list, "objects": list, "events": list}
_TYPE_FIELDS = {"name": TEXT, "attributes": list}
_DECLARATION_FIELDS = {"name": TEXT, "type": str}
_VALUE_FIELDS = {"name": TEXT, "value": None}
_OBJECT_FIELDS = {"id": str, "type": TEXT, "attributes": list}
_EVENT_FIELDS = {"id": str, "type": TEXT, "time": str, "attributes": list, "relationships": list}
_RELATIONSHIP_FIELDS = {"objectId": str, "qualifier": str}


def _attributes(raw: list, where: str, fields: dict = _VALUE_FIELDS) -> dict[str, Scalar]:
    """An ``attributes`` array as name -> value: ``{name, value}`` entries
    with a scalar value, or with ``_DECLARATION_FIELDS`` a type's
    ``{name, type}`` declarations as name -> type."""
    out: dict[str, Scalar] = {}
    required = tuple(fields)
    for entry in raw:
        record(entry, where, fields, required, "attribute entries")
        name, value = entry["name"], entry[required[1]]
        if name in out:
            raise SchemaError(f"{where}: attribute '{abbreviate(name)}' is repeated")
        if isinstance(value, (dict, list)):
            raise SchemaError(f"{where}: attribute '{abbreviate(name)}' must be a scalar")
        out[name] = value
    return out


def _type_names(raw: list, section: str) -> set[str]:
    names: set[str] = set()
    for entry in raw:
        name = record(entry, section, _TYPE_FIELDS, ("name",))["name"]
        if name in names:
            raise SchemaError(f"{section}: type '{abbreviate(name)}' is repeated")
        _attributes(entry.get("attributes", []), f"{section} '{abbreviate(name)}'", _DECLARATION_FIELDS)
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
    data = load_json(document, parse_constant=_finite_float, parse_float=_finite_float, parse_int=_finite_int)
    record(data, "document", _DOCUMENT_FIELDS, tuple(_DOCUMENT_FIELDS), None)

    activity_types = _type_names(data["eventTypes"], "eventTypes")
    object_types = _type_names(data["objectTypes"], "objectTypes")

    objects: list[ObjectInstance] = []
    for raw in data["objects"]:
        if isinstance(raw, dict) and "relationships" in raw:
            raise SchemaError("objects: object-to-object relationships are not supported")
        record(raw, "objects", _OBJECT_FIELDS, ("id", "type"))
        oid = raw["id"]
        attributes = _attributes(raw.get("attributes", []), f"object '{abbreviate(oid)}'")
        objects.append(ObjectInstance(oid, raw["type"], attributes))

    events: list[Event] = []
    relations: list[Relation] = []
    for raw in data["events"]:
        record(raw, "events", _EVENT_FIELDS, ("id", "type", "time"))
        eid, time_raw = raw["id"], raw["time"]
        name = f"event '{abbreviate(eid)}'"
        try:
            ts = parse_timestamp(time_raw)
        except (ValueError, OverflowError) as exc:  # out of range once moved to UTC
            raise SchemaError(f"{name}: unparseable time '{abbreviate(time_raw)}'") from exc
        events.append(Event(eid, raw["type"], ts, _attributes(raw.get("attributes", []), name)))
        where = f"{name} relationship"
        for rel in raw.get("relationships", []):
            record(rel, where, _RELATIONSHIP_FIELDS, ("objectId",))
            relations.append(Relation(eid, rel["objectId"], rel.get("qualifier", "")))

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

