"""Core domain model: object-centric event logs and component references.

The model mirrors the concepts shared by process mining and life cycle
assessment: a process is a log of activity instances (events) related to
typed object instances, and any of the five component kinds — the whole
process, an activity type or instance, an object type or instance — can
carry sustainability annotations.

All types are plain immutable-by-convention data holders. Invariants are
checked by :func:`validate_log`, which returns violations as data instead
of raising, so dirty logs can still be loaded and audited in lenient mode.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal
from enum import Enum
from operator import itemgetter
from typing import Union

from .errors import UnknownComponentError, abbreviate

Scalar = Union[str, int, float, bool, Decimal, None]

#: Reserved scope label for assignments that carry no scope tag.
UNSCOPED = "unscoped"


class ComponentKind(str, Enum):
    PROCESS = "process"
    ACTIVITY_TYPE = "activity_type"
    ACTIVITY_INSTANCE = "activity_instance"
    OBJECT_TYPE = "object_type"
    OBJECT_INSTANCE = "object_instance"


class Direction(str, Enum):
    INPUT = "input"
    OUTPUT = "output"


class Quantity(tuple):
    """An amount tagged with a unit identifier, as the tuple
    ``(amount, unit)``.

    Inventory-stage quantities carry exact :class:`~decimal.Decimal`
    amounts; impact-stage quantities carry binary floats. Both must be
    finite; an int amount becomes a Decimal. Quantities compare, hash and
    sort as tuples, so one equals the plain ``(amount, unit)`` tuple.
    """

    __slots__ = ()

    def __new__(cls, amount: Decimal | float, unit: str):
        if isinstance(amount, Decimal):
            if not amount.is_finite():
                raise ValueError(f"non-finite amount: {amount}")
        elif isinstance(amount, float):
            if not math.isfinite(amount):
                raise ValueError(f"non-finite amount: {amount}")
        elif isinstance(amount, int) and not isinstance(amount, bool):
            amount = Decimal(amount)
        else:
            raise TypeError(f"amount must be Decimal or float, got {type(amount).__name__}")
        return super().__new__(cls, (amount, unit))

    amount = property(itemgetter(0))
    unit = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[Decimal | float, str]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Quantity(amount={self.amount!r}, unit={self.unit!r})"


class ComponentRef(tuple):
    """Reference to one of the five process component kinds, as the
    tuple ``(kind, id)``.

    ``id`` is None exactly when ``kind`` is PROCESS (the whole log).
    Refs compare and hash as tuples, so they order by (kind value, id),
    the component order of every output.
    """

    __slots__ = ()

    def __new__(cls, kind: ComponentKind, id: str | None = None):
        if kind is ComponentKind.PROCESS:
            if id is not None:
                raise ValueError("process refs carry no id")
        elif not id:
            raise ValueError(f"{kind.value} ref requires an id")
        return super().__new__(cls, (kind, id))

    kind = property(itemgetter(0))
    id = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[ComponentKind, str | None]:
        return tuple(self)

    def __str__(self) -> str:
        return self.kind.value if self.id is None else f"{self.kind.value}:{self.id}"


PROCESS_REF = ComponentRef(ComponentKind.PROCESS)


@dataclass(frozen=True)
class Event:
    """One activity instance: an execution of an activity at a point in time."""

    event_id: str
    activity: str
    timestamp: datetime
    attributes: dict[str, Scalar] = field(default_factory=dict)

    @property
    def ref(self) -> ComponentRef:
        if not self.event_id:  # a lenient log may hold one
            raise UnknownComponentError(f"activity type '{self.activity}' has an event with an empty id")
        return ComponentRef(ComponentKind.ACTIVITY_INSTANCE, self.event_id)


@dataclass(frozen=True)
class ObjectInstance:
    """One object instance; attributes may carry allocation keys
    (``mass_kg``, ``economic_value``) or functional-unit measures."""

    object_id: str
    object_type: str
    attributes: dict[str, Scalar] = field(default_factory=dict)

    @property
    def ref(self) -> ComponentRef:
        if not self.object_id:  # a lenient log may hold one
            raise UnknownComponentError(f"object type '{self.object_type}' has an object with an empty id")
        return ComponentRef(ComponentKind.OBJECT_INSTANCE, self.object_id)


@dataclass(frozen=True)
class Relation:
    """A qualified event-to-object relation."""

    event_id: str
    object_id: str
    qualifier: str


@dataclass
class EventLog:
    """An object-centric event log.

    Construction does not validate; run :func:`validate_log` (empty report
    means valid). Construction indexes members by type and relations by
    object, and :meth:`digest` is computed once, so treat instances as
    immutable once built.
    """

    activity_types: set[str] = field(default_factory=set)
    object_types: set[str] = field(default_factory=set)
    events: list[Event] = field(default_factory=list)
    objects: list[ObjectInstance] = field(default_factory=list)
    relations: list[Relation] = field(default_factory=list)

    def __post_init__(self):
        self._events_by_id = {e.event_id: e for e in self.events}
        self._objects_by_id = {o.object_id: o for o in self.objects}
        # keyed by (kind, name), not ComponentRef: a log built in code may hold empty names
        self._members: dict[tuple[ComponentKind, str], list] = {}
        for e in self.events:
            self._members.setdefault((ComponentKind.ACTIVITY_TYPE, e.activity), []).append(e)
        for o in self.objects:
            self._members.setdefault((ComponentKind.OBJECT_TYPE, o.object_type), []).append(o)
        self._relations_by_object: dict[str, list[Relation]] = {}
        for rel in self.relations:
            self._relations_by_object.setdefault(rel.object_id, []).append(rel)
        self._digest: str | None = None

    def event(self, event_id: str) -> Event | None:
        return self._events_by_id.get(event_id)

    def object(self, object_id: str) -> ObjectInstance | None:
        return self._objects_by_id.get(object_id)

    def members(self, type_ref: ComponentRef) -> list[Event] | list[ObjectInstance]:
        """Events of an activity type or objects of an object type, in log order."""
        return list(self._members.get((type_ref.kind, type_ref.id), ()))

    def member_counts(self, kind: ComponentKind) -> dict[str, int]:
        """Events per activity (``ACTIVITY_TYPE``) or objects per object type
        (``OBJECT_TYPE``), sorted by name; read off the membership index."""
        return dict(sorted(
            (name, len(members)) for (k, name), members in self._members.items() if k is kind
        ))

    def lift(self, ref: ComponentRef, level: ComponentKind) -> ComponentRef | None:
        """The component ``ref`` rolls up into at ``level``: itself at its
        own kind, its type for an instance, the process for anything.
        None when ``ref`` does not roll up into ``level`` or names an
        instance absent from the log."""
        if ref.kind is level:
            return ref
        if level is ComponentKind.PROCESS:
            return PROCESS_REF
        if ref.kind is ComponentKind.ACTIVITY_INSTANCE and level is ComponentKind.ACTIVITY_TYPE:
            event = self.event(ref.id)
            return None if event is None else ComponentRef(level, event.activity)
        if ref.kind is ComponentKind.OBJECT_INSTANCE and level is ComponentKind.OBJECT_TYPE:
            obj = self.object(ref.id)
            return None if obj is None else ComponentRef(level, obj.object_type)
        return None

    def events_related_to(self, object_id: str, qualifier: str | None = None) -> list[Event]:
        """Events related to an object, in relation order, deduplicated;
        relations to events absent from the log are skipped."""
        seen: set[str] = set()
        out: list[Event] = []
        for rel in self._relations_by_object.get(object_id, ()):
            if qualifier is not None and rel.qualifier != qualifier:
                continue
            if rel.event_id in seen:
                continue
            seen.add(rel.event_id)
            ev = self._events_by_id.get(rel.event_id)
            if ev is not None:
                out.append(ev)
        return out

    def digest(self) -> str:
        """SHA-256 over the log as read (sorted type names; events, objects and
        relations in log order), so the same content in another order gives
        another digest. Computed on the first call; later calls return it."""
        if self._digest is not None:
            return self._digest
        payload = {
            "activity_types": sorted(self.activity_types),
            "object_types": sorted(self.object_types),
            "events": [
                [e.event_id, e.activity, e.timestamp.isoformat(),
                 sorted((k, str(v)) for k, v in e.attributes.items())]
                for e in self.events
            ],
            "objects": [
                [o.object_id, o.object_type,
                 sorted((k, str(v)) for k, v in o.attributes.items())]
                for o in self.objects
            ],
            "relations": [[r.event_id, r.object_id, r.qualifier] for r in self.relations],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self._digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return self._digest


@dataclass(frozen=True)
class Violation:
    """One invariant violation, locatable by entity id."""

    code: str
    entity_id: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.entity_id}: {self.message}"


def validate_log(log: EventLog) -> list[Violation]:
    """Check every log invariant; returns violations sorted by entity id.

    Pure and idempotent; an empty list means the log is valid.
    """
    violations: list[Violation] = []

    seen_events: set[str] = set()
    for ev in log.events:
        if not ev.event_id:
            violations.append(Violation("empty_event_id", "", "event with empty id"))
            continue
        if ev.event_id in seen_events:
            violations.append(Violation("duplicate_event_id", ev.event_id,
                                        f"event id '{ev.event_id}' occurs more than once"))
        seen_events.add(ev.event_id)
        if ev.activity not in log.activity_types:
            violations.append(Violation("undeclared_activity", ev.event_id,
                                        f"activity '{ev.activity}' not in declared activity types"))

    seen_objects: set[str] = set()
    for obj in log.objects:
        if not obj.object_id:
            violations.append(Violation("empty_object_id", "", "object with empty id"))
            continue
        if obj.object_id in seen_objects:
            violations.append(Violation("duplicate_object_id", obj.object_id,
                                        f"object id '{obj.object_id}' occurs more than once"))
        seen_objects.add(obj.object_id)
        if obj.object_type not in log.object_types:
            violations.append(Violation("undeclared_object_type", obj.object_id,
                                        f"object type '{obj.object_type}' not in declared object types"))

    for rel in log.relations:
        if rel.event_id not in seen_events:
            violations.append(Violation("dangling_relation_event", rel.event_id,
                                        f"relation references missing event '{rel.event_id}'"))
        if rel.object_id not in seen_objects:
            violations.append(Violation("dangling_relation_object", rel.object_id,
                                        f"relation references missing object '{rel.object_id}'"))

    return sorted(violations, key=lambda v: (v.entity_id, v.code, v.message))


def resolve_component(ref: ComponentRef, log: EventLog):
    """Resolve a reference against a log.

    Returns the log itself for PROCESS, the Event / ObjectInstance for
    instance kinds, and the bare identifier for type kinds. Raises
    :class:`UnknownComponentError` when the id is absent from the log.
    """
    if ref.kind is ComponentKind.PROCESS:
        return log
    if ref.kind is ComponentKind.ACTIVITY_TYPE:
        if ref.id not in log.activity_types:
            raise UnknownComponentError(f"unknown activity type '{abbreviate(ref.id)}'")
        return ref.id
    if ref.kind is ComponentKind.OBJECT_TYPE:
        if ref.id not in log.object_types:
            raise UnknownComponentError(f"unknown object type '{abbreviate(ref.id)}'")
        return ref.id
    if ref.kind is ComponentKind.ACTIVITY_INSTANCE:
        ev = log.event(ref.id)
        if ev is None:
            raise UnknownComponentError(f"unknown event '{abbreviate(ref.id)}'")
        return ev
    if ref.kind is ComponentKind.OBJECT_INSTANCE:
        obj = log.object(ref.id)
        if obj is None:
            raise UnknownComponentError(f"unknown object '{abbreviate(ref.id)}'")
        return obj
    raise UnknownComponentError(f"unknown component kind '{ref.kind}'")


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp and normalize it to UTC.

    Accepts a trailing 'Z'; naive timestamps are taken as UTC so event
    ordering is deterministic regardless of the producing system's zone.
    """
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)

