"""Sustainability annotation bundles and their binding to event logs.

A bundle (JSON, ``"schema": "susmine/1"``) carries everything the engine
needs on top of a raw log:

* flow assignments — quantified inputs/outputs attached to components,
  optionally scope-tagged,
* a characterization table — per-unit factors mapping flows into impact
  categories, each category labelled climate / environmental / social,
* a scope set — ordered, disjoint buckets (presets: ``ghg``, ``lca``),
* allocation rules — how impacts held by one component are redistributed,
* a unit registry section with optional linear conversions.

Amounts are parsed into exact decimals and stay exact through the
inventory stage; characterization factors become binary floats because
that is where measured-value arithmetic starts.

Binding resolves every component reference against a concrete log and
expands ``per_instance`` type-level assignments into one assignment per
instance. Instance-level assignments coexist additively with expanded
ones unless they set ``override``, which suppresses expanded entries for
the same instance, flow and direction.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from decimal import Decimal, InvalidOperation
from enum import Enum
from types import MappingProxyType

from .errors import (TEXT, DuplicateSourceError, SchemaError, UnknownScopeError, UnknownUnitError,
                     abbreviate, literal, load_json, record)
from .model import UNSCOPED, ComponentKind, ComponentRef, Direction, EventLog, Quantity, resolve_component
from .units import UnitRegistry

SCHEMA_ID = "susmine/1"

_TYPE_KINDS = {ComponentKind.ACTIVITY_TYPE, ComponentKind.OBJECT_TYPE}
_INSTANCE_KINDS = {ComponentKind.ACTIVITY_INSTANCE, ComponentKind.OBJECT_INSTANCE}


class ImpactClass(str, Enum):
    CLIMATE = "climate"
    ENVIRONMENTAL = "environmental"
    SOCIAL = "social"


class Basis(str, Enum):
    ABSOLUTE = "absolute"
    PER_INSTANCE = "per_instance"


@dataclass(frozen=True)
class ScopeSet:
    """Ordered set of disjoint scope labels."""

    name: str
    scopes: tuple[str, ...]

    def __post_init__(self):
        if not self.scopes:
            raise SchemaError("scope set must declare at least one scope")
        if len(set(self.scopes)) != len(self.scopes):
            raise SchemaError("scope labels must be unique")
        if UNSCOPED in self.scopes:
            raise SchemaError(f"'{UNSCOPED}' is a reserved scope label")

    def __contains__(self, label: str) -> bool:
        return label in self.scopes


#: Built-in scope presets: GHG Protocol emission buckets and a minimal
#: in-company vs. upstream value-chain split.
SCOPE_PRESETS = {
    "ghg": ScopeSet("ghg", ("scope1", "scope2", "scope3")),
    "lca": ScopeSet("lca", ("gate_to_gate", "upstream")),
}


@dataclass(frozen=True)
class FlowAssignment:
    """One quantified input/output flow attached to a process component."""

    component: ComponentRef
    flow: str
    direction: Direction
    quantity: Quantity
    scope: str | None = None
    basis: Basis = Basis.ABSOLUTE
    override: bool = False


@dataclass(frozen=True)
class CategoryInfo:
    impact_unit: str
    impact_class: ImpactClass


@dataclass(frozen=True)
class TableEntry:
    """Factors for one (flow, unit); ``direction`` filters which flow
    direction the entry characterizes (None = both)."""

    flow: str
    unit: str
    direction: Direction | None
    factors: dict[str, float]

    def matches_direction(self, direction: Direction) -> bool:
        return self.direction is None or self.direction is direction


@dataclass(frozen=True)
class CharacterizationTable:
    """Map from (flow, unit) to per-category factors, plus the category
    declarations (impact unit and climate/environmental/social class).

    Construction checks that every factor's category is declared and
    indexes the entries by flow, so ``entries`` is a read-only view:
    build a new table instead of writing into it.
    """

    entries: Mapping[tuple[str, str], TableEntry] = field(default_factory=dict)
    categories: dict[str, CategoryInfo] = field(default_factory=dict)

    def __post_init__(self):
        by_flow: dict[str, list[TableEntry]] = {}
        for (flow, _), entry in sorted(self.entries.items()):
            by_flow.setdefault(flow, []).append(entry)
            for category in entry.factors:
                if category not in self.categories:
                    raise SchemaError(
                        f"factor entry '{abbreviate(flow)}': undeclared category '{abbreviate(category)}'"
                    )
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        object.__setattr__(self, "_by_flow", by_flow)

    def entries_for_flow(self, flow: str) -> list[TableEntry]:
        """The flow's entries, ordered by unit."""
        return list(self._by_flow.get(flow, ()))


@dataclass(frozen=True)
class AllocationKey:
    """How a source's impact is split: equally, or proportional to a
    target attribute. ``mass`` / ``economic_value`` are shorthands for
    the attributes ``mass_kg`` / ``economic_value``."""

    label: str
    attribute: str | None = None

    @property
    def proportional(self) -> bool:
        return self.attribute is not None


EQUAL_KEY = AllocationKey("equal")
RELATED_EVENTS = "related_events"


@dataclass(frozen=True)
class AllocationRule:
    source: ComponentRef
    targets: str | tuple[ComponentRef, ...] = RELATED_EVENTS
    key: AllocationKey = EQUAL_KEY
    fraction: Decimal = Decimal(1)
    qualifier: str | None = None


@dataclass
class AnnotationBundle:
    """Annotation document, parsed or built in code. Construction checks
    every rule that ties its records to the registry, the scope set and
    one another, and so does binding, which builds an
    :class:`AnnotatedLog` from it; each message names its record."""

    assignments: list[FlowAssignment]
    table: CharacterizationTable
    scope_set: ScopeSet
    rules: list[AllocationRule]
    registry: UnitRegistry

    def __post_init__(self):
        if self.scope_set.name == "ghg":
            for name, info in self.table.categories.items():
                if info.impact_class is ImpactClass.CLIMATE and info.impact_unit != "kg CO2e":
                    raise SchemaError(
                        f"category '{abbreviate(name)}': climate categories must use 'kg CO2e' under the ghg preset"
                    )
        units = [(f"factor entry for '{abbreviate(e.flow)}'", e.unit) for e in self.table.entries.values()]
        units += [(f"assignment #{i}", a.quantity.unit) for i, a in enumerate(self.assignments)]
        for where, unit in units:
            if unit not in self.registry.units:
                raise UnknownUnitError(f"{where}: unit '{abbreviate(unit)}' not in registry")
        for i, a in enumerate(self.assignments):
            if a.scope is not None and a.scope not in self.scope_set:
                raise UnknownScopeError(
                    f"assignment #{i}: scope '{abbreviate(a.scope)}' not in scope set"
                    f" '{abbreviate(self.scope_set.name)}' {abbreviate(list(self.scope_set.scopes))}"
                )
            if a.basis is Basis.PER_INSTANCE and a.component.kind not in _TYPE_KINDS:
                raise SchemaError(f"assignment #{i}: per_instance basis is only legal on type-level components")
            if a.override and a.component.kind not in _INSTANCE_KINDS:
                raise SchemaError(f"assignment #{i}: 'override' is only legal on instance-level components")
        first: dict[ComponentRef, int] = {}
        for i, rule in enumerate(self.rules):
            if not (0 <= rule.fraction <= 1):
                raise SchemaError(f"allocation #{i}: fraction must lie in [0,1], got {abbreviate(rule.fraction)}")
            if rule.targets == RELATED_EVENTS:
                if rule.source.kind is not ComponentKind.OBJECT_INSTANCE:
                    raise SchemaError(f"allocation #{i}: related_events selection requires an object_instance"
                                      f" source, got {abbreviate(rule.source)}")
            elif rule.qualifier is not None:
                raise SchemaError(f"allocation #{i}: 'qualifier' only applies to related_events selection")
            j = first.setdefault(rule.source, i)
            if j != i:
                raise DuplicateSourceError(
                    f"allocation #{i}: source {abbreviate(rule.source)} is already named by allocation #{j}"
                )


@dataclass
class AnnotatedLog(AnnotationBundle):
    """A bundle bound to a log: the bundle's fields plus the log and its
    fully resolved annotations.

    ``resolved`` pairs each concrete component with the assignment that
    landed on it; type-level per-instance assignments appear once per
    instance of the type.
    """

    log: EventLog
    resolved: list[tuple[ComponentRef, FlowAssignment]]


#: Each record kind's fields and their kinds, None where the field's
#: parser checks it; required keys are tuples in grammar order, so the
#: first missing one is named the same way on every run.
_BUNDLE_FIELDS = {"schema": str, "units": dict, "scopes": None, "assignments": list,
                  "characterization": dict, "allocations": list}
_UNITS_FIELDS = {"declare": list, "conversions": list}
_CONVERSION_FIELDS = {"from": str, "to": str, "factor": None}
_SCOPE_SET_FIELDS = {"name": TEXT, "scopes": list}
_COMPONENT_FIELDS = {"kind": None, "id": TEXT}
_ASSIGNMENT_REQUIRED = ("component", "flow", "direction", "amount", "unit")
_ASSIGNMENT_FIELDS = {"component": None, "flow": TEXT, "direction": None, "amount": None, "unit": TEXT,
                      "scope": str, "basis": None, "override": bool}
_TABLE_FIELDS = {"categories": dict, "factors": list}
_CATEGORY_FIELDS = {"impact_unit": TEXT, "class": None}
_FACTOR_FIELDS = {"flow": TEXT, "unit": TEXT, "direction": None, "factors": dict}
_RULE_FIELDS = {"source": None, "targets": None, "qualifier": str, "key": None, "fraction": None}
_KEY_FIELDS = {"attribute": TEXT}

#: Each enumerated field's values, by field name.
_CHOICES = {
    field: {member.value: member for member in enum}
    for field, enum in [("kind", ComponentKind), ("direction", Direction), ("basis", Basis), ("class", ImpactClass)]
}


def _choice(raw, field: str, where: str):
    """The member ``raw`` names among ``field``'s values."""
    members = _CHOICES[field]
    if isinstance(raw, str) and raw in members:  # a list or an object is unhashable
        return members[raw]
    *head, last = map(repr, members)
    raise SchemaError(f"{where}: {field} must be {', '.join(head)} or {last}, got {literal(raw)}")


def _as_decimal(value, where: str) -> Decimal:
    if isinstance(value, Decimal):
        dec = value
    elif isinstance(value, str):
        try:
            dec = Decimal(value)
        except InvalidOperation as exc:
            raise SchemaError(f"{where}: invalid decimal '{abbreviate(value)}'") from exc
    else:
        raise SchemaError(f"{where}: expected a number, got {literal(value)}")
    if not dec.is_finite():
        raise SchemaError(f"{where}: amount must be finite")
    if math.isinf(float(dec)):  # impact arithmetic is in floats
        raise SchemaError(f"{where}: {abbreviate(value)} overflows a float")
    return dec


def parse_component_ref(raw, where: str) -> ComponentRef:
    kind = _choice(record(raw, where, _COMPONENT_FIELDS, ("kind",), None)["kind"], "kind", where)
    if kind is ComponentKind.PROCESS:
        if "id" in raw:
            raise SchemaError(f"{where}: process refs carry no id")
        return ComponentRef(kind)
    if "id" not in raw:
        raise SchemaError(f"{where}: '{kind.value}' ref requires a non-empty id")
    return ComponentRef(kind, raw["id"])


def parse_scope_set(raw) -> ScopeSet:
    if isinstance(raw, str):
        preset = SCOPE_PRESETS.get(raw)
        if preset is None:
            raise SchemaError(f"unknown scope preset '{abbreviate(raw)}' (expected one of {sorted(SCOPE_PRESETS)})")
        return preset
    if isinstance(raw, dict):
        scopes = record(raw, "custom scope set", _SCOPE_SET_FIELDS, ("name", "scopes"))["scopes"]
        if not all(isinstance(s, str) and s for s in scopes):
            raise SchemaError("custom scope set requires a list of scope labels")
        return ScopeSet(raw["name"], tuple(scopes))
    raise SchemaError(f"'scopes' must be a preset name or {{name, scopes}}, got {literal(raw)}")


def _parse_registry(raw: dict) -> UnitRegistry:
    record(raw, "'units'", _UNITS_FIELDS, entries=None)
    declare = raw.get("declare", [])
    if not all(isinstance(u, str) and u for u in declare):
        raise SchemaError("units.declare must be a list of unit names")
    conversions: dict[tuple[str, str], Decimal] = {}
    for conv in raw.get("conversions", []):
        record(conv, "units.conversions", _CONVERSION_FIELDS, ("from", "to", "factor"))
        src, dst = conv["from"], conv["to"]
        conversions[(src, dst)] = _as_decimal(conv["factor"], f"conversion {abbreviate(src)}->{abbreviate(dst)}")
    return UnitRegistry(units=set(declare), conversions=conversions)


def _parse_assignment(raw, where: str) -> FlowAssignment:
    record(raw, where, _ASSIGNMENT_FIELDS, _ASSIGNMENT_REQUIRED, "assignments")
    component = parse_component_ref(raw["component"], f"{where} component")
    direction = _choice(raw["direction"], "direction", where)
    amount = _as_decimal(raw["amount"], f"{where} amount")
    basis = _choice(raw.get("basis", Basis.ABSOLUTE.value), "basis", where)
    return FlowAssignment(component, raw["flow"], direction, Quantity(amount, raw["unit"]), raw.get("scope"), basis,
                          raw.get("override", False))


def _parse_table(raw: dict) -> CharacterizationTable:
    record(raw, "'characterization'", _TABLE_FIELDS, entries=None)

    categories: dict[str, CategoryInfo] = {}
    for name, info in sorted(raw.get("categories", {}).items()):
        where = f"category '{abbreviate(name)}'"
        record(info, where, _CATEGORY_FIELDS, ("impact_unit", "class"), None)
        categories[name] = CategoryInfo(info["impact_unit"], _choice(info["class"], "class", where))

    entries: dict[tuple[str, str], TableEntry] = {}
    for entry_raw in raw.get("factors", []):
        record(entry_raw, "characterization.factors", _FACTOR_FIELDS, ("flow", "unit"))
        flow, unit = entry_raw["flow"], entry_raw["unit"]
        direction = None
        if "direction" in entry_raw:
            direction = _choice(entry_raw["direction"], "direction", f"factor entry '{abbreviate(flow)}'")
        factors = {category: float(_as_decimal(value, f"factor {abbreviate(flow)}->{abbreviate(category)}"))
                   for category, value in sorted(entry_raw.get("factors", {}).items())}
        key = (flow, unit)
        if key in entries:
            raise SchemaError(f"duplicate factor entry for flow '{abbreviate(flow)}' [{abbreviate(unit)}]")
        entries[key] = TableEntry(flow, unit, direction, factors)
    return CharacterizationTable(entries, categories)


def _parse_key(raw, where: str) -> AllocationKey:
    if raw == "equal":
        return EQUAL_KEY
    if raw == "mass":
        return AllocationKey("mass", "mass_kg")
    if raw == "economic_value":
        return AllocationKey("economic_value", "economic_value")
    if isinstance(raw, dict):
        attribute = record(raw, f"{where} key", _KEY_FIELDS, ("attribute",))["attribute"]
        return AllocationKey(f"attribute:{attribute}", attribute)
    raise SchemaError(f"{where}: 'key' must be 'equal', 'mass', 'economic_value' or an object, got {literal(raw)}")


def _parse_rule(raw, where: str) -> AllocationRule:
    record(raw, where, _RULE_FIELDS, ("source",), "allocation rules")
    source = parse_component_ref(raw["source"], f"{where} source")
    targets_raw = raw.get("targets", RELATED_EVENTS)
    targets: str | tuple[ComponentRef, ...]
    if targets_raw == RELATED_EVENTS:
        targets = RELATED_EVENTS
    elif isinstance(targets_raw, list):
        targets = tuple(parse_component_ref(t, f"{where} target") for t in targets_raw)
    else:
        raise SchemaError(f"{where}: 'targets' must be 'related_events' or a list of components")
    key = _parse_key(raw.get("key", "equal"), where)
    fraction = _as_decimal(raw.get("fraction", Decimal(1)), f"{where} fraction")
    return AllocationRule(source, targets, key, fraction, raw.get("qualifier"))


def parse_annotations(document: bytes | str, scopes_override: ScopeSet | None = None) -> AnnotationBundle:
    """Parse an annotation bundle document.

    Raises ``json.JSONDecodeError`` for malformed JSON, and
    ``SchemaError`` / ``UnknownScopeError`` / ``UnknownUnitError`` /
    ``DuplicateSourceError`` when the content is invalid. The parsers
    read the grammar; the :class:`AnnotationBundle` they build checks
    itself once every record is read, so a grammar fault anywhere is
    reported before any fault of its checks.
    ``scopes_override`` replaces the document's scope set, and the
    bundle's scope labels are checked against it.
    """
    # every number a decimal, NaN and Infinity too: no int() digit limit,
    # and _as_decimal's finiteness and overflow checks see every number
    data = load_json(document, parse_constant=Decimal, parse_float=Decimal, parse_int=Decimal)
    record(data, "annotation bundle", _BUNDLE_FIELDS, entries=None, schema=SCHEMA_ID)

    registry = _parse_registry(data.get("units", {}))
    scope_set = scopes_override if scopes_override is not None else parse_scope_set(data.get("scopes", "ghg"))
    table = _parse_table(data.get("characterization", {}))
    assignments = [_parse_assignment(raw, f"assignment #{i}") for i, raw in enumerate(data.get("assignments", []))]
    rules = [_parse_rule(raw, f"allocation #{i}") for i, raw in enumerate(data.get("allocations", []))]
    return AnnotationBundle(assignments, table, scope_set, rules, registry)


def empty_bundle() -> AnnotationBundle:
    """A bundle with no annotations; every downstream analysis is all-zeros."""
    return AnnotationBundle(
        assignments=[],
        table=CharacterizationTable(),
        scope_set=SCOPE_PRESETS["ghg"],
        rules=[],
        registry=UnitRegistry(),
    )


def bind_annotations(log: EventLog, bundle: AnnotationBundle) -> AnnotatedLog:
    """Resolve every assignment against the log and expand type-level
    per-instance assignments to their instances.

    Building the :class:`AnnotatedLog` first runs the bundle's own checks
    again, which catches a bundle edited after it was built. Raises
    :class:`UnknownComponentError` for dangling references and for
    expanding over an instance with an empty id (lenient logs).
    Expansion conserves totals exactly: each instance receives the
    per-instance decimal amount unchanged.
    """
    bundle_fields = {f.name: getattr(bundle, f.name) for f in fields(AnnotationBundle)}
    al = AnnotatedLog(**bundle_fields, log=log, resolved=[])
    overrides = {(a.component, a.flow, a.direction) for a in al.assignments if a.override}
    for a in al.assignments:
        resolve_component(a.component, log)  # raises UnknownComponentError
        if a.basis is Basis.ABSOLUTE:
            al.resolved.append((a.component, a))
            continue
        # per-instance expansion
        for member in log.members(a.component):
            ref = member.ref
            if (ref, a.flow, a.direction) not in overrides:
                al.resolved.append((ref, a))

    for rule in al.rules:
        resolve_component(rule.source, log)
        if isinstance(rule.targets, tuple):
            for target in rule.targets:
                resolve_component(target, log)
    return al
