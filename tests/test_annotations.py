import dataclasses
import functools
import json
from datetime import datetime, timezone
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from susmine import (
    AllocationRule,
    AnnotatedLog,
    AnnotationBundle,
    Basis,
    ComponentKind,
    ComponentRef,
    Direction,
    Event,
    EventLog,
    FlowAssignment,
    FunctionalUnit,
    ObjectInstance,
    Quantity,
    SchemaError,
    SusmineError,
    UncharacterizedFlowError,
    UnitRegistry,
    UnknownComponentError,
    UnknownScopeError,
    UnknownUnitError,
    bind_annotations,
    direct_inventory,
    empty_bundle,
    functional_unit_scale,
    parse_annotations,
    parse_ocel,
    run_pipeline,
)
from susmine.annotations import (
    RELATED_EVENTS,
    SCOPE_PRESETS,
    CategoryInfo,
    CharacterizationTable,
    ImpactClass,
    ScopeSet,
    TableEntry,
    parse_scope_set,
)
from susmine.fixtures import fixture_path

from conftest import make_log, make_log_doc


def bundle_doc(**overrides):
    doc = {
        "schema": "susmine/1",
        "scopes": "ghg",
        "assignments": [],
        "characterization": {
            "categories": {"climate_change": {"impact_unit": "kg CO2e", "class": "climate"}},
            "factors": [
                {"flow": "CO2", "unit": "kg", "direction": "output", "factors": {"climate_change": 1.0}}
            ],
        },
        "allocations": [],
    }
    doc.update(overrides)
    return doc


def shipping_log(n_ship=3):
    events = [
        (f"s{i}", "ship", f"2024-01-01T08:0{i}:00Z", [("o1", "loads")], {})
        for i in range(n_ship)
    ]
    events.append(("p1", "pack", "2024-01-01T07:00:00Z", [("o1", "packs")], {}))
    return make_log(events=events, objects=[("o1", "order", {"economic_value": 10.0})])


def test_parse_scoped_assignment_survives_intact():
    doc = bundle_doc(assignments=[{
        "component": {"kind": "activity_instance", "id": "e1"},
        "flow": "CO2",
        "direction": "output",
        "amount": "5",
        "unit": "kg",
        "scope": "scope1",
    }])
    bundle = parse_annotations(json.dumps(doc))
    (a,) = bundle.assignments
    assert a.component == ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "e1")
    assert a.flow == "CO2"
    assert a.direction is Direction.OUTPUT
    assert a.quantity.amount == Decimal(5)
    assert a.quantity.unit == "kg"
    assert a.scope == "scope1"
    assert a.basis is Basis.ABSOLUTE


def test_empty_assignment_list_is_valid():
    bundle = parse_annotations(json.dumps(bundle_doc()))
    assert bundle.assignments == []
    assert bundle.rules == []
    assert bundle.scope_set == SCOPE_PRESETS["ghg"]


def test_unknown_scope_label_rejected_at_parse():
    doc = bundle_doc(assignments=[{
        "component": {"kind": "activity_instance", "id": "e1"},
        "flow": "CO2", "direction": "output", "amount": "5", "unit": "kg",
        "scope": "scope9",
    }])
    with pytest.raises(UnknownScopeError):
        parse_annotations(json.dumps(doc))


def test_unknown_scope_label_rejected_at_bind(demo_log, demo_bundle):
    # a bundle built in code skips the parser's check; binding it must not
    # keep the flow in the inventory but drop it from every impact total
    demo_bundle.assignments[0] = dataclasses.replace(demo_bundle.assignments[0], scope="scope9")
    with pytest.raises(UnknownScopeError, match=r"assignment #0: scope 'scope9' not in scope set 'ghg'"):
        bind_annotations(demo_log, demo_bundle)


def test_unknown_unit_rejected():
    doc = bundle_doc(assignments=[{
        "component": {"kind": "activity_instance", "id": "e1"},
        "flow": "CO2", "direction": "output", "amount": "5", "unit": "stone",
    }])
    with pytest.raises(UnknownUnitError):
        parse_annotations(json.dumps(doc))


def test_missing_schema_id_rejected():
    doc = bundle_doc()
    del doc["schema"]
    with pytest.raises(SchemaError):
        parse_annotations(json.dumps(doc))


_PROCESS_WITH_ID = {"component": {"kind": "process", "id": "p1"},
                    "flow": "CO2", "direction": "output", "amount": "5", "unit": "kg"}


def _with_scopes(*labels):
    return lambda doc: doc.update(scopes={"name": "site", "scopes": list(labels)})


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("schema"), 'annotation bundle must declare "schema": "susmine/1"'),
    (lambda doc: doc.update(schema="susmine/2"), 'annotation bundle must declare "schema": "susmine/1"'),
    (_with_scopes(), "scope set must declare at least one scope"),
    (_with_scopes("in", "in"), "scope labels must be unique"),
    (_with_scopes("unscoped"), "'unscoped' is a reserved scope label"),
    (_with_scopes(5), "custom scope set requires a list of scope labels"),
    (lambda doc: doc.update(assignments=[_PROCESS_WITH_ID]), "assignment #0 component: process refs carry no id"),
], ids=["no-schema", "other-schema", "no-scopes", "repeated-scope", "reserved-scope", "non-string-scope",
        "process-with-id"])
def test_document_faults_are_named(edit, message):
    doc = bundle_doc()
    edit(doc)
    with pytest.raises(SchemaError) as excinfo:
        parse_annotations(json.dumps(doc))
    assert str(excinfo.value) == message


def test_per_instance_on_instance_component_rejected():
    doc = bundle_doc(assignments=[{
        "component": {"kind": "activity_instance", "id": "e1"},
        "flow": "CO2", "direction": "output", "amount": "5", "unit": "kg",
        "basis": "per_instance",
    }])
    with pytest.raises(SchemaError):
        parse_annotations(json.dumps(doc))


def test_climate_unit_enforced_under_ghg_preset():
    doc = bundle_doc()
    doc["characterization"]["categories"]["climate_change"]["impact_unit"] = "t CO2e"
    with pytest.raises(SchemaError, match="climate categories must use 'kg CO2e' under the ghg preset"):
        parse_annotations(json.dumps(doc))


def test_empty_impact_unit_rejected():
    doc = bundle_doc()
    doc["characterization"]["categories"]["climate_change"]["impact_unit"] = ""
    with pytest.raises(SchemaError) as excinfo:
        parse_annotations(json.dumps(doc))
    assert str(excinfo.value) == "category 'climate_change': 'impact_unit' must be a non-empty string, got \"\""


def test_custom_scope_set_allows_other_climate_units():
    doc = bundle_doc(scopes={"name": "site", "scopes": ["inside", "outside"]})
    doc["characterization"]["categories"]["climate_change"]["impact_unit"] = "t CO2e"
    bundle = parse_annotations(json.dumps(doc))
    assert bundle.scope_set.scopes == ("inside", "outside")


def test_scope_presets():
    assert parse_scope_set("ghg").scopes == ("scope1", "scope2", "scope3")
    assert parse_scope_set("lca").scopes == ("gate_to_gate", "upstream")
    with pytest.raises(SchemaError):
        parse_scope_set("iso")


def test_scopes_override_revalidates_labels():
    doc = bundle_doc(assignments=[{
        "component": {"kind": "activity_instance", "id": "e1"},
        "flow": "CO2", "direction": "output", "amount": "5", "unit": "kg",
        "scope": "scope1",
    }])
    with pytest.raises(UnknownScopeError):
        parse_annotations(json.dumps(doc), scopes_override=parse_scope_set("lca"))


def test_per_instance_expansion_count():
    log = shipping_log(n_ship=3)
    doc = bundle_doc(assignments=[{
        "component": {"kind": "activity_type", "id": "ship"},
        "flow": "CO2", "direction": "output", "amount": "5", "unit": "kg",
        "basis": "per_instance",
    }])
    al = bind_annotations(log, parse_annotations(json.dumps(doc)))
    # brute-force expansion count: one per ship event
    ship_events = [e for e in log.events if e.activity == "ship"]
    assert len(al.resolved) == len(ship_events) == 3
    assert {ref.id for ref, _ in al.resolved} == {e.event_id for e in ship_events}
    # conservation: instances x per-instance amount, exactly
    total = sum((a.quantity.amount for _, a in al.resolved), Decimal(0))
    assert total == Decimal(5) * len(ship_events)


def test_absolute_process_assignment_resolves_once():
    log = shipping_log()
    doc = bundle_doc(assignments=[{
        "component": {"kind": "process"},
        "flow": "CO2", "direction": "output", "amount": "7", "unit": "kg",
    }])
    al = bind_annotations(log, parse_annotations(json.dumps(doc)))
    assert len(al.resolved) == 1
    assert al.resolved[0][0].kind is ComponentKind.PROCESS


def test_dangling_component_rejected_at_bind():
    log = shipping_log()
    doc = bundle_doc(assignments=[{
        "component": {"kind": "activity_instance", "id": "eX"},
        "flow": "CO2", "direction": "output", "amount": "5", "unit": "kg",
    }])
    with pytest.raises(UnknownComponentError):
        bind_annotations(log, parse_annotations(json.dumps(doc)))


def test_instance_assignments_are_additive_by_default():
    log = shipping_log(n_ship=2)
    doc = bundle_doc(assignments=[
        {"component": {"kind": "activity_type", "id": "ship"},
         "flow": "CO2", "direction": "output", "amount": "5", "unit": "kg",
         "basis": "per_instance"},
        {"component": {"kind": "activity_instance", "id": "s0"},
         "flow": "CO2", "direction": "output", "amount": "2", "unit": "kg"},
    ])
    al = bind_annotations(log, parse_annotations(json.dumps(doc)))
    amounts = sorted(a.quantity.amount for ref, a in al.resolved if ref.id == "s0")
    assert amounts == [Decimal(2), Decimal(5)]


def test_override_suppresses_type_expansion_for_that_instance():
    log = shipping_log(n_ship=2)
    doc = bundle_doc(assignments=[
        {"component": {"kind": "activity_type", "id": "ship"},
         "flow": "CO2", "direction": "output", "amount": "5", "unit": "kg",
         "basis": "per_instance"},
        {"component": {"kind": "activity_instance", "id": "s0"},
         "flow": "CO2", "direction": "output", "amount": "2", "unit": "kg",
         "override": True},
    ])
    al = bind_annotations(log, parse_annotations(json.dumps(doc)))
    s0 = sorted(a.quantity.amount for ref, a in al.resolved if ref.id == "s0")
    s1 = sorted(a.quantity.amount for ref, a in al.resolved if ref.id == "s1")
    assert s0 == [Decimal(2)]
    assert s1 == [Decimal(5)]


def test_override_suppresses_only_its_own_component_when_ids_are_shared():
    # event x1 and object x1 share an id; the event's override must not
    # suppress the expansion onto the object
    log = make_log(events=[("x1", "make", "2024-01-01T08:00:00Z", [("x1", "makes")], {})],
                   objects=[("x1", "item", {})])
    doc = bundle_doc(assignments=[
        {"component": {"kind": "object_type", "id": "item"},
         "flow": "CO2", "direction": "output", "amount": "2", "unit": "kg",
         "basis": "per_instance"},
        {"component": {"kind": "activity_instance", "id": "x1"},
         "flow": "CO2", "direction": "output", "amount": "5", "unit": "kg",
         "override": True},
    ])
    al = bind_annotations(log, parse_annotations(json.dumps(doc)))
    assert sorted((str(ref), a.quantity.amount) for ref, a in al.resolved) == [
        ("activity_instance:x1", Decimal(5)), ("object_instance:x1", Decimal(2)),
    ]


_T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
#: One id alphabet for events and objects, so their ids collide.
_SHARED_IDS = ["x1", "x2", "x3"]


@st.composite
def _shared_id_bindings(draw):
    """A small log whose event and object ids share one alphabet, and
    assignments mixing absolute ones, type-level per-instance ones and
    instance-level overrides on its components."""
    event_ids = draw(st.lists(st.sampled_from(_SHARED_IDS), unique=True))
    object_ids = draw(st.lists(st.sampled_from(_SHARED_IDS), unique=True))
    events = [Event(i, draw(st.sampled_from(["make", "ship"])), _T0) for i in event_ids]
    objects = [ObjectInstance(i, draw(st.sampled_from(["item", "box"]))) for i in object_ids]
    log = EventLog({e.activity for e in events}, {o.object_type for o in objects}, events, objects)
    types = sorted({ComponentRef(ComponentKind.ACTIVITY_TYPE, e.activity) for e in events}
                   | {ComponentRef(ComponentKind.OBJECT_TYPE, o.object_type) for o in objects})
    instances = [e.ref for e in events] + [o.ref for o in objects]
    assignments = []
    for choice in draw(st.lists(st.sampled_from(["absolute", "expand", "override"]), max_size=8)):
        if choice == "absolute":
            component = draw(st.sampled_from([ComponentRef(ComponentKind.PROCESS), *types, *instances]))
        else:
            pool = types if choice == "expand" else instances
            if not pool:
                continue
            component = draw(st.sampled_from(pool))
        flow = draw(st.sampled_from(["CO2", "CH4"]))
        direction = draw(st.sampled_from(list(Direction)))
        quantity = Quantity(Decimal(draw(st.integers(1, 9))), "kg")
        basis = Basis.PER_INSTANCE if choice == "expand" else Basis.ABSOLUTE
        assignments.append(FlowAssignment(component, flow, direction, quantity, None, basis, choice == "override"))
    return log, assignments


def _expected_resolved(log, assignments):
    """Every absolute assignment as given, and each per-instance one on
    every instance of its type, unless an override names that exact
    component, flow and direction."""
    def overridden(kind, component_id, a):
        return any(b.override and b.component.kind is kind and b.component.id == component_id
                   and b.flow == a.flow and b.direction is a.direction for b in assignments)

    expected = []
    for a in assignments:
        if a.basis is Basis.ABSOLUTE:
            expected.append((a.component, a))
            continue
        if a.component.kind is ComponentKind.ACTIVITY_TYPE:
            kind = ComponentKind.ACTIVITY_INSTANCE
            ids = [e.event_id for e in log.events if e.activity == a.component.id]
        else:
            kind = ComponentKind.OBJECT_INSTANCE
            ids = [o.object_id for o in log.objects if o.object_type == a.component.id]
        expected += [(ComponentRef(kind, i), a) for i in ids if not overridden(kind, i, a)]
    return expected


@settings(max_examples=150, deadline=None)
@given(_shared_id_bindings())
def test_overrides_suppress_expansions_by_component(case):
    log, assignments = case
    bundle = dataclasses.replace(empty_bundle(), assignments=assignments)
    assert bind_annotations(log, bundle).resolved == _expected_resolved(log, assignments)


_GHG = SCOPE_PRESETS["ghg"]
_TYPE_KINDS = {ComponentKind.ACTIVITY_TYPE, ComponentKind.OBJECT_TYPE}
_INSTANCE_KINDS = {ComponentKind.ACTIVITY_INSTANCE, ComponentKind.OBJECT_INSTANCE}


@functools.cache
def _demo_log():
    """The demo log, read once: a Hypothesis test takes no function-scoped fixture."""
    return parse_ocel(fixture_path("ocel/mineral_water.json").read_bytes())


@functools.cache
def _demo_components():
    """Every component of the demo log, by kind."""
    log = _demo_log()
    ids = {
        ComponentKind.ACTIVITY_TYPE: sorted(log.activity_types),
        ComponentKind.OBJECT_TYPE: sorted(log.object_types),
        ComponentKind.ACTIVITY_INSTANCE: [e.event_id for e in log.events],
        ComponentKind.OBJECT_INSTANCE: [o.object_id for o in log.objects],
    }
    return {ComponentKind.PROCESS: [ComponentRef(ComponentKind.PROCESS)],
            **{kind: [ComponentRef(kind, i) for i in names] for kind, names in ids.items()}}


def _assignment_fault(a: FlowAssignment) -> bool:
    """Whether a bundle under the ghg preset and the default registry must reject ``a``."""
    return (a.quantity.unit not in UnitRegistry().units
            or (a.scope is not None and a.scope not in _GHG)
            or (a.basis is Basis.PER_INSTANCE and a.component.kind not in _TYPE_KINDS)
            or (a.override and a.component.kind not in _INSTANCE_KINDS))


def _rule_fault(rules, i) -> bool:
    """Whether a bundle must reject ``rules[i]``."""
    rule = rules[i]
    if rule.targets == RELATED_EVENTS:
        misplaced = rule.source.kind is not ComponentKind.OBJECT_INSTANCE
    else:
        misplaced = rule.qualifier is not None
    return misplaced or not 0 <= rule.fraction <= 1 or any(r.source == rule.source for r in rules[:i])


@st.composite
def _code_built_bundles(draw):
    """Assignments and allocation rules on the demo log. Half the bundles
    draw only sound values; the others draw each field's faulty values too."""
    sound = draw(st.booleans())
    components = _demo_components()
    every_component = [c for refs in components.values() for c in refs]
    any_component = st.sampled_from(list(ComponentKind)).flatmap(lambda kind: st.sampled_from(components[kind]))

    def field(good, bad):
        return st.sampled_from(good if sound else good + bad)

    assignments = []
    for _ in range(draw(st.integers(0, 5))):
        component = draw(any_component)
        if component.kind in _TYPE_KINDS:
            basis = draw(field(list(Basis), []))
        else:
            basis = draw(field([Basis.ABSOLUTE], [Basis.PER_INSTANCE]))
        override = draw(field([False, True], []) if component.kind in _INSTANCE_KINDS else field([False], [True]))
        quantity = Quantity(Decimal(draw(st.integers(-9, 9))), draw(field(["kg"], ["stone"])))
        scope = draw(field([None, "scope1", "scope3"], ["scope9"]))
        direction = draw(st.sampled_from(list(Direction)))
        assignments.append(FlowAssignment(component, "CO2", direction, quantity, scope, basis, override))
    rules: list[AllocationRule] = []
    for _ in range(draw(st.integers(0, 3))):
        explicit = draw(st.booleans())
        # a related_events source must be an object, and no source may repeat
        fresh = [c for c in (every_component if explicit else components[ComponentKind.OBJECT_INSTANCE])
                 if c not in {r.source for r in rules}]
        source = draw(field(fresh, [c for c in every_component if c not in fresh]))
        targets = draw(st.lists(any_component, min_size=1, max_size=2).map(tuple)) if explicit else RELATED_EVENTS
        qualifier = draw(field([None], ["uses"]) if explicit else field([None, "uses"], []))
        fraction = Decimal(draw(field(["0", "0.5", "1"], ["-0.5", "2"])))
        rules.append(AllocationRule(source, targets, fraction=fraction, qualifier=qualifier))
    return assignments, rules


@settings(max_examples=200, deadline=None)
@given(_code_built_bundles())
def test_a_bundle_built_in_code_is_rejected_or_conserves_its_inventory(case):
    assignments, rules = case
    faulty = ([f"assignment #{i}: " for i, a in enumerate(assignments) if _assignment_fault(a)]
              + [f"allocation #{i}: " for i in range(len(rules)) if _rule_fault(rules, i)])
    try:
        bundle = AnnotationBundle(assignments, CharacterizationTable(), _GHG, rules, UnitRegistry())
    except SusmineError as exc:
        assert str(exc).startswith(tuple(faulty)), (str(exc), faulty)
        return
    assert faulty == []
    if any(a.override for a in assignments):
        return  # an override suppresses expansions by design
    log = _demo_log()
    inventory = direct_inventory(bind_annotations(log, bundle))
    expected = sum(a.quantity.amount * (len(log.members(a.component)) if a.basis is Basis.PER_INSTANCE else 1)
                   for a in assignments)
    assert sum(q.amount for q in inventory.entries.values()) == expected


def test_a_factor_on_an_undeclared_category_is_rejected_when_the_table_is_built():
    entries = {("CO2", "kg"): TableEntry("CO2", "kg", None, {"climate_change": 1.0})}
    with pytest.raises(SchemaError) as info:
        CharacterizationTable(entries=entries)
    assert str(info.value) == "factor entry 'CO2': undeclared category 'climate_change'"


@pytest.mark.parametrize("where, edit", [
    ("assignment #0", lambda b: dataclasses.replace(b, assignments=[FlowAssignment(
        ComponentRef(ComponentKind.PROCESS), "CO2", Direction.OUTPUT, Quantity(Decimal(5), "stone"))])),
    ("factor entry for 'CO2'", lambda b: dataclasses.replace(b, table=CharacterizationTable(
        entries={("CO2", "stone"): TableEntry("CO2", "stone", None, {"climate_change": 1.0})},
        categories=b.table.categories))),
], ids=["assignment", "factor"])
def test_an_unknown_unit_is_rejected_when_the_bundle_is_built(where, edit, demo_bundle):
    with pytest.raises(UnknownUnitError) as info:
        edit(demo_bundle)
    assert str(info.value) == f"{where}: unit 'stone' not in registry"


def test_annotated_log_is_the_bound_bundle(demo_log, demo_bundle):
    al = bind_annotations(demo_log, demo_bundle)
    assert isinstance(al, AnnotationBundle)
    assert [f.name for f in dataclasses.fields(AnnotatedLog)] == [
        *(f.name for f in dataclasses.fields(AnnotationBundle)), "log", "resolved",
    ]
    for f in dataclasses.fields(AnnotationBundle):
        assert getattr(al, f.name) is getattr(demo_bundle, f.name)
    assert al.log is demo_log
    # a bound bundle binds again, to its bundle fields only
    again = bind_annotations(demo_log, al)
    assert again.resolved == al.resolved and again.rules is al.rules


def test_empty_bundle_binds_to_empty_annotated_log():
    al = bind_annotations(shipping_log(), empty_bundle())
    assert al.resolved == []


def test_duplicate_factor_entry_rejected():
    doc = bundle_doc()
    doc["characterization"]["factors"].append(
        {"flow": "CO2", "unit": "kg", "factors": {"climate_change": 2.0}}
    )
    with pytest.raises(SchemaError):
        parse_annotations(json.dumps(doc))


def test_undeclared_category_rejected():
    doc = bundle_doc()
    doc["characterization"]["factors"][0]["factors"]["mystery"] = 1.0
    with pytest.raises(SchemaError):
        parse_annotations(json.dumps(doc))


def test_allocation_fraction_bounds():
    doc = bundle_doc(allocations=[{
        "source": {"kind": "object_instance", "id": "o1"},
        "targets": "related_events",
        "key": "equal",
        "fraction": "1.5",
    }])
    with pytest.raises(SchemaError):
        parse_annotations(json.dumps(doc))


def test_unit_conversions_parse_into_registry():
    doc = bundle_doc(units={
        "declare": ["bottle_crate"],
        "conversions": [{"from": "bottle_crate", "to": "kg", "factor": "9"}],
    })
    bundle = parse_annotations(json.dumps(doc))
    assert bundle.registry.factor("bottle_crate", "kg") == Decimal(9)


def _set_amount(doc):
    doc["assignments"] = [{
        "component": {"kind": "process"}, "flow": "CO2", "direction": "output",
        "amount": True, "unit": "kg",
    }]


def _set_fraction(doc):
    doc["allocations"] = [{"source": {"kind": "object_instance", "id": "o1"}, "fraction": True}]


def _set_factor(doc):
    doc["characterization"]["factors"][0]["factors"]["climate_change"] = True


def _set_conversion(doc):
    doc["units"] = {"declare": ["crate"], "conversions": [{"from": "crate", "to": "kg", "factor": True}]}


@pytest.mark.parametrize("edit, field", [
    (_set_amount, "assignment #0 amount"),
    (_set_fraction, "allocation #0 fraction"),
    (_set_factor, "factor CO2->climate_change"),
    (_set_conversion, "conversion crate->kg"),
])
def test_json_booleans_are_not_numbers(edit, field):
    doc = bundle_doc()
    edit(doc)
    with pytest.raises(SchemaError, match=f"{field}: expected a number, got true$"):
        parse_annotations(json.dumps(doc))


@pytest.mark.parametrize("edit, field", [
    (_set_amount, "assignment #0 amount"),
    (_set_factor, "factor CO2->climate_change"),
    (_set_conversion, "conversion crate->kg"),
])
def test_json_numbers_beyond_float_range_rejected(edit, field):
    # valid JSON and a finite decimal, but impact arithmetic is in floats
    doc = bundle_doc()
    edit(doc)
    text = json.dumps(doc).replace("true", "1e400")
    with pytest.raises(SchemaError, match=f"{field}: 1E[+]400 overflows a float"):
        parse_annotations(text)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("edit, field", [
    (_set_amount, "assignment #0 amount"),
    (_set_fraction, "allocation #0 fraction"),
    (_set_factor, "factor CO2->climate_change"),
    (_set_conversion, "conversion crate->kg"),
])
def test_json_non_finite_constants_rejected(edit, field, token):
    # Python's json reads these tokens; they are numbers that are not finite
    doc = bundle_doc()
    edit(doc)
    with pytest.raises(SchemaError) as excinfo:
        parse_annotations(json.dumps(doc).replace("true", token))
    assert str(excinfo.value) == f"{field}: amount must be finite"


@pytest.mark.parametrize("digits", [401, 5000])
@pytest.mark.parametrize("edit, field", [
    (_set_amount, "assignment #0 amount"),
    (_set_factor, "factor CO2->climate_change"),
    (_set_conversion, "conversion crate->kg"),
])
def test_json_integers_beyond_float_range_rejected(edit, field, digits):
    # 5000 digits is also past the digit limit of int(): decimals have none
    doc = bundle_doc()
    edit(doc)
    text = json.dumps(doc).replace("true", "1" + "0" * (digits - 1))
    # the message keeps a 24-digit head and the digit count, not the literal
    with pytest.raises(SchemaError, match=rf"{field}: 10{{23}}\.\.\. \({digits} digits\) overflows a float$"):
        parse_annotations(text)


@pytest.mark.parametrize("value", [None, 5, True])
@pytest.mark.parametrize("section, field", [("characterization", "factors"), ("units", "conversions")])
def test_bundle_arrays_must_be_arrays(section, field, value):
    doc = bundle_doc()
    doc.setdefault(section, {})[field] = value
    with pytest.raises(SchemaError) as excinfo:
        parse_annotations(json.dumps(doc))
    assert str(excinfo.value) == f"'{section}': '{field}' must be an array, got {json.dumps(value)}"


def grammar_doc():
    """``bundle_doc()`` with at least one record of every kind of the grammar."""
    component = {"kind": "activity_instance", "id": "e1"}
    return bundle_doc(
        units={"declare": ["crate"], "conversions": [{"from": "crate", "to": "kg", "factor": "9"}]},
        scopes={"name": "site", "scopes": ["scope1", "scope3"]},
        assignments=[{"component": component, "flow": "CO2", "direction": "output",
                      "amount": "5", "unit": "kg", "scope": "scope1"}],
        allocations=[
            {"source": {"kind": "object_instance", "id": "o1"}, "key": {"attribute": "mass_kg"}, "fraction": "1"},
            {"source": {"kind": "object_instance", "id": "o2"}, "targets": [dict(component)]},
        ],
    )


def test_grammar_doc_parses():
    bundle = parse_annotations(json.dumps(grammar_doc()))
    assert len(bundle.assignments) == 1 and len(bundle.rules) == 2


@pytest.mark.parametrize("path, renamed, key, prefix", [
    ((), None, "extra", "annotation bundle"),
    (("units",), None, "extra", "'units'"),
    (("units", "conversions", 0), None, "extra", "units.conversions"),
    (("scopes",), None, "extra", "custom scope set"),
    (("assignments", 0, "component"), None, "extra", "assignment #0 component"),
    (("assignments", 0), "scope", "scop", "assignment #0"),
    (("assignments", 0), None, "overide", "assignment #0"),
    (("characterization",), None, "extra", "'characterization'"),
    (("characterization", "categories", "climate_change"), None, "extra", "category 'climate_change'"),
    (("characterization", "factors", 0), None, "extra", "characterization.factors"),
    (("allocations", 0), "fraction", "fration", "allocation #0"),
    (("allocations", 0, "source"), None, "extra", "allocation #0 source"),
    (("allocations", 0, "key"), None, "extra", "allocation #0 key"),
    (("allocations", 1, "targets", 0), None, "extra", "allocation #1 target"),
], ids=["document", "units", "conversion", "scope-set", "component", "assignment-scop", "assignment-overide",
        "characterization", "category", "factor-entry", "rule", "rule-source", "rule-key", "rule-target"])
def test_every_record_kind_rejects_an_unknown_key(path, renamed, key, prefix):
    doc = grammar_doc()
    record = doc
    for step in path:
        record = record[step]
    record[key] = record.pop(renamed) if renamed else True
    with pytest.raises(SchemaError) as excinfo:
        parse_annotations(json.dumps(doc))
    assert str(excinfo.value) == f"{prefix}: unsupported key(s) ['{key}']"


@pytest.mark.parametrize("path, field, message", [
    ((), "units", "annotation bundle: 'units' must be an object, got null"),
    ((), "scopes", "'scopes' must be a preset name or {name, scopes}, got null"),
    ((), "characterization", "annotation bundle: 'characterization' must be an object, got null"),
    (("assignments", 0), "scope", "assignment #0: 'scope' must be a string, got null"),
    (("assignments", 0), "basis", "assignment #0: basis must be 'absolute' or 'per_instance', got null"),
    (("assignments", 0), "override", "assignment #0: 'override' must be a boolean, got null"),
    (("characterization", "factors", 0), "direction",
     "factor entry 'CO2': direction must be 'input' or 'output', got null"),
    (("allocations", 0), "key",
     "allocation #0: 'key' must be 'equal', 'mass', 'economic_value' or an object, got null"),
    (("allocations", 0), "qualifier", "allocation #0: 'qualifier' must be a string, got null"),
    (("allocations", 0), "fraction", "allocation #0 fraction: expected a number, got null"),
], ids=["units", "scopes", "characterization", "assignment-scope", "assignment-basis", "assignment-override",
        "factor-direction", "rule-key", "rule-qualifier", "rule-fraction"])
def test_null_is_not_an_absent_optional_field(path, field, message):
    doc = grammar_doc()
    record = doc
    for step in path:
        record = record[step]
    record.pop(field, None)
    parse_annotations(json.dumps(doc))
    record[field] = None
    with pytest.raises(SchemaError) as excinfo:
        parse_annotations(json.dumps(doc))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("path, field, value, message", [
    (("assignments", 0), "direction", 5, "assignment #0: direction must be 'input' or 'output', got 5"),
    (("assignments", 0), "direction", "sideways",
     "assignment #0: direction must be 'input' or 'output', got \"sideways\""),
    (("assignments", 0), "direction", ["output"],
     "assignment #0: direction must be 'input' or 'output', got an array"),
    (("assignments", 0), "flow", "", "assignment #0: 'flow' must be a non-empty string, got \"\""),
    (("assignments", 0), "override", "y" * 50,
     "assignment #0: 'override' must be a boolean, got \"yyyyyyyyyyyyyyyyyyyyyyy... (52 characters)"),
    (("allocations", 0), "key", "weight",
     "allocation #0: 'key' must be 'equal', 'mass', 'economic_value' or an object, got \"weight\""),
], ids=["number", "string", "array", "empty-string", "long-string", "key"])
def test_messages_show_the_json_literal(path, field, value, message):
    # numbers are read as decimals; the message shows the literal, not Decimal('5')
    doc = grammar_doc()
    doc[path[0]][path[1]][field] = value
    with pytest.raises(SchemaError) as excinfo:
        parse_annotations(json.dumps(doc))
    assert str(excinfo.value) == message


def test_category_names_are_data_not_grammar():
    doc = grammar_doc()
    doc["characterization"]["categories"]["land_use"] = {"impact_unit": "m2a", "class": "environmental"}
    assert set(parse_annotations(json.dumps(doc)).table.categories) == {"climate_change", "land_use"}


def test_missing_assignment_keys_are_named_in_grammar_order():
    doc = grammar_doc()
    del doc["assignments"][0]["unit"], doc["assignments"][0]["flow"]
    with pytest.raises(SchemaError) as excinfo:
        parse_annotations(json.dumps(doc))
    assert str(excinfo.value) == "assignment #0: missing required key 'flow'"


def _unsorted_factor_entries():
    """Several units per flow, listed out of (flow, unit) order."""
    return [
        ("energy", "kWh", 0.4), ("CO2", "kg", 1.0), ("energy", "MJ", 0.1),
        ("CH4", "kg", 28.0), ("energy", "Wh", 0.0004), ("CO2", "g", 0.001),
    ]


def _tables_from_every_constructor():
    rows = _unsorted_factor_entries()
    json_table = parse_annotations(json.dumps(bundle_doc(characterization={
        "categories": {"climate_change": {"impact_unit": "kg CO2e", "class": "climate"}},
        "factors": [{"flow": f, "unit": u, "factors": {"climate_change": x}} for f, u, x in rows],
    }))).table
    direct_table = CharacterizationTable(
        entries={(f, u): TableEntry(f, u, None, {"climate_change": x}) for f, u, x in rows},
        categories={"climate_change": CategoryInfo("kg CO2e", ImpactClass.CLIMATE)},
    )
    return [json_table, direct_table, empty_bundle().table]


def test_entries_for_flow_equals_sorted_scan():
    for table in _tables_from_every_constructor():
        for flow in ["energy", "CO2", "CH4", "no_such_flow"]:
            expected = [e for (f, _), e in sorted(table.entries.items()) if f == flow]
            assert table.entries_for_flow(flow) == expected, flow
        # a caller may change the list it gets without touching the table
        table.entries_for_flow("energy").clear()
        assert len(table.entries_for_flow("energy")) == (3 if table.entries else 0)


def test_table_entries_are_read_only_after_construction():
    source = {("CO2", "kg"): TableEntry("CO2", "kg", None, {"climate_change": 1.0})}
    categories = {"climate_change": CategoryInfo("kg CO2e", ImpactClass.CLIMATE)}
    direct = CharacterizationTable(entries=source, categories=categories)
    source[("CH4", "kg")] = TableEntry("CH4", "kg", None, {"climate_change": 28.0})
    assert direct.entries_for_flow("CH4") == [] and ("CH4", "kg") not in direct.entries
    for table in [*_tables_from_every_constructor(), direct]:
        with pytest.raises(TypeError):
            table.entries[("noise", "h")] = TableEntry("noise", "h", None, {})
        with pytest.raises(AttributeError):
            table.entries = {}


def _assignment(**fields):
    return {"component": {"kind": "activity_instance", "id": "p1"}, "flow": "CO2",
            "direction": "output", "amount": "5", "unit": "kg", **fields}


def _bind_with_scope(scope):
    bundle = parse_annotations(json.dumps(bundle_doc(assignments=[_assignment()])))
    assignment = dataclasses.replace(bundle.assignments[0], scope=scope)
    bind_annotations(shipping_log(), dataclasses.replace(bundle, assignments=[assignment]))


def _bind_in_scope_set(name):
    bundle = parse_annotations(json.dumps(bundle_doc(assignments=[_assignment(scope="scope1")])))
    bind_annotations(shipping_log(), dataclasses.replace(bundle, scope_set=ScopeSet(name, ("site",))))


def _bind_on(kind):
    """Binds one assignment on a ``kind`` component with the given id to ``shipping_log()``."""
    def bind(component_id):
        doc = bundle_doc(assignments=[_assignment(component={"kind": kind, "id": component_id})])
        bind_annotations(shipping_log(), parse_annotations(json.dumps(doc)))
    return bind


def _scope_set_doc(name, labels):
    return bundle_doc(scopes={"name": name, "scopes": labels}, assignments=[_assignment(scope="elsewhere")])


def _assess_flow(*assignments, factor=None):
    """Runs the strict pipeline over ``shipping_log()`` with assignments of
    one flow, given as (amount, unit) pairs and named by the returned
    function's argument; ``factor`` gives the flow a climate factor in kg."""
    def assess(flow):
        doc = bundle_doc(assignments=[_assignment(flow=flow, amount=a, unit=u) for a, u in assignments])
        if factor is not None:
            doc["characterization"]["factors"] = [{"flow": flow, "unit": "kg", "factors": {"climate_change": factor}}]
        run_pipeline(shipping_log(), parse_annotations(json.dumps(doc)))
    return assess


def _assess_on_event(*assignments, factor=1):
    """Runs the strict pipeline with CO2 assignments, given as (amount,
    unit) pairs, on one event named by the returned function's argument;
    ``factor`` is CO2's climate factor in kg."""
    def assess(event_id):
        log = make_log(events=[(event_id, "pack", "2024-01-01T07:00:00Z", [], {})])
        component = {"kind": "activity_instance", "id": event_id}
        doc = bundle_doc(assignments=[_assignment(component=component, amount=a, unit=u) for a, u in assignments])
        doc["characterization"]["factors"][0]["factors"]["climate_change"] = factor
        run_pipeline(log, parse_annotations(json.dumps(doc)))
    return assess


def _scale(log, object_type, attribute=None):
    """Scales ``log`` to one unit of ``object_type``, measured by ``attribute``."""
    unit = FunctionalUnit(object_type, Quantity(Decimal(1), "count"), attribute)
    functional_unit_scale(bind_annotations(log, empty_bundle()), unit)


def _allocate(*values):
    """Runs the strict pipeline with one related_events rule keyed on an
    attribute. The returned function's argument is the rule's source
    object's id, the attribute's name and, with an index appended, the id
    of each related event; ``values`` gives each event's value of the
    attribute, None for none."""
    def allocate(name):
        events = [(f"{name}{i}", "run", "2024-01-01T08:00:00Z", [(name, "uses")], {} if v is None else {name: v})
                  for i, v in enumerate(values)]
        log = make_log(events=events, objects=[(name, "machine", {})])
        rule = {"source": {"kind": "object_instance", "id": name}, "key": {"attribute": name}}
        run_pipeline(log, parse_annotations(json.dumps(bundle_doc(allocations=[rule]))))
    return allocate


def _parse_rules(*sources):
    """Parses one related_events rule per (kind, id) source."""
    rules = [{"source": {"kind": kind, "id": cid}} for kind, cid in sources]
    parse_annotations(json.dumps(bundle_doc(allocations=rules)))


def _log_with_repeated_attribute(name):
    doc = make_log_doc(objects=[("o1", "order", {})])
    doc["objects"][0]["attributes"] = [{"name": name, "value": 1}, {"name": name, "value": 2}]
    parse_ocel(json.dumps(doc))


#: A 5,000-character literal as a message shows it: its first 24 characters and its length.
_ABBREVIATED = f"{'x' * 24}... (5000 characters)"
#: So is a component with that id.
_EVENT = f"activity_instance:{'x' * 6}... (5018 characters)"
_OBJECT = f"object_instance:{'x' * 8}... (5016 characters)"


@pytest.mark.parametrize("load, shown", [
    (lambda v: parse_ocel(json.dumps(make_log_doc(events=[("e1", "a", v, [], {})]))), f"'{_ABBREVIATED}'"),
    (lambda v: parse_annotations(json.dumps(bundle_doc(assignments=[_assignment(scope=v)]))), f"'{_ABBREVIATED}'"),
    (_bind_with_scope, f"'{_ABBREVIATED}'"),
    (lambda v: parse_annotations(json.dumps(bundle_doc(assignments=[_assignment(unit=v)]))), f"'{_ABBREVIATED}'"),
    (lambda v: parse_annotations(json.dumps(bundle_doc(characterization={"factors": [{"flow": "CO2", "unit": v}]}))),
     f"'{_ABBREVIATED}'"),
    (lambda v: UnitRegistry(conversions={(v, "kg"): Decimal(1)}), f"'{_ABBREVIATED}'"),
    (lambda v: UnitRegistry().factor("kg", v), f"'{_ABBREVIATED}'"),
    (parse_scope_set, f"'{_ABBREVIATED}'"),
    (_bind_in_scope_set, f"not in scope set '{_ABBREVIATED}'"),
    (lambda v: parse_annotations(json.dumps(_scope_set_doc(v, ["scope1"]))), f"'{_ABBREVIATED}' ['scope1']"),
    (lambda v: parse_annotations(json.dumps(_scope_set_doc("site", [v]))),
     f"'site' ['{'x' * 22}... (5004 characters)"),
    (lambda v: parse_annotations(json.dumps(bundle_doc(characterization={"factors": [{"flow": v, "unit": "t"}]}))),
     f"factor entry for '{_ABBREVIATED}'"),
    (lambda v: parse_annotations(json.dumps(bundle_doc(characterization={
        "factors": [{"flow": "CO2", "unit": "kg", "factors": {v: 1}}]}))),
     f"factor entry 'CO2': undeclared category '{_ABBREVIATED}'"),
    (lambda v: parse_annotations(json.dumps(bundle_doc(characterization={
        "categories": {v: {"impact_unit": "kg CO2e", "class": "mass"}}}))),
     f"category '{_ABBREVIATED}': class must be"),
    (lambda v: parse_annotations(json.dumps(bundle_doc(units={
        "conversions": [{"from": v, "to": "kg", "factor": True}]}))),
     f"conversion {_ABBREVIATED}->kg: expected a number, got true"),
    (_bind_on("activity_type"), f"unknown activity type '{_ABBREVIATED}'"),
    (_bind_on("object_type"), f"unknown object type '{_ABBREVIATED}'"),
    (_bind_on("activity_instance"), f"unknown event '{_ABBREVIATED}'"),
    (_bind_on("object_instance"), f"unknown object '{_ABBREVIATED}'"),
    (lambda v: parse_ocel(json.dumps(make_log_doc(events=[(v, "a", "never", [], {})]))),
     f"event '{_ABBREVIATED}': unparseable time 'never'"),
    (lambda v: parse_ocel(json.dumps(make_log_doc(objects=[(v, "order", {"size": [1]})]))),
     f"object '{_ABBREVIATED}': attribute 'size' must be a scalar"),
    (lambda v: parse_ocel(json.dumps(make_log_doc(activity_types=[v, v]))), f"type '{_ABBREVIATED}' is repeated"),
    (_log_with_repeated_attribute, f"object 'o1': attribute '{_ABBREVIATED}' is repeated"),
    (_assess_flow(("5", "kg")), f"no characterization entry for flow '{_ABBREVIATED}' [kg, output]"),
    (lambda v: UnitRegistry(units={v}, conversions={(v, "kg"): Decimal(0)}),
     f"conversion factor {_ABBREVIATED}->kg must be"),
    (lambda v: UnitRegistry(units={v}, conversions={(v, "kg"): Decimal(2), ("kg", v): Decimal(2)}),
     f"conversions {_ABBREVIATED}->kg and kg->{_ABBREVIATED} are inconsistent"),
    (lambda v: UnitRegistry(units={v}, conversions={(v, "kg"): Decimal(2), (v, "g"): Decimal(1)}),
     f"conversion {_ABBREVIATED}->kg=2 disagrees"),
    (_assess_flow(("5", "kWh"), factor=1), f"to any table unit for flow '{_ABBREVIATED}'"),
    (_assess_flow(("1e300", "kg"), factor=1e300), f"flow '{_ABBREVIATED}' in category 'climate_change' overflows"),
    (_assess_flow(("5", "kg"), ("5", "g"), factor=1), f"flow '{_ABBREVIATED}' on activity_instance:p1 mixes units"),
    (_assess_flow(("1E+300", "kg"), ("1E-800", "kg"), factor=1),
     f"flow '{_ABBREVIATED}' on activity_instance:p1 sums 1E+300 and 1E-800 beyond"),
    (_assess_on_event(("5", "kg"), ("5", "g")), f"on {_EVENT} mixes units"),
    (_assess_on_event(("1E+300", "kg"), ("1E-800", "kg")), f"on {_EVENT} sums 1E+300 and 1E-800 beyond"),
    (_assess_on_event(("1e300", "kg"), factor=1e300), f"{_EVENT}: flow 'CO2' in category 'climate_change' overflows"),
    (lambda v: _scale(make_log(objects=[(v, "order", {"size": "big"})]), "order", "size"),
     f"object '{_ABBREVIATED}': attribute 'size' is not"),
    (lambda v: _scale(make_log(objects=[("o1", "order", {v: "big"})]), "order", v),
     f"object 'o1': attribute '{_ABBREVIATED}' is not"),
    (lambda v: _scale(make_log(object_types=[v]), v), f"no measured output of object type '{_ABBREVIATED}'"),
    (lambda v: _scale(shipping_log(), v), f"unknown object type '{_ABBREVIATED}'"),
    (_allocate(), f"rule on {_OBJECT} selected no targets"),
    (_allocate(None), f"lacks numeric attribute '{_ABBREVIATED}' required by key 'attribute:{'x' * 14}..."),
    (_allocate(-1), f"target activity_instance:{'x' * 6}... (5019 characters): attribute '{_ABBREVIATED}'"
                    " is negative"),
    (_allocate(1e308, 1e308), f"{_OBJECT}: '{_ABBREVIATED}' values sum beyond float range"),
    (lambda v: _parse_rules(("object_instance", v), ("object_instance", v)),
     f"allocation #1: source {_OBJECT} is already named by allocation #0"),
    (lambda v: _parse_rules(("activity_type", v)), f"got activity_type:{'x' * 10}... (5014 characters)"),
    (lambda v: parse_annotations(json.dumps(bundle_doc(**{v: 1}))), f"unsupported key(s) ['{_ABBREVIATED}']"),
], ids=["event-time", "assignment-scope", "bound-scope", "assignment-unit", "factor-unit",
        "conversion-unit", "registry-unit", "scope-preset", "bound-scope-set-name", "scope-set-name",
        "scope-set-labels", "factor-flow", "undeclared-category", "category-declaration",
        "bundle-conversion-unit", "unknown-activity-type", "unknown-object-type", "unknown-event", "unknown-object",
        "event-id", "object-id", "type-name", "attribute-name", "uncharacterized-flow", "conversion-factor",
        "inconsistent-conversions", "disagreeing-conversion", "no-conversion-path", "overflowing-flow",
        "mixed-units", "inexact-sum", "mixed-units-component", "inexact-sum-component", "overflowing-component",
        "fu-object-id", "fu-attribute-name", "fu-zero-output", "fu-unknown-type", "no-targets",
        "missing-key-attribute", "negative-key-attribute", "key-sum-overflow", "duplicate-source",
        "related-events-source", "unknown-key"])
def test_long_input_literals_are_abbreviated_in_messages(load, shown):
    literal = "x" * 5000
    with pytest.raises(SusmineError) as info:
        load(literal)
    message = str(info.value)
    assert shown in message
    assert len(message) < 200


def test_uncharacterized_flow_error_keeps_its_flow_and_unit_whole():
    flow, unit = "f" * 5000, "u" * 5000
    error = UncharacterizedFlowError(flow, unit, "output")
    assert (error.flow, error.unit) == (flow, unit)
    assert len(str(error)) < 200
