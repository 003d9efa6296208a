import json
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from susmine import (
    ComponentKind,
    ComponentRef,
    FunctionalUnit,
    InexactSumError,
    Quantity,
    UnitMismatchError,
    UnknownComponentError,
    ZeroOutputError,
    bind_annotations,
    parse_annotations,
    parse_ocel,
)
from susmine.inventory import (
    SUM_DIGITS,
    InvKey,
    Inventory,
    direct_inventory,
    functional_unit_scale,
    rollup_inventory,
)
from susmine.errors import abbreviate
from susmine.model import PROCESS_REF, Direction, UNSCOPED
from susmine.pipeline import run_pipeline
from susmine.generator import generate_bundle
from susmine.report import inventory_to_csv

from conftest import make_log
from oracles import rendered
from test_annotations import bundle_doc, shipping_log
from test_model import lenient_log


def bound(log, assignments, **doc_overrides):
    doc = bundle_doc(assignments=assignments, **doc_overrides)
    return bind_annotations(log, parse_annotations(json.dumps(doc)))


def instance_assignment(eid, amount, flow="CO2", unit="kg", scope=None, direction="output"):
    a = {"component": {"kind": "activity_instance", "id": eid},
         "flow": flow, "direction": direction, "amount": str(amount), "unit": unit}
    if scope:
        a["scope"] = scope
    return a


def component_slice(al, ref):
    """The direct inventory's entries of exactly one component, sorted."""
    return sorted((k, q) for k, q in direct_inventory(al).entries.items() if k.component == ref)


def test_single_output_slice():
    log = shipping_log()
    al = bound(log, [instance_assignment("s0", 5)])
    ((key, q),) = component_slice(al, ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "s0"))
    assert key.flow == "CO2"
    assert key.direction is Direction.OUTPUT
    assert key.scope == UNSCOPED
    assert q == Quantity(Decimal(5), "kg")


def test_component_without_assignments_is_empty():
    log = shipping_log()
    al = bound(log, [instance_assignment("s0", 5)])
    assert len(component_slice(al, ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "s1"))) == 0


def test_two_outputs_merge_exactly():
    log = shipping_log()
    al = bound(log, [instance_assignment("s0", 2), instance_assignment("s0", 3)])
    ((_, q),) = component_slice(al, ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "s0"))
    assert q.amount == Decimal(5)


@pytest.mark.parametrize("amounts, digits, exponent", [
    (("1E+300", "1E-699"), (1,) + (0,) * 998 + (1,), -699),
    (("1", "0E-999"), (1,) + (0,) * 999, -999),
], ids=["1E+300+1E-699", "1+0E-999"])
def test_a_sum_keeps_every_digit_up_to_the_bound(amounts, digits, exponent):
    al = bound(shipping_log(), [instance_assignment("s0", a) for a in amounts])
    ((_, q),) = component_slice(al, ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "s0"))
    assert q.amount.as_tuple() == (0, digits, exponent)
    assert len(digits) == SUM_DIGITS


@pytest.mark.parametrize("amounts", [
    ("1E+300", "0E-400000"),
    ("1E+300", "0E-999999999"),
    ("1", "1E-999999999"),
    ("1E+300", "1E-700"),
    ("1", "0E-1000"),
])
def test_a_sum_beyond_the_digit_bound_is_an_error(amounts):
    al = bound(shipping_log(), [instance_assignment("s0", a) for a in amounts])
    with pytest.raises(InexactSumError, match=f"flow 'CO2' on activity_instance:s0 sums "
                                              f".* beyond {SUM_DIGITS} significant digits"):
        direct_inventory(al)


def test_unknown_component_slice():
    log = shipping_log()
    # a component the log lacks never reaches an inventory: binding rejects it
    with pytest.raises(UnknownComponentError):
        bound(log, [instance_assignment("ghost", 5)])


def test_mixed_units_same_key_rejected():
    log = shipping_log()
    al = bound(log, [
        instance_assignment("s0", 2, flow="residue", unit="kg"),
        instance_assignment("s0", 3, flow="residue", unit="g"),
    ])
    with pytest.raises(UnitMismatchError):
        direct_inventory(al)


def test_rollup_to_activity_type():
    log = shipping_log(n_ship=3)
    al = bound(log, [{
        "component": {"kind": "activity_type", "id": "ship"},
        "flow": "CO2", "direction": "output", "amount": "5", "unit": "kg",
        "basis": "per_instance",
    }])
    inv = rollup_inventory(al, ComponentKind.ACTIVITY_TYPE)
    key = InvKey(ComponentRef(ComponentKind.ACTIVITY_TYPE, "ship"), "CO2", Direction.OUTPUT, UNSCOPED)
    assert inv.entries[key].amount == Decimal(15)


def test_rollup_empty_log():
    log = make_log()
    al = bound(log, [])
    assert len(rollup_inventory(al, ComponentKind.PROCESS).entries) == 0


def test_process_rollup_equals_flat_sum_oracle():
    bundle = generate_bundle(17, 200)
    log = parse_ocel(bundle.log_json)
    al = bind_annotations(log, parse_annotations(bundle.annotations_json))
    inv = rollup_inventory(al, ComponentKind.PROCESS)
    flat = {}
    for _, a in al.resolved:
        key = (a.flow, a.direction, a.scope or UNSCOPED)
        flat[key] = flat.get(key, Decimal(0)) + a.quantity.amount
    got = {(k.flow, k.direction, k.scope): q.amount for k, q in inv.entries.items()}
    assert got == flat


def test_rollup_does_not_cross_kinds():
    log = shipping_log()
    al = bound(log, [
        {"component": {"kind": "object_instance", "id": "o1"},
         "flow": "CO2", "direction": "output", "amount": "9", "unit": "kg"},
    ])
    assert len(rollup_inventory(al, ComponentKind.ACTIVITY_TYPE).entries) == 0
    obj_inv = rollup_inventory(al, ComponentKind.OBJECT_TYPE)
    key = InvKey(ComponentRef(ComponentKind.OBJECT_TYPE, "order"), "CO2", Direction.OUTPUT, UNSCOPED)
    assert obj_inv.entries[key].amount == Decimal(9)


def order_log(n_orders):
    events = [("e1", "deliver", "2024-01-01T08:00:00Z", [], {})]
    objects = [(f"o{i}", "order", {}) for i in range(n_orders)]
    return make_log(events=events, objects=objects)


def fu(amount, object_type="order"):
    return FunctionalUnit(object_type, Quantity(Decimal(str(amount)), "count"))


def per_fu(inv, unit, al):
    return inv.scaled(functional_unit_scale(al, unit)[1])


def test_scale_to_functional_unit():
    log = order_log(3)
    al = bound(log, [instance_assignment("e1", 15)])
    scaled = per_fu(direct_inventory(al), fu(1), al)
    ((_, q),) = scaled.entries.items()
    assert q.amount == Decimal(5)


def test_scale_identity_when_reference_equals_output():
    log = order_log(3)
    al = bound(log, [instance_assignment("e1", 15)])
    scaled = per_fu(direct_inventory(al), fu(3), al)
    ((_, q),) = scaled.entries.items()
    assert q.amount == Decimal(15)


def test_scale_zero_output():
    log = make_log(
        events=[("e1", "deliver", "2024-01-01T08:00:00Z", [], {})],
        objects=[],
        object_types=["order"],
    )
    al = bound(log, [instance_assignment("e1", 15)])
    with pytest.raises(ZeroOutputError):
        functional_unit_scale(al, fu(1))


@pytest.mark.parametrize("amount", ["1e-400", "1e-999999999", "1." + "7" * 60 + "e-400"])
def test_scale_that_underflows_a_float_is_an_error(amount):
    al = bound(order_log(3), [instance_assignment("e1", 15)])
    with pytest.raises(ZeroOutputError) as excinfo:
        functional_unit_scale(al, fu(amount))
    message = str(excinfo.value)
    assert message.startswith("functional unit scale for object type 'order' underflows a float: ")
    assert message.endswith(" / 3") and len(message) < 140
    assert abbreviate(Decimal(amount)) in message


def test_run_pipeline_scales_by_functional_unit_scale():
    log = order_log(3)
    bundle = parse_annotations(json.dumps(bundle_doc(assignments=[instance_assignment("e1", "13.37")])))
    al = bind_annotations(log, bundle)
    unit = fu("0.7")
    result = run_pipeline(log, bundle, fu=unit)
    output, scale = functional_unit_scale(al, unit)
    assert (result.fu_output, result.fu_scale) == (output, scale) == (Decimal(3), Decimal("0.7") / 3)
    assert result.fu_inventory == rollup_inventory(al, ComponentKind.PROCESS).scaled(scale)


def test_scale_by_measured_attribute():
    log = make_log(
        events=[("e1", "deliver", "2024-01-01T08:00:00Z", [], {})],
        objects=[("o1", "order", {"mass_kg": 2.0}), ("o2", "order", {"mass_kg": 3.0})],
    )
    al = bound(log, [instance_assignment("e1", 15)])
    unit = FunctionalUnit("order", Quantity(Decimal(1), "kg"), "mass_kg")
    scaled = per_fu(direct_inventory(al), unit, al)
    ((_, q),) = scaled.entries.items()
    assert q.amount == Decimal(3)


def test_scaling_linearity():
    log = order_log(7)
    al = bound(log, [instance_assignment("e1", "13.37")])
    base = per_fu(direct_inventory(al), fu(1), al)
    for k in (Decimal("0.5"), Decimal(2), Decimal(10)):
        scaled = per_fu(direct_inventory(al), fu(k), al)
        for (key, q), (_, qb) in zip(scaled.entries.items(), base.entries.items()):
            expect = qb.amount * k
            assert abs(q.amount - expect) <= Decimal("1e-12") * max(abs(expect), Decimal(1))


def test_additivity_over_disjoint_logs():
    b1 = generate_bundle(101, 40)
    b2 = generate_bundle(202, 40)
    log1 = parse_ocel(b1.log_json)
    al1 = bind_annotations(log1, parse_annotations(b1.annotations_json))

    # relabel every id (instances and type names) so the union is disjoint
    log2_doc = json.loads(b2.log_json)
    for e in log2_doc["events"]:
        e["id"] = "x" + e["id"]
        e["type"] = "x" + e["type"]
        for rel in e["relationships"]:
            rel["objectId"] = "x" + rel["objectId"]
    for o in log2_doc["objects"]:
        o["id"] = "x" + o["id"]
        o["type"] = "x" + o["type"]
    for t in log2_doc["eventTypes"]:
        t["name"] = "x" + t["name"]
    for t in log2_doc["objectTypes"]:
        t["name"] = "x" + t["name"]
    ann2_doc = json.loads(b2.annotations_json)
    for a in ann2_doc["assignments"]:
        if a["component"]["kind"] != "process":
            a["component"]["id"] = "x" + a["component"]["id"]
    for r in ann2_doc["allocations"]:
        r["source"]["id"] = "x" + r["source"]["id"]
    log2 = parse_ocel(json.dumps(log2_doc))
    al2 = bind_annotations(log2, parse_annotations(json.dumps(ann2_doc)))

    union_doc = json.loads(b1.log_json)
    union_doc["events"] += log2_doc["events"]
    union_doc["objects"] += log2_doc["objects"]
    union_doc["eventTypes"] = [{"name": n} for n in sorted(
        {t["name"] for t in union_doc["eventTypes"]} | {t["name"] for t in log2_doc["eventTypes"]}
    )]
    union_doc["objectTypes"] = [{"name": n} for n in sorted(
        {t["name"] for t in union_doc["objectTypes"]} | {t["name"] for t in log2_doc["objectTypes"]}
    )]
    ann_union = json.loads(b1.annotations_json)
    ann_union["assignments"] += ann2_doc["assignments"]
    ann_union["allocations"] += ann2_doc["allocations"]
    log_union = parse_ocel(json.dumps(union_doc))
    al_union = bind_annotations(log_union, parse_annotations(json.dumps(ann_union)))

    merged = Inventory()
    for part in (direct_inventory(al1), direct_inventory(al2)):
        for key, q in part.entries.items():
            merged.add(key, q)
    got = direct_inventory(al_union)
    assert {k: q.amount for k, q in got.entries.items()} == {
        k: q.amount for k, q in merged.entries.items()
    }


def test_negative_amounts_flagged_not_dropped():
    log = shipping_log()
    al = bound(log, [instance_assignment("s0", "-2.5")])
    inv = direct_inventory(al)
    assert [q.amount for _, q in inv.negative_entries()] == [Decimal("-2.5")]


def test_csv_projection_shape():
    log = shipping_log()
    al = bound(log, [instance_assignment("s0", 5, scope="scope1")])
    text = rendered(inventory_to_csv, direct_inventory(al))
    lines = text.strip().split("\n")
    assert lines[0] == "component_kind,component_id,flow,direction,scope,amount,unit"
    assert lines[1] == "activity_instance,s0,CO2,output,scope1,5,kg"


def test_process_ref_row_has_empty_id():
    log = shipping_log()
    al = bound(log, [{
        "component": {"kind": "process"},
        "flow": "CO2", "direction": "output", "amount": "1", "unit": "kg",
    }])
    text = rendered(inventory_to_csv, rollup_inventory(al, ComponentKind.PROCESS))
    assert "process,,CO2,output,unscoped,1,kg" in text
    assert PROCESS_REF.id is None


def structure_bundles():
    """Generated bundles beyond the 200-event ceiling, plus the lenient log
    with instance assignments on its undeclared activity and object type."""
    out = []
    for seed in (3, 11):
        gb = generate_bundle(seed, 1500)
        out.append(bind_annotations(parse_ocel(gb.log_json), parse_annotations(gb.annotations_json)))
    out.append(bound(lenient_log(), [
        instance_assignment("e1", "2"),
        instance_assignment("e4", "3", scope="scope1"),
        instance_assignment("e3", "5"),
        {"component": {"kind": "object_instance", "id": "p1"},
         "flow": "CO2", "direction": "output", "amount": "7", "unit": "kg"},
        {"component": {"kind": "activity_type", "id": "ship"},
         "flow": "CO2", "direction": "output", "amount": "1", "unit": "kg", "basis": "per_instance"},
        {"component": {"kind": "object_type", "id": "order"},
         "flow": "CO2", "direction": "output", "amount": "11", "unit": "kg"},
        {"component": {"kind": "process"},
         "flow": "CO2", "direction": "input", "amount": "13", "unit": "kg"},
    ]))
    return out


def test_rollup_equals_brute_force_sum_at_every_level():
    for al in structure_bundles():
        activity_of = {e.event_id: e.activity for e in al.log.events}
        type_of = {o.object_id: o.object_type for o in al.log.objects}
        kinds = {a.component.kind for _, a in al.resolved}
        assert {ComponentKind.ACTIVITY_TYPE, ComponentKind.OBJECT_TYPE} <= kinds
        for level in (ComponentKind.PROCESS, ComponentKind.ACTIVITY_TYPE, ComponentKind.OBJECT_TYPE):
            expected: dict = {}
            for ref, a in al.resolved:
                if level is ComponentKind.PROCESS:
                    target = PROCESS_REF
                elif ref.kind is level:
                    target = ref
                elif level is ComponentKind.ACTIVITY_TYPE and ref.kind is ComponentKind.ACTIVITY_INSTANCE:
                    target = ComponentRef(level, activity_of[ref.id])
                elif level is ComponentKind.OBJECT_TYPE and ref.kind is ComponentKind.OBJECT_INSTANCE:
                    target = ComponentRef(level, type_of[ref.id])
                else:
                    continue
                key = (target, a.flow, a.direction, a.scope or UNSCOPED)
                expected[key] = expected.get(key, Decimal(0)) + a.quantity.amount
            got = {tuple(k): q.amount for k, q in rollup_inventory(al, level).entries.items()}
            assert got == expected, level
            assert expected


@pytest.mark.parametrize("seed", [3, 11])
def test_inventory_producers_store_entries_in_key_order(seed):
    bundle = generate_bundle(seed, 1500)
    al = bind_annotations(parse_ocel(bundle.log_json), parse_annotations(bundle.annotations_json))
    direct = direct_inventory(al)
    assert len(direct.entries) > 1 and list(direct.entries) == sorted(direct.entries)
    for level in (ComponentKind.ACTIVITY_TYPE, ComponentKind.OBJECT_TYPE, ComponentKind.PROCESS):
        rolled = rollup_inventory(al, level)
        assert rolled.entries and list(rolled.entries) == sorted(rolled.entries), level
    process = rollup_inventory(al, ComponentKind.PROCESS)
    scaled = per_fu(process, fu(1), al)
    assert list(scaled.entries) == list(process.entries) == sorted(process.entries)


@given(
    big=st.integers(-10**30, 10**30).filter(bool),
    big_exponent=st.integers(0, 40),
    small=st.integers(-10**6, 10**6).filter(bool),
    small_exponent=st.integers(20, 60),
)
def test_splitting_an_amount_across_far_apart_exponents_keeps_its_inventory_row(
        big, big_exponent, small, small_exponent):
    # the whole is written out exactly, digit for digit, from integers
    whole = f"{big * 10 ** (big_exponent + small_exponent) + small}E-{small_exponent}"
    parts = (f"{big}E+{big_exponent}", f"{small}E-{small_exponent}")
    log = shipping_log()

    def rows(assignments):
        al = bound(log, assignments)
        return [rendered(inventory_to_csv, direct_inventory(al)),
                rendered(inventory_to_csv, rollup_inventory(al, ComponentKind.PROCESS))]

    expected = rows([instance_assignment("s0", whole, scope="scope1")])
    assert rows([instance_assignment("s0", a, scope="scope1") for a in parts]) == expected
    assert rows([instance_assignment("s0", a, scope="scope1") for a in reversed(parts)]) == expected
    # split over two events, the process row still reads the whole
    split = rows([instance_assignment(e, a, scope="scope1") for e, a in zip(("s0", "s1"), parts)])
    assert split[1] == expected[1]
