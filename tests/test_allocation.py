import json
import math
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from susmine import (
    ComponentKind,
    ComponentRef,
    DuplicateSourceError,
    MissingAttributeError,
    Mode,
    NoTargetsError,
    Quantity,
    allocation_weights,
    apply_allocations,
    bind_annotations,
    parse_annotations,
    parse_ocel,
)
from susmine.annotations import RELATED_EVENTS, AllocationRule, EQUAL_KEY, AllocationKey
from susmine.errors import InvalidAllocationKeyError
from susmine.generator import generate_bundle
from susmine.scoping import scoped_impacts, scoped_total

from conftest import make_log, rel_close
from test_annotations import bundle_doc


def machine_log(n_events=3, attrs=None):
    attrs = attrs or [{} for _ in range(n_events)]
    events = [
        (f"e{i}", "run", f"2024-01-01T08:0{i}:00Z", [("m1", "uses")], attrs[i])
        for i in range(n_events)
    ]
    return make_log(events=events, objects=[("m1", "machine", {})])


def obj_ref(oid="m1"):
    return ComponentRef(ComponentKind.OBJECT_INSTANCE, oid)


def ev_ref(eid):
    return ComponentRef(ComponentKind.ACTIVITY_INSTANCE, eid)


def bound_with_rule(log, rule_overrides=None, assignments=None):
    rule = {
        "source": {"kind": "object_instance", "id": "m1"},
        "targets": "related_events",
        "key": "equal",
        "fraction": "1",
    }
    rule.update(rule_overrides or {})
    doc = bundle_doc(assignments=assignments or [], allocations=[rule])
    return bind_annotations(log, parse_annotations(json.dumps(doc)))


def test_equal_key_four_targets():
    al = bound_with_rule(machine_log(4))
    weights, _ = allocation_weights(al.rules[0], al)
    assert set(weights.values()) == {0.25}
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_economic_value_proportions():
    al = bound_with_rule(
        machine_log(2, attrs=[{"economic_value": 30.0}, {"economic_value": 10.0}]),
        {"key": "economic_value"},
    )
    weights, _ = allocation_weights(al.rules[0], al)
    assert rel_close(weights[ev_ref("e0")], 30 / 40)
    assert rel_close(weights[ev_ref("e1")], 10 / 40)


def test_all_zero_values_fall_back_to_equal_with_warning():
    al = bound_with_rule(
        machine_log(2, attrs=[{"mass_kg": 0.0}, {"mass_kg": 0.0}]),
        {"key": "mass"},
    )
    weights, warnings = allocation_weights(al.rules[0], al)
    assert set(weights.values()) == {0.5}
    assert len(warnings) == 1 and "equal split" in warnings[0]


def test_missing_attribute_strict_vs_lenient():
    al = bound_with_rule(
        machine_log(2, attrs=[{"mass_kg": 3.0}, {}]),
        {"key": "mass"},
    )
    with pytest.raises(MissingAttributeError):
        allocation_weights(al.rules[0], al)
    weights, warnings = allocation_weights(al.rules[0], al, Mode.LENIENT)
    assert weights[ev_ref("e0")] == 1.0
    assert weights[ev_ref("e1")] == 0.0
    assert warnings


def test_negative_attribute_rejected():
    al = bound_with_rule(
        machine_log(2, attrs=[{"mass_kg": 3.0}, {"mass_kg": -1.0}]),
        {"key": "mass"},
    )
    with pytest.raises(InvalidAllocationKeyError):
        allocation_weights(al.rules[0], al)


def test_no_targets():
    log = make_log(
        events=[("e0", "run", "2024-01-01T08:00:00Z", [], {})],
        objects=[("m1", "machine", {})],
    )
    al = bound_with_rule(log)
    with pytest.raises(NoTargetsError):
        allocation_weights(al.rules[0], al)


def test_qualifier_filter_restricts_targets():
    log = make_log(
        events=[
            ("e0", "run", "2024-01-01T08:00:00Z", [("m1", "uses")], {}),
            ("e1", "run", "2024-01-01T08:01:00Z", [("m1", "cleans")], {}),
        ],
        objects=[("m1", "machine", {})],
    )
    al = bound_with_rule(log, {"qualifier": "uses"})
    weights, _ = allocation_weights(al.rules[0], al)
    assert list(weights) == [ev_ref("e0")]


def machine_emissions(amount="30", scope="scope3"):
    return [{
        "component": {"kind": "object_instance", "id": "m1"},
        "flow": "CO2", "direction": "output", "amount": amount, "unit": "kg",
        "scope": scope,
    }]


def test_equal_split_moves_everything_off_the_source():
    al = bound_with_rule(machine_log(3), assignments=machine_emissions())
    vectors, _ = scoped_impacts(al)
    post, ledger = apply_allocations(al, vectors)
    key = ("climate_change", "scope3")
    for eid in ("e0", "e1", "e2"):
        assert rel_close(post[ev_ref(eid)][key].amount, 10.0)
    assert post[obj_ref()][key].amount == pytest.approx(0.0, abs=1e-12)
    assert len(ledger.entries) == 3
    assert all(rel_close(e.amount, 10.0) and rel_close(e.weight, 1 / 3) for e in ledger.entries)


def test_fraction_zero_no_transfers():
    al = bound_with_rule(machine_log(3), {"fraction": "0"}, machine_emissions())
    vectors, _ = scoped_impacts(al)
    post, ledger = apply_allocations(al, vectors)
    assert ledger.entries == []
    assert post[obj_ref()][("climate_change", "scope3")].amount == 30.0


def test_partial_fraction_keeps_residual():
    al = bound_with_rule(machine_log(2), {"fraction": "0.6"}, machine_emissions())
    vectors, _ = scoped_impacts(al)
    post, ledger = apply_allocations(al, vectors)
    key = ("climate_change", "scope3")
    assert rel_close(post[obj_ref()][key].amount, 12.0)
    assert rel_close(post[ev_ref("e0")][key].amount, 9.0)
    assert rel_close(ledger.residuals[obj_ref()][key].amount, 12.0)
    total = post[obj_ref()][key].amount + post[ev_ref("e0")][key].amount + post[ev_ref("e1")][key].amount
    assert rel_close(total, 30.0)


def test_scope_and_category_travel_unchanged():
    al = bound_with_rule(machine_log(2), assignments=machine_emissions(scope="scope2"))
    vectors, _ = scoped_impacts(al)
    post, ledger = apply_allocations(al, vectors)
    assert all(e.scope == "scope2" and e.category == "climate_change" for e in ledger.entries)
    assert ("climate_change", "scope2") in post[ev_ref("e0")]


def test_duplicate_source_rejected():
    doc = bundle_doc(allocations=[
        {"source": {"kind": "object_instance", "id": "m1"}, "targets": "related_events"},
        {"source": {"kind": "object_instance", "id": "m2"}, "targets": "related_events"},
        {"source": {"kind": "object_instance", "id": "m1"}, "targets": "related_events", "key": "mass"},
    ])
    with pytest.raises(DuplicateSourceError) as info:
        parse_annotations(json.dumps(doc))
    assert str(info.value) == "allocation #2: source object_instance:m1 is already named by allocation #0"


def test_explicit_target_list():
    log = machine_log(3)
    doc = bundle_doc(
        assignments=machine_emissions(),
        allocations=[{
            "source": {"kind": "object_instance", "id": "m1"},
            "targets": [
                {"kind": "activity_instance", "id": "e0"},
                {"kind": "activity_type", "id": "run"},
            ],
        }],
    )
    al = bind_annotations(log, parse_annotations(json.dumps(doc)))
    vectors, _ = scoped_impacts(al)
    post, ledger = apply_allocations(al, vectors)
    key = ("climate_change", "scope3")
    assert rel_close(post[ev_ref("e0")][key].amount, 15.0)
    assert rel_close(post[ComponentRef(ComponentKind.ACTIVITY_TYPE, "run")][key].amount, 15.0)
    assert len(ledger.entries) == 2


def test_global_totals_conserved_on_generated_bundles():
    for seed in (31, 32, 33):
        gb = generate_bundle(seed, 80)
        log = parse_ocel(gb.log_json)
        al = bind_annotations(log, parse_annotations(gb.annotations_json))
        vectors, _ = scoped_impacts(al)
        post, ledger = apply_allocations(al, vectors)
        before = scoped_total(vectors)
        after = scoped_total(post)
        # allocation never invents new (category, scope) pairs
        assert set(after) == set(before)
        for key, q in before.items():
            assert rel_close(after[key].amount, q.amount), (seed, key)


def test_ledger_is_deterministic():
    al = bound_with_rule(machine_log(3), assignments=machine_emissions())
    vectors, _ = scoped_impacts(al)
    post1, ledger1 = apply_allocations(al, vectors)
    post2, ledger2 = apply_allocations(al, vectors)
    assert ledger1.entries == ledger2.entries
    assert ledger1.entries == sorted(ledger1.entries)


def test_equal_key_commutes_with_relabeling():
    def weights_for(ids):
        events = [
            (eid, "run", f"2024-01-01T08:0{i}:00Z", [("m1", "uses")], {})
            for i, eid in enumerate(ids)
        ]
        log = make_log(events=events, objects=[("m1", "machine", {})])
        al = bound_with_rule(log)
        weights, _ = allocation_weights(al.rules[0], al)
        return weights

    original = weights_for(["a", "b", "c"])
    relabeled = weights_for(["c", "a", "b"])
    mapping = {"a": "c", "b": "a", "c": "b"}
    assert {ev_ref(mapping[r.id]): w for r, w in original.items()} == relabeled


@given(values=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=12))
def test_weight_vectors_normalized(values):
    events = [
        (f"e{i}", "run", "2024-01-01T08:00:00Z", [("m1", "uses")], {"mass_kg": v})
        for i, v in enumerate(values)
    ]
    log = make_log(events=events, objects=[("m1", "machine", {})])
    al = bound_with_rule(log, {"key": "mass"})
    weights, _ = allocation_weights(al.rules[0], al)
    assert all(w >= 0 for w in weights.values())
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_allocation_key_shorthands():
    assert AllocationKey("mass", "mass_kg").proportional
    assert not EQUAL_KEY.proportional
    rule = AllocationRule(obj_ref(), "related_events")
    assert rule.fraction == 1


_CELLS = [(c, sc) for c in ("climate_change", "water_use") for sc in ("scope1", "scope3", "unscoped")]
_UNITS = {"climate_change": "kg CO2e", "water_use": "m3"}
_amounts = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def mixed_sign_allocations(draw):
    """Machines m0..m2 shared by events e0..e5, every component holding
    signed amounts (credits included), one rule per machine with a random
    fraction and an equal or mass key."""
    n_events = draw(st.integers(1, 6))
    n_machines = draw(st.integers(1, 3))
    uses = [
        draw(st.lists(st.integers(0, n_events - 1), min_size=1, max_size=n_events, unique=True))
        for _ in range(n_machines)
    ]
    events = [
        (f"e{i}", "run", f"2024-01-01T08:0{i}:00Z",
         [(f"m{m}", "uses") for m in range(n_machines) if i in uses[m]],
         {"mass_kg": draw(st.floats(min_value=0, max_value=1e3))})
        for i in range(n_events)
    ]
    log = make_log(events=events, objects=[(f"m{m}", "machine", {}) for m in range(n_machines)])
    components = [obj_ref(f"m{m}") for m in range(n_machines)] + [ev_ref(f"e{i}") for i in range(n_events)]
    impacts = {}
    for ref in components:
        cells = draw(st.lists(st.sampled_from(_CELLS), unique=True))
        impacts[ref] = {cell: Quantity(draw(_amounts), _UNITS[cell[0]]) for cell in cells}
    rules = [
        AllocationRule(
            obj_ref(f"m{m}"), RELATED_EVENTS,
            draw(st.sampled_from([EQUAL_KEY, AllocationKey("mass", "mass_kg")])),
            Decimal(draw(st.integers(0, 1000))) / 1000,
        )
        for m in range(n_machines)
    ]
    return log, impacts, rules


@given(case=mixed_sign_allocations())
def test_mixed_sign_totals_conserved_per_category_and_scope(case):
    log, impacts, rules = case
    al = bind_annotations(log, parse_annotations(json.dumps(bundle_doc())))
    al.rules = rules
    post, _ = apply_allocations(al, impacts)

    def amounts(vectors, cell):
        return [sv[cell].amount for sv in vectors.values() if cell in sv]

    for cell in _CELLS:
        before = amounts(impacts, cell)
        scale = math.fsum(abs(a) for a in before)
        drift = math.fsum(amounts(post, cell)) - math.fsum(before)
        assert abs(drift) <= 1e-9 * scale, (cell, drift, scale)
