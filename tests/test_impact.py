import json
import random
from decimal import Decimal

import pytest

from susmine import (
    ComponentKind,
    ComponentRef,
    Mode,
    Quantity,
    UncharacterizedFlowError,
    UnitMismatchError,
    UnitRegistry,
    bind_annotations,
    characterize,
    classify_impacts,
    parse_annotations,
)
from susmine.allocation import apply_allocations
from susmine.annotations import CategoryInfo, CharacterizationTable, ImpactClass, TableEntry
from susmine.generator import generate_bundle
from susmine.inventory import InvKey, Inventory, direct_inventory
from susmine.model import Direction, UNSCOPED
from susmine.ocel import parse_ocel
from susmine.pipeline import activity_type_totals
from susmine.scoping import collapse_scopes, scoped_total

from conftest import rel_close
from test_annotations import bundle_doc, shipping_log



def ref(eid):
    return ComponentRef(ComponentKind.ACTIVITY_INSTANCE, eid)


def inv_of(*entries):
    inv = Inventory()
    for component, flow, direction, scope, amount, unit in entries:
        inv.add(InvKey(ref(component), flow, Direction(direction), scope), Quantity(Decimal(str(amount)), unit))
    return inv


def simple_table(**extra_factors):
    entries = {
        ("CO2", "kg"): TableEntry("CO2", "kg", Direction.OUTPUT, {"climate_change": 1.0}),
        ("CFC-11", "kg"): TableEntry("CFC-11", "kg", Direction.OUTPUT, {"ozone_depletion": 1.0}),
        ("work_accidents", "count"): TableEntry(
            "work_accidents", "count", Direction.OUTPUT, {"work_accidents": 1.0}
        ),
    }
    categories = {
        "climate_change": CategoryInfo("kg CO2e", ImpactClass.CLIMATE),
        "ozone_depletion": CategoryInfo("kg CFCe", ImpactClass.ENVIRONMENTAL),
        "work_accidents": CategoryInfo("count", ImpactClass.SOCIAL),
    }
    return CharacterizationTable(entries=entries, categories=categories)


def test_unit_factor_reproduces_climate_example():
    vectors, gaps = characterize(inv_of(("e1", "CO2", "output", UNSCOPED, 5, "kg")), simple_table())
    assert gaps == []
    assert vectors[ref("e1")][("climate_change", UNSCOPED)] == Quantity(5.0, "kg CO2e")


def test_ozone_example():
    vectors, _ = characterize(inv_of(("e2", "CFC-11", "output", UNSCOPED, 3, "kg")), simple_table())
    assert vectors[ref("e2")][("ozone_depletion", UNSCOPED)] == Quantity(3.0, "kg CFCe")


def test_empty_inventory():
    vectors, gaps = characterize(Inventory(), simple_table())
    assert vectors == {}
    assert gaps == []


def test_strict_uncharacterized_flow():
    with pytest.raises(UncharacterizedFlowError) as err:
        characterize(inv_of(("e1", "gravel", "output", UNSCOPED, 1, "kg")), simple_table())
    assert err.value.flow == "gravel"


def test_lenient_reports_gaps_and_partial_impacts():
    inv = inv_of(
        ("e1", "CO2", "output", UNSCOPED, 5, "kg"),
        ("e1", "gravel", "output", UNSCOPED, 1, "kg"),
    )
    vectors, gaps = characterize(inv, simple_table(), Mode.LENIENT)
    assert vectors[ref("e1")][("climate_change", UNSCOPED)].amount == 5.0
    assert [tuple(g) for g in gaps] == [("gravel", "kg", "output")]


def test_direction_filter_blocks_mismatched_entries():
    inv = inv_of(("e1", "CO2", "input", UNSCOPED, 5, "kg"))
    with pytest.raises(UncharacterizedFlowError):
        characterize(inv, simple_table())


def test_conversion_applied_at_lookup():
    table = CharacterizationTable(
        entries={("energy", "kWh"): TableEntry("energy", "kWh", Direction.INPUT, {"climate_change": 0.4})},
        categories={"climate_change": CategoryInfo("kg CO2e", ImpactClass.CLIMATE)},
    )
    inv = inv_of(("e1", "energy", "input", UNSCOPED, 1000, "Wh"))
    vectors, _ = characterize(inv, table, registry=UnitRegistry())
    assert rel_close(vectors[ref("e1")][("climate_change", UNSCOPED)].amount, 0.4)


def test_unit_mismatch_without_path():
    table = CharacterizationTable(
        entries={("slag", "kg"): TableEntry("slag", "kg", None, {"climate_change": 1.0})},
        categories={"climate_change": CategoryInfo("kg CO2e", ImpactClass.CLIMATE)},
    )
    inv = inv_of(("e1", "slag", "output", UNSCOPED, 1, "h"))
    with pytest.raises(UnitMismatchError):
        characterize(inv, table)
    vectors, gaps = characterize(inv, table, Mode.LENIENT)
    assert vectors == {}
    assert [tuple(g) for g in gaps] == [("slag", "h", "output")]


def test_entry_with_no_categories_reports_uncharacterized():
    base = simple_table()
    table = CharacterizationTable(
        entries={**base.entries, ("noise", "h"): TableEntry("noise", "h", None, {})},
        categories=base.categories,
    )
    vectors, gaps = characterize(inv_of(("e1", "noise", "output", UNSCOPED, 2, "h")), table)
    assert vectors == {}
    assert [tuple(g) for g in gaps] == [("noise", "h", "output")]


def test_random_inventory_matches_double_loop_oracle():
    rng = random.Random(42)
    flows = [("CO2", "kg"), ("CFC-11", "kg"), ("work_accidents", "count")]
    table = simple_table()
    inv = Inventory()
    expected = {}
    for i in range(120):
        flow, unit = rng.choice(flows)
        component = f"e{rng.randrange(10)}"
        amount = Decimal(str(round(rng.uniform(-5, 50), 3)))
        inv.add(InvKey(ref(component), flow, Direction.OUTPUT, UNSCOPED), Quantity(amount, unit))
    # brute-force double loop over inventory entries x table factor entries
    for key, q in inv.entries.items():
        for (tflow, tunit), entry in table.entries.items():
            if tflow != key.flow or tunit != q.unit:
                continue
            for category, factor in entry.factors.items():
                k = (key.component, (category, key.scope))
                expected[k] = expected.get(k, 0.0) + float(q.amount) * factor
    vectors, gaps = characterize(inv, table)
    assert gaps == []
    got = {(c, cat): q.amount for c, vec in vectors.items() for cat, q in vec.items()}
    assert set(got) == set(expected)
    for k in got:
        assert rel_close(got[k], expected[k])


def test_linearity_in_the_inventory():
    inv = inv_of(
        ("e1", "CO2", "output", UNSCOPED, "3.7", "kg"),
        ("e2", "CFC-11", "output", UNSCOPED, "0.9", "kg"),
    )
    a = Decimal("17.3")
    vectors_scaled, _ = characterize(inv.scaled(a), simple_table())
    vectors, _ = characterize(inv, simple_table())
    got = scoped_total(vectors_scaled)
    want = scoped_total(vectors)
    for category in want:
        assert rel_close(got[category].amount, want[category].amount * float(a))


def test_classify_partition_with_social_figures():
    table = simple_table()
    vec = {
        "climate_change": Quantity(5.0, "kg CO2e"),
        "work_accidents": Quantity(0.00001, "count"),
    }
    by_class = classify_impacts(vec, table)
    assert set(by_class) == {ImpactClass.CLIMATE, ImpactClass.ENVIRONMENTAL, ImpactClass.SOCIAL}
    assert by_class[ImpactClass.CLIMATE] == {"climate_change": Quantity(5.0, "kg CO2e")}
    assert by_class[ImpactClass.SOCIAL] == {"work_accidents": Quantity(0.00001, "count")}
    assert by_class[ImpactClass.ENVIRONMENTAL] == {}
    # partition: union of sub-vectors is the input, no overlaps
    merged = {}
    for sub in by_class.values():
        for category in sub:
            assert category not in merged
            merged[category] = sub[category]
    assert merged == vec


def test_classify_empty_vector():
    by_class = classify_impacts({}, simple_table())
    assert all(v == {} for v in by_class.values())


def test_all_environmental_table_leaves_social_empty():
    table = CharacterizationTable(
        entries={("CFC-11", "kg"): TableEntry("CFC-11", "kg", None, {"ozone_depletion": 1.0})},
        categories={"ozone_depletion": CategoryInfo("kg CFCe", ImpactClass.ENVIRONMENTAL)},
    )
    vectors, _ = characterize(inv_of(("e1", "CFC-11", "output", UNSCOPED, 3, "kg")), table)
    by_class = classify_impacts(collapse_scopes(scoped_total(vectors)), table)
    assert by_class[ImpactClass.SOCIAL] == {}


def test_additivity_over_components():
    log = shipping_log(n_ship=3)
    doc = bundle_doc(assignments=[
        {"component": {"kind": "activity_type", "id": "ship"},
         "flow": "CO2", "direction": "output", "amount": "5", "unit": "kg",
         "basis": "per_instance"},
        {"component": {"kind": "process"},
         "flow": "CO2", "direction": "output", "amount": "2", "unit": "kg"},
    ])
    al = bind_annotations(log, parse_annotations(json.dumps(doc)))
    vectors, _ = characterize(direct_inventory(al), al.table, registry=al.registry)
    total = scoped_total(vectors)
    assert rel_close(total[("climate_change", UNSCOPED)].amount, 17.0)


def test_exact_unit_entry_preferred_over_conversion():
    table = CharacterizationTable(
        entries={
            ("energy", "kWh"): TableEntry("energy", "kWh", None, {"climate_change": 1000.0}),
            ("energy", "Wh"): TableEntry("energy", "Wh", None, {"climate_change": 1.0}),
        },
        categories={"climate_change": CategoryInfo("kg CO2e", ImpactClass.CLIMATE)},
    )
    inv = inv_of(("e1", "energy", "input", UNSCOPED, 500, "Wh"))
    vectors, _ = characterize(inv, table, registry=UnitRegistry())
    # the Wh entry matches exactly; no detour through the kWh entry
    assert vectors[ref("e1")][("climate_change", UNSCOPED)].amount == 500.0


def test_every_impact_cell_is_a_quantity_with_a_float_amount():
    gb = generate_bundle(3, 300)
    al = bind_annotations(parse_ocel(gb.log_json), parse_annotations(gb.annotations_json))
    scoped, _ = characterize(direct_inventory(al), al.table, registry=al.registry)
    post, ledger = apply_allocations(al, scoped)
    assert ledger.entries
    vectors = [*scoped.values(), *post.values(), *ledger.residuals.values(), scoped_total(post),
               *activity_type_totals(al, post).values(), *map(collapse_scopes, post.values())]
    cells = [q for vec in vectors for q in vec.values()]
    assert cells
    for q in cells:
        assert type(q) is Quantity and type(q.amount) is float, q
