import json
import math
import sys

import pytest
from hypothesis import given, strategies as st

import susmine.scoping
from susmine import (
    ComponentKind,
    ComponentRef,
    NonFiniteImpactError,
    UnknownScopeError,
    bind_annotations,
    parse_annotations,
)
from susmine.annotations import parse_scope_set
from susmine.generator import generate_bundle
from susmine.model import Quantity, UNSCOPED
from susmine.ocel import parse_ocel
from susmine.pipeline import run_pipeline
from susmine.scoping import collapse_scopes, cumulative_view, scoped_impacts, scoped_total, unscoped_share

from conftest import make_log, rel_close
from test_annotations import bundle_doc
from test_inventory import instance_assignment


def one_event_log():
    return make_log(events=[("e1", "emit", "2024-01-01T08:00:00Z", [], {})])


def e1():
    return ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "e1")


def test_ghg_buckets_reproduce_scoped_climate_figures():
    doc = bundle_doc(assignments=[
        instance_assignment("e1", 5, scope="scope1"),
        instance_assignment("e1", 30, scope="scope3"),
    ])
    al = bind_annotations(one_event_log(), parse_annotations(json.dumps(doc)))
    vectors, gaps = scoped_impacts(al)
    assert gaps == []
    sv = vectors[e1()]
    assert sv[("climate_change", "scope1")] == Quantity(5.0, "kg CO2e")
    assert sv[("climate_change", "scope3")] == Quantity(30.0, "kg CO2e")


def social_bundle():
    return {
        "schema": "susmine/1",
        "scopes": {"name": "reach", "scopes": ["company", "value_chain"]},
        "assignments": [
            {"component": {"kind": "activity_instance", "id": "e1"},
             "flow": "work_accidents", "direction": "output",
             "amount": "0.00001", "unit": "count", "scope": "company"},
            {"component": {"kind": "activity_instance", "id": "e1"},
             "flow": "work_accidents", "direction": "output",
             "amount": "0.00001", "unit": "count", "scope": "value_chain"},
        ],
        "characterization": {
            "categories": {"work_accidents": {"impact_unit": "count", "class": "social"}},
            "factors": [{"flow": "work_accidents", "unit": "count", "direction": "output",
                         "factors": {"work_accidents": 1.0}}],
        },
        "allocations": [],
    }


def test_social_buckets_stay_disjoint():
    al = bind_annotations(one_event_log(), parse_annotations(json.dumps(social_bundle())))
    vectors, _ = scoped_impacts(al)
    sv = vectors[e1()]
    assert rel_close(sv[("work_accidents", "company")].amount, 0.00001)
    assert rel_close(sv[("work_accidents", "value_chain")].amount, 0.00001)


def test_cumulative_social_reading_includes_company_bucket():
    al = bind_annotations(one_event_log(), parse_annotations(json.dumps(social_bundle())))
    vectors, _ = scoped_impacts(al)
    view = cumulative_view(vectors[e1()], ["company", "value_chain"], al.scope_set)
    assert rel_close(view[("work_accidents", "company")].amount, 0.00001)
    assert rel_close(view[("work_accidents", "value_chain")].amount, 0.00002)


def test_unscoped_assignments_land_in_reserved_bucket():
    doc = bundle_doc(assignments=[instance_assignment("e1", 5)])
    al = bind_annotations(one_event_log(), parse_annotations(json.dumps(doc)))
    vectors, _ = scoped_impacts(al)
    assert set(vectors[e1()]) == {("climate_change", UNSCOPED)}


def test_bucket_disjointness_sum_equals_unpartitioned_total():
    doc = bundle_doc(assignments=[
        instance_assignment("e1", 5, scope="scope1"),
        instance_assignment("e1", "0.5", scope="scope2"),
        instance_assignment("e1", 30, scope="scope3"),
        instance_assignment("e1", "1.25"),
    ])
    al = bind_annotations(one_event_log(), parse_annotations(json.dumps(doc)))
    vectors, _ = scoped_impacts(al)
    collapsed = collapse_scopes(vectors[e1()])
    assert collapsed["climate_change"].amount == 5.0 + 0.5 + 30.0 + 1.25


def test_cumulative_view_running_totals():
    sv = {
        ("climate_change", "scope1"): Quantity(5.0, "kg CO2e"),
        ("climate_change", "scope2"): Quantity(0.0, "kg CO2e"),
        ("climate_change", "scope3"): Quantity(30.0, "kg CO2e"),
    }
    view = cumulative_view(sv, ["scope1", "scope2", "scope3"], parse_scope_set("ghg"))
    assert view[("climate_change", "scope1")].amount == 5.0
    assert view[("climate_change", "scope2")].amount == 5.0
    assert view[("climate_change", "scope3")].amount == 35.0


def test_cumulative_single_scope_equals_bucket():
    scope_set = parse_scope_set({"name": "solo", "scopes": ["only"]})
    sv = {("climate_change", "only"): Quantity(7.0, "kg CO2e")}
    view = cumulative_view(sv, ["only"], scope_set)
    assert view[("climate_change", "only")].amount == 7.0


def test_cumulative_monotone_for_nonnegative_buckets():
    sv = {
        ("climate_change", "scope1"): Quantity(1.0, "kg CO2e"),
        ("climate_change", "scope2"): Quantity(2.0, "kg CO2e"),
        ("climate_change", "scope3"): Quantity(0.0, "kg CO2e"),
    }
    view = cumulative_view(sv, ["scope2", "scope1", "scope3"], parse_scope_set("ghg"))
    running = [view[("climate_change", s)].amount for s in ["scope2", "scope1", "scope3"]]
    assert running == sorted(running)


def test_cumulative_final_prefix_equals_total():
    sv = {
        ("climate_change", "scope1"): Quantity(5.0, "kg CO2e"),
        ("climate_change", "scope3"): Quantity(30.0, "kg CO2e"),
    }
    view = cumulative_view(sv, ["scope1", "scope2", "scope3"], parse_scope_set("ghg"))
    assert rel_close(view[("climate_change", "scope3")].amount,
                     collapse_scopes(sv)["climate_change"].amount)


def test_cumulative_rejects_unknown_and_incomplete_orders():
    sv = {("climate_change", "scope1"): Quantity(5.0, "kg CO2e")}
    with pytest.raises(UnknownScopeError):
        cumulative_view(sv, ["scope1", "scopeX", "scope3"], parse_scope_set("ghg"))
    with pytest.raises(ValueError):
        cumulative_view(sv, ["scope1", "scope2"], parse_scope_set("ghg"))
    with pytest.raises(ValueError):
        cumulative_view(sv, ["scope1", "scope1", "scope3"], parse_scope_set("ghg"))
    with pytest.raises(UnknownScopeError):
        cumulative_view(sv, [UNSCOPED, "scope1", "scope2", "scope3"], parse_scope_set("ghg"))


def test_unscoped_share_surfaces_partial_scoping():
    doc = bundle_doc(assignments=[
        instance_assignment("e1", 5, scope="scope1"),
        instance_assignment("e1", 15),
    ])
    al = bind_annotations(one_event_log(), parse_annotations(json.dumps(doc)))
    vectors, _ = scoped_impacts(al)
    share = unscoped_share(scoped_total(vectors))
    assert rel_close(share["climate_change"], 0.75)


def test_pipeline_characterizes_the_inventory_once(monkeypatch):
    gb = generate_bundle(3, 300)
    log, bundle = parse_ocel(gb.log_json), parse_annotations(gb.annotations_json)
    calls = []
    characterize = susmine.scoping.characterize

    def counted(inv, *args, **kwargs):
        calls.append(len(inv.entries))
        return characterize(inv, *args, **kwargs)

    monkeypatch.setattr(susmine.scoping, "characterize", counted)
    result = run_pipeline(log, bundle)
    # several scope buckets, one characterization over the whole inventory
    assert len({scope for sv in result.scoped.values() for (_, scope) in sv}) > 1
    assert calls == [len(result.inventory.entries)]


# -- the scope sums against flat reference loops ---------------------------------

_MAX = sys.float_info.max
_amounts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-10, -1e-10, 1e300, -1e300, _MAX, -_MAX]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_ORDER = ("s1", "s2", "s3")
_cells = st.dictionaries(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([*_ORDER, UNSCOPED])), _amounts, max_size=8
)


def _unit(category):
    return f"{category} unit"


def _vector(cells):
    return {cell: Quantity(amount, _unit(cell[0])) for cell, amount in cells.items()}


def _signed(values):
    """(key, value, sign) rows, which differ between 0.0 and -0.0."""
    return [(key, value, math.copysign(1.0, value)) for key, value in values.items()]


@given(_cells)
def test_collapse_scopes_matches_a_flat_loop(cells):
    sums = {}
    for (category, _), amount in sorted(cells.items()):
        sums[category] = amount if category not in sums else sums[category] + amount
    if not all(map(math.isfinite, sums.values())):
        with pytest.raises(NonFiniteImpactError):
            collapse_scopes(_vector(cells))
        return
    out = collapse_scopes(_vector(cells))
    assert _signed({category: q.amount for category, q in out.items()}) == _signed(sums)
    assert all(q.unit == _unit(category) for category, q in out.items())


@given(_cells)
def test_unscoped_share_matches_a_flat_loop(cells):
    whole, part = {}, {}
    for (category, scope), amount in cells.items():
        whole[category] = whole.get(category, 0.0) + amount
        if scope == UNSCOPED:
            part[category] = part.get(category, 0.0) + amount
    shares = {category: part.get(category, 0.0) / w if w != 0 else 0.0 for category, w in sorted(whole.items())}
    if not all(map(math.isfinite, [*whole.values(), *part.values(), *shares.values()])):
        with pytest.raises(NonFiniteImpactError):
            unscoped_share(_vector(cells))
        return
    assert _signed(unscoped_share(_vector(cells))) == _signed(shares)


@given(_cells, st.permutations(_ORDER))
def test_cumulative_view_matches_a_flat_loop(cells, order):
    running_totals = {}
    for category in sorted({category for category, _ in cells}):
        running = 0.0
        for label in order:
            if (category, label) in cells:
                running += cells[category, label]
            running_totals[category, label] = running
    scope_set = parse_scope_set({"name": "three", "scopes": list(_ORDER)})
    if not all(map(math.isfinite, running_totals.values())):
        with pytest.raises(NonFiniteImpactError):
            cumulative_view(_vector(cells), order, scope_set)
        return
    out = cumulative_view(_vector(cells), order, scope_set)
    assert _signed({cell: q.amount for cell, q in out.items()}) == _signed(running_totals)
    assert all(q.unit == _unit(category) for (category, _), q in out.items())
