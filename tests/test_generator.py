import json
from decimal import Decimal

import pytest

from susmine import parse_annotations, parse_ocel, run_pipeline, validate_log
from susmine.generator import generate_bundle
from susmine.inventory import rollup_inventory
from susmine.model import ComponentKind
from susmine.scoping import scoped_total

from conftest import rel_close
from extend import extend_annotations
from oracles import flat_impact_totals, flat_inventory_totals


def test_identical_bytes_for_identical_seed():
    a = generate_bundle(1, 40)
    b = generate_bundle(1, 40)
    assert a.log_json == b.log_json
    assert a.annotations_json == b.annotations_json
    assert a.ground_truth_json() == b.ground_truth_json()


def test_different_seeds_differ():
    assert generate_bundle(1, 40).log_json != generate_bundle(2, 40).log_json


def test_seed_range_enforced():
    with pytest.raises(ValueError):
        generate_bundle(-1, 10)
    with pytest.raises(ValueError):
        generate_bundle(2**64, 10)
    generate_bundle(2**64 - 1, 0)


def test_generated_logs_are_strict_valid():
    for seed in (0, 5, 77):
        log = parse_ocel(generate_bundle(seed, 60).log_json)
        assert validate_log(log) == []


def test_size_zero_is_empty_but_valid():
    gb = generate_bundle(123, 0)
    log = parse_ocel(gb.log_json)
    assert len(log.events) == 0 and len(log.objects) == 0
    bundle = parse_annotations(gb.annotations_json)
    assert bundle.assignments == []
    result = run_pipeline(log, bundle)
    assert result.post_allocation == {}
    assert gb.ground_truth["counts"]["events"] == 0


def test_ground_truth_inventory_matches_pipeline_exactly():
    gb = generate_bundle(55, 150)
    log = parse_ocel(gb.log_json)
    result = run_pipeline(log, parse_annotations(gb.annotations_json))
    proc = rollup_inventory(result.al, ComponentKind.PROCESS)
    got = {(k.flow, k.direction.value, k.scope): q.amount for k, q in proc.entries.items()}
    want = {
        (r["flow"], r["direction"], r["scope"]): Decimal(r["amount"])
        for r in gb.ground_truth["inventory_totals"]
    }
    assert got == want


def test_ground_truth_agrees_with_flat_oracles():
    """The generator's summation and the test-local brute-force oracle are
    two independent computations; they must agree on the raw documents."""
    for seed in (7, 19):
        gb = generate_bundle(seed, 100)
        log_doc = json.loads(gb.log_json)
        ann_doc = json.loads(gb.annotations_json)
        inv = flat_inventory_totals(log_doc, ann_doc)
        want_inv = {
            (r["flow"], r["direction"], r["scope"]): Decimal(r["amount"])
            for r in gb.ground_truth["inventory_totals"]
        }
        assert inv == want_inv
        impacts = flat_impact_totals(log_doc, ann_doc)
        want_imp = {
            (r["category"], r["scope"]): r["amount"] for r in gb.ground_truth["impact_totals"]
        }
        assert set(impacts) == set(want_imp)
        for key in impacts:
            assert rel_close(impacts[key], want_imp[key])


def test_generated_bundles_run_strict():
    for seed in (101, 202):
        gb = generate_bundle(seed, 80)
        log = parse_ocel(gb.log_json)
        result = run_pipeline(log, parse_annotations(gb.annotations_json))
        assert result.uncharacterized == []


def test_extension_is_superset():
    gb = generate_bundle(42, 50)
    extended = json.loads(extend_annotations(gb, 43))
    base = json.loads(gb.annotations_json)
    for a in base["assignments"]:
        assert a in extended["assignments"]
    for r in base["allocations"]:
        assert r in extended["allocations"]
    assert len(extended["assignments"]) > len(base["assignments"])
    # extended bundle still parses and runs strict
    log = parse_ocel(gb.log_json)
    result = run_pipeline(log, parse_annotations(json.dumps(extended)))
    assert result.uncharacterized == []


def test_post_allocation_climate_sits_on_activities():
    for seed in (3, 4):
        gb = generate_bundle(seed, 70)
        log = parse_ocel(gb.log_json)
        result = run_pipeline(log, parse_annotations(gb.annotations_json))
        residual = 0.0
        for ref, sv in result.post_allocation.items():
            if ref.kind in (ComponentKind.ACTIVITY_INSTANCE, ComponentKind.ACTIVITY_TYPE):
                continue
            for (category, _scope), q in sv.items():
                if category == "climate_change":
                    residual += abs(q.amount)
        total = sum(
            q.amount for (c, _s), q in scoped_total(result.post_allocation).items()
            if c == "climate_change"
        )
        assert residual <= 1e-9 * max(total, 1.0)
