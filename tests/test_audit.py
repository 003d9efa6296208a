import json

import pytest

from susmine import (
    CapabilityMatrix,
    SchemaError,
    SupportLevel,
    load_literature_matrix,
    parse_annotations,
    parse_ocel,
    run_pipeline,
)
from susmine.audit import AUDIT_COLUMNS
from susmine.generator import generate_bundle

from conftest import make_log
from extend import LEVEL_ORDER, extend_annotations
from test_annotations import bundle_doc
from test_inventory import instance_assignment


def audit_of(doc, log=None):
    log = log or make_log(events=[("e1", "emit", "2024-01-01T08:00:00Z", [], {})])
    result = run_pipeline(log, parse_annotations(json.dumps(doc)))
    return {col: level.value for col, level in result.audit_row.items()}


def test_empty_bundle_scores_all_none():
    row = audit_of(bundle_doc())
    assert set(row.values()) == {"none"}


def test_single_scope_climate_scores_half():
    row = audit_of(bundle_doc(assignments=[instance_assignment("e1", 5, scope="scope1")]))
    assert row["AP1"] == "full"
    assert row["AP2-Climate"] == "full"
    assert row["AP3-Climate"] == "half"
    assert row["AP4"] == "none"


def test_two_scopes_plus_allocation_score_full(demo_log, demo_bundle_path, machine_bundle_path):
    # merge the two shipped bundles: scoped figures plus an allocation rule
    base = json.loads(demo_bundle_path.read_text())
    machine = json.loads(machine_bundle_path.read_text())
    base["assignments"] += machine["assignments"]
    base["allocations"] = machine["allocations"]
    result = run_pipeline(demo_log, parse_annotations(json.dumps(base)))
    row = {col: level.value for col, level in result.audit_row.items()}
    assert row["AP1"] == "full"
    assert row["AP2-Climate"] == "full"
    assert row["AP3-Climate"] == "full"
    assert row["AP4"] == "full"
    # single-scope environmental data stays at half
    assert row["AP3-Env"] == "half"


def test_demo_bundle_without_rules_scores_ap4_none(demo_log, demo_bundle):
    result = run_pipeline(demo_log, demo_bundle)
    row = {col: level.value for col, level in result.audit_row.items()}
    assert row["AP3-Climate"] == "full"  # scope1 + scope3 present
    assert row["AP3-Social"] == "full"
    assert row["AP4"] == "none"


def test_unscoped_data_never_counts_toward_scoping():
    row = audit_of(bundle_doc(assignments=[instance_assignment("e1", 5)]))
    assert row["AP2-Climate"] == "full"
    assert row["AP3-Climate"] == "none"


def test_half_unreachable_outside_ap3():
    for seed in range(6):
        gb = generate_bundle(seed, 50)
        log = parse_ocel(gb.log_json)
        result = run_pipeline(log, parse_annotations(gb.annotations_json))
        for col in AUDIT_COLUMNS:
            if not col.startswith("AP3"):
                assert result.audit_row[col] is not SupportLevel.HALF


def test_literature_matrix_rows():
    matrix = load_literature_matrix()
    rows = dict(matrix.rows)
    assert len(matrix.rows) == 6
    assert list(rows) == [
        "Houy et al.", "Hoesch-Klohe et al.", "Recker et al.",
        "Wesumperuma et al.", "Zhu et al.", "Betz",
    ]

    houy = rows["Houy et al."]
    assert houy["AP1"] is SupportLevel.FULL
    assert all(houy[c] is SupportLevel.NONE for c in AUDIT_COLUMNS if c != "AP1")

    hoesch = rows["Hoesch-Klohe et al."]
    assert hoesch["AP1"] is SupportLevel.FULL
    assert hoesch["AP2-Climate"] is SupportLevel.FULL
    assert hoesch["AP3-Climate"] is SupportLevel.HALF
    assert hoesch["AP4"] is SupportLevel.FULL
    assert all(
        hoesch[c] is SupportLevel.NONE
        for c in ("AP2-Env", "AP2-Social", "AP3-Env", "AP3-Social")
    )

    betz = rows["Betz"]
    assert betz["AP1"] is SupportLevel.NONE
    assert betz["AP4"] is SupportLevel.NONE
    assert all(
        betz[c] is SupportLevel.FULL
        for c in ("AP2-Climate", "AP2-Env", "AP2-Social", "AP3-Climate", "AP3-Env", "AP3-Social")
    )


def test_matrix_round_trip_is_identity():
    matrix = load_literature_matrix()
    again = CapabilityMatrix.from_json(matrix.to_json())
    assert again == matrix
    assert again.to_json() == matrix.to_json()


def test_matrix_schema_violations():
    with pytest.raises(SchemaError):
        CapabilityMatrix.from_json(json.dumps({"schema": "nope", "rows": []}))
    with pytest.raises(SchemaError):
        CapabilityMatrix.from_json(json.dumps({
            "schema": "susmine-matrix/1",
            "rows": [{"approach": "X", "cells": {"AP1": "full"}}],
        }))


@pytest.mark.parametrize("rows, message", [
    (5, "capability matrix: 'rows' must be an array, got 5"),
    (["Betz et al."], "capability matrix: rows must be objects"),
    ([{"approach": "X"}], "capability matrix: missing required key 'cells'"),
], ids=["rows-not-an-array", "row-not-an-object", "row-without-cells"])
def test_matrix_records_are_schema_errors(rows, message):
    with pytest.raises(SchemaError) as excinfo:
        CapabilityMatrix.from_json(json.dumps({"schema": "susmine-matrix/1", "rows": rows}))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("declared", [{}, {"schema": "susmine-matrix/2"}], ids=["no-schema", "other-schema"])
def test_a_matrix_must_declare_its_schema(declared):
    with pytest.raises(SchemaError) as excinfo:
        CapabilityMatrix.from_json(json.dumps({**declared, "rows": []}))
    assert str(excinfo.value) == 'capability matrix must declare "schema": "susmine-matrix/1"'


def test_render_text_has_all_columns():
    text = load_literature_matrix().render_text()
    for col in AUDIT_COLUMNS:
        assert col in text
    assert "Betz" in text


def test_extension_never_lowers_cells():
    for seed in range(8):
        gb = generate_bundle(seed, 40)
        log = parse_ocel(gb.log_json)
        base = run_pipeline(log, parse_annotations(gb.annotations_json))
        extended_doc = extend_annotations(gb, seed + 1000)
        extended = run_pipeline(log, parse_annotations(extended_doc))
        for col in AUDIT_COLUMNS:
            assert LEVEL_ORDER.index(extended.audit_row[col]) >= LEVEL_ORDER.index(base.audit_row[col]), (seed, col)
