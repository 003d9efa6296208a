import json
import shutil

import pytest

from susmine import (
    IntegrityError,
    MissingFixtureError,
    SchemaError,
    UnknownScopeError,
    parse_annotations,
    parse_ocel,
)
from susmine.fixtures import data_root, fixture_path, load_manifest, verify_fixtures, write_manifest


def test_pristine_checkout_all_pass():
    results = verify_fixtures()
    assert results
    assert all(results.values()), {k: v for k, v in results.items() if not v}


def test_manifest_covers_every_shipped_file():
    listed = {e.path for e in load_manifest()}
    on_disk = {
        p.relative_to(data_root()).as_posix()
        for p in data_root().rglob("*")
        if p.is_file() and p.name != "MANIFEST.json"
    }
    assert listed == on_disk


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["files"][0].pop("path"), "manifest: missing required key 'path'"),
    (lambda doc: doc["files"][0].update(sha256=None), "manifest: 'sha256' must be a string, got null"),
    (lambda doc: doc["files"].append("ocel/minimal.json"), "manifest: files must be objects"),
    (lambda doc: doc.pop("schema"), 'manifest must declare "schema": "susmine-manifest/1"'),
    (lambda doc: doc.update(schema="susmine-manifest/2"), 'manifest must declare "schema": "susmine-manifest/1"'),
], ids=["no-path", "null-digest", "not-an-object", "no-schema", "other-schema"])
def test_malformed_manifest_entries_are_schema_errors(tmp_path, edit, message):
    doc = json.loads((data_root() / "MANIFEST.json").read_text())
    edit(doc)
    (tmp_path / "MANIFEST.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as excinfo:
        load_manifest(tmp_path)
    assert str(excinfo.value) == message


def test_tampered_fixture_fails(tmp_path):
    root = tmp_path / "data"
    shutil.copytree(data_root(), root)
    target = root / "ocel/minimal.json"
    target.write_text(target.read_text() + "\n")
    results = verify_fixtures(root=root)
    assert results["ocel/minimal.json"] is False
    assert results["ocel/orders.json"] is True


def test_missing_fixture_raises(tmp_path):
    root = tmp_path / "data"
    shutil.copytree(data_root(), root)
    (root / "ocel/minimal.json").unlink()
    with pytest.raises(MissingFixtureError):
        verify_fixtures(root=root)


def test_write_manifest_round_trip(tmp_path):
    root = tmp_path / "data"
    shutil.copytree(data_root(), root)
    write_manifest(root)
    assert all(verify_fixtures(root=root).values())
    assert load_manifest(root) == load_manifest()
    assert all(entry.description for entry in load_manifest(root))


def test_write_manifest_writes_a_first_manifest(tmp_path):
    (tmp_path / "ocel").mkdir()
    (tmp_path / "ocel" / "x.json").write_text("{}")
    write_manifest(tmp_path)
    assert [(e.path, e.description) for e in load_manifest(tmp_path)] == [("ocel/x.json", "")]
    assert verify_fixtures(root=tmp_path) == {"ocel/x.json": True}


def test_valid_and_invalid_examples_for_every_schema():
    # OCEL subset
    parse_ocel(fixture_path("ocel/minimal.json").read_bytes())
    parse_ocel(fixture_path("ocel/mineral_water.json").read_bytes())
    parse_ocel(fixture_path("ocel/orders.json").read_bytes())
    with pytest.raises(IntegrityError):
        parse_ocel(fixture_path("ocel/invalid_dangling_relation.json").read_bytes())
    # annotation bundle
    parse_annotations(fixture_path("annotations/mineral_water.json").read_bytes())
    parse_annotations(fixture_path("annotations/machine_allocation.json").read_bytes())
    with pytest.raises(UnknownScopeError):
        parse_annotations(fixture_path("annotations/invalid_unknown_scope.json").read_bytes())
    with pytest.raises(SchemaError, match="class must be"):
        parse_annotations(fixture_path("annotations/invalid_impact_class.json").read_bytes())
    # literature matrix
    from susmine import CapabilityMatrix, load_literature_matrix

    assert len(load_literature_matrix().rows) == 6
    with pytest.raises(SchemaError):
        CapabilityMatrix.from_json(json.dumps({"schema": "other/1"}))
