"""Retype sweep: every field of a shipped document, replaced by a value of
the wrong type or range, dropped, or (a list element) duplicated, must make
lenient ``assess`` succeed or fail with a data error (exit 0 or 1), never
crash or exit as a usage error. The same holds for documents that name ids
the log lacks, and for the sweep seeded from each shipped invalid fixture."""

import copy
import json

import pytest

from susmine import Mode, build_report, run_pipeline
from susmine.cli import main
from susmine.fixtures import data_root, fixture_path
from susmine.model import EventLog, Relation

#: Each replacement value; the long integer is beyond float range.
RETYPES = (None, 0, -1, 2.5, 10**400, "", "x", [], {}, True)


def field_paths(node, prefix=()):
    """The path of every field under ``node``; of each list, only its first element."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = list(enumerate(node[:1]))
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def edited(doc, path, change):
    """A copy of ``doc`` with ``change(parent, key)`` applied to the field at ``path``."""
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    change(node, path[-1])
    return out


def mutations(doc, path):
    """(label, document) for each mutation of the field at ``path``: every
    retype, the field dropped and, for a list element, a copy appended."""
    for value in RETYPES:
        yield f"= {str(value)[:12]}", with_value(doc, path, value)
    yield "dropped", edited(doc, path, lambda node, key: node.__delitem__(key))
    if isinstance(path[-1], int):
        yield "duplicated", edited(doc, path, lambda node, key: node.append(node[key]))


def machine_variant(machine_bundle_path):
    """The machine_allocation bundle with a mass key and a unit conversion."""
    doc = json.loads(machine_bundle_path.read_text())
    doc["allocations"][0]["key"] = "mass"
    doc["units"] = {"declare": ["t"], "conversions": [{"from": "t", "to": "kg", "factor": "1000"}]}
    return doc


def lenient_assess(tmp_path, log_doc, bundle_doc):
    """Lenient ``assess`` on the two documents: its exit code, or a
    description of the exception that escaped ``main``."""
    log, bundle, out = tmp_path / "log.json", tmp_path / "bundle.json", tmp_path / "out"
    log.write_text(json.dumps(log_doc))
    bundle.write_text(json.dumps(bundle_doc))
    argv = ["assess", "--log", str(log), "--annotations", str(bundle), "--out", str(out), "--mode", "lenient"]
    try:
        return main(argv)
    except Exception as exc:  # any exception escaping main is the finding
        return f"{type(exc).__name__}: {exc}"


def sweep(tmp_path, log_doc, bundle_doc, retyped):
    """Run lenient ``assess`` once per mutation of each field of the document
    named by ``retyped``; return every case that exited 2 or raised."""
    doc = log_doc if retyped == "log" else bundle_doc
    failures = []
    for path in field_paths(doc):
        for label, mutated in mutations(doc, path):
            docs = (mutated, bundle_doc) if retyped == "log" else (log_doc, mutated)
            outcome = lenient_assess(tmp_path, *docs)
            if outcome not in (0, 1):
                failures.append(f"{'.'.join(map(str, path))} {label}: {outcome}")
    return failures


@pytest.mark.parametrize("retyped", ["log", "bundle"])
def test_retyped_fields_exit_0_or_1(retyped, tmp_path, capsys, demo_log_path, machine_bundle_path):
    log_doc = json.loads(demo_log_path.read_text())
    bundle_doc = machine_variant(machine_bundle_path)
    assert lenient_assess(tmp_path, log_doc, bundle_doc) == 0  # the documents as given assess cleanly
    failures = sweep(tmp_path, log_doc, bundle_doc, retyped)
    capsys.readouterr()
    assert failures == []


# -- dangling ids: a log or bundle that names an event or object the log lacks --

ABSENT = "absent-id"


def with_value(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``."""
    return edited(doc, path, lambda node, key: node.__setitem__(key, value))


def dangling_cases(log_doc, bundle_doc):
    """(label, log document, bundle document) for each way the two documents
    can name an id that the log does not hold."""
    relation = {"objectId": ABSENT, "qualifier": "uses"}
    log_edits = [
        ("relation to an absent object", ("events", 0, "relationships"),
         [*log_doc["events"][0]["relationships"], relation]),
        ("only relation to an absent object", ("events", 0, "relationships"), [relation]),
        # OCEL JSON nests each relation in its event, so only an object-side
        # listing can name an absent event; the subset rejects those outright
        ("relation to an absent event", ("objects", 0, "relationships"),
         [{"eventId": ABSENT, "qualifier": "made_by"}]),
    ]
    bundle_edits = [
        *((f"assignment on an absent {kind}", ("assignments", 0, "component"), {"kind": kind, "id": ABSENT})
          for kind in ("activity_instance", "object_instance", "activity_type", "object_type")),
        ("per-instance assignment on an absent object_type", ("assignments", 0),
         {**bundle_doc["assignments"][0], "basis": "per_instance",
          "component": {"kind": "object_type", "id": ABSENT}}),
        *((f"allocation source an absent {kind}", ("allocations", 0, "source"), {"kind": kind, "id": ABSENT})
          for kind in ("object_instance", "activity_instance")),
        ("allocation target an absent activity_instance", ("allocations", 0, "targets"),
         [{"kind": "activity_instance", "id": "e2"}, {"kind": "activity_instance", "id": ABSENT}]),
        ("allocation target an absent object_instance", ("allocations", 0, "targets"),
         [{"kind": "object_instance", "id": ABSENT}]),
    ]
    for label, path, value in log_edits:
        yield label, with_value(log_doc, path, value), bundle_doc
    for label, path, value in bundle_edits:
        yield label, log_doc, with_value(bundle_doc, path, value)


def test_dangling_ids_exit_0_or_1(tmp_path, capsys, demo_log_path, machine_bundle_path):
    log_doc = json.loads(demo_log_path.read_text())
    bundle_doc = machine_variant(machine_bundle_path)
    outcomes = {label: lenient_assess(tmp_path, *docs) for label, *docs in dangling_cases(log_doc, bundle_doc)}
    capsys.readouterr()
    assert len(outcomes) == 12
    assert {label: outcome for label, outcome in outcomes.items() if outcome not in (0, 1)} == {}


def test_relation_to_an_absent_event_changes_only_the_digest(demo_log, machine_bundle):
    # built in code, the one way a log can hold it: the relation is skipped everywhere
    with_dangling = EventLog(
        activity_types=demo_log.activity_types, object_types=demo_log.object_types,
        events=demo_log.events, objects=demo_log.objects,
        relations=[*demo_log.relations, Relation(ABSENT, "machine1", "uses"), Relation(ABSENT, "b1", "")],
    )
    before = build_report(run_pipeline(demo_log, machine_bundle, Mode.LENIENT))
    after = build_report(run_pipeline(with_dangling, machine_bundle, Mode.LENIENT))
    assert before["log"].pop("digest") != after["log"].pop("digest")
    assert before == after


# -- the sweep seeded from each shipped invalid fixture ------------------------

INVALID_FIXTURES = sorted(path.relative_to(data_root()).as_posix() for path in data_root().rglob("invalid_*"))


def seeded_documents(rel, log_doc, bundle_doc):
    """(log, bundle, the document to sweep) with the invalid fixture ``rel``
    in place of its valid counterpart."""
    text = fixture_path(rel).read_text()
    if rel.startswith("ocel/"):
        # a bundle that fits the fixture's own log: its one event carries the impact
        fitted = copy.deepcopy(bundle_doc)
        fitted["assignments"][0]["component"] = {"kind": "activity_instance", "id": "e1"}
        fitted["allocations"] = []
        return json.loads(text), fitted, "log"
    return log_doc, json.loads(text), "bundle"


def test_every_invalid_fixture_is_seeded():
    assert INVALID_FIXTURES == [
        "annotations/invalid_impact_class.json",
        "annotations/invalid_unknown_scope.json",
        "ocel/invalid_dangling_relation.json",
    ]


@pytest.mark.parametrize("rel", INVALID_FIXTURES)
def test_sweep_seeded_from_invalid_fixture_exits_0_or_1(rel, tmp_path, capsys, demo_log_path,
                                                         machine_bundle_path):
    log_doc, bundle_doc, retyped = seeded_documents(
        rel, json.loads(demo_log_path.read_text()), machine_variant(machine_bundle_path))
    assert lenient_assess(tmp_path, log_doc, bundle_doc) in (0, 1)
    failures = sweep(tmp_path, log_doc, bundle_doc, retyped)
    capsys.readouterr()
    assert failures == []
