import json
import os
import subprocess
import sys

import pytest

import susmine
from susmine import ComponentKind, IntegrityError, SchemaError, build_dfg, parse_ocel
from susmine.generator import generate_bundle

from conftest import make_log_doc
from oracles import serialize_ocel


MINIMAL = {
    "objectTypes": [{"name": "order"}],
    "eventTypes": [{"name": "pack"}],
    "objects": [{"id": "o1", "type": "order", "attributes": []}],
    "events": [
        {
            "id": "e1",
            "type": "pack",
            "time": "2024-01-01T08:00:00Z",
            "attributes": [],
            "relationships": [{"objectId": "o1", "qualifier": "handles"}],
        }
    ],
}


def test_parse_minimal_counts():
    log = parse_ocel(json.dumps(MINIMAL))
    assert (len(log.events), len(log.objects), len(log.relations)) == (1, 1, 1)


def test_relation_to_undefined_object_is_integrity_error():
    doc = json.loads(json.dumps(MINIMAL))
    doc["events"][0]["relationships"][0]["objectId"] = "o9"
    with pytest.raises(IntegrityError) as err:
        parse_ocel(json.dumps(doc))
    assert "o9" in str(err.value)


def test_lenient_parse_keeps_dirty_log():
    doc = json.loads(json.dumps(MINIMAL))
    doc["events"][0]["relationships"][0]["objectId"] = "o9"
    log = parse_ocel(json.dumps(doc), strict=False)
    assert len(log.relations) == 1


def test_missing_top_level_key():
    doc = {k: v for k, v in MINIMAL.items() if k != "objects"}
    with pytest.raises(SchemaError):
        parse_ocel(json.dumps(doc))


def test_unknown_key_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["events"][0]["extras"] = 1
    with pytest.raises(SchemaError):
        parse_ocel(json.dumps(doc))


def test_a_str_document_holding_a_raw_lone_surrogate_is_refused():
    # no \u escape to find: a str passed from code is checked whole
    doc = json.loads(json.dumps(MINIMAL))
    doc["events"][0]["type"] = "fill\udc80"
    with pytest.raises(SchemaError, match=r"^events\[0\]\.type: a string holds a lone surrogate \('\\udc80'\)$"):
        parse_ocel(json.dumps(doc, ensure_ascii=False))


def _with_extra_key(record):
    record["extra"] = 1


def _attribute_with_extra_key(record):
    record["attributes"] = [{"name": "price", "value": 1, "extra": 1}]


def _declaration_with_extra_key(record):
    record["attributes"] = [{"name": "price", "type": "float", "extra": 1}]


@pytest.mark.parametrize("path, edit, prefix", [
    ((), _with_extra_key, "document"),
    (("objectTypes", 0), _with_extra_key, "objectTypes"),
    (("eventTypes", 0), _declaration_with_extra_key, "eventTypes 'pack'"),
    (("objects", 0), _with_extra_key, "objects"),
    (("events", 0), _with_extra_key, "events"),
    (("events", 0, "relationships", 0), _with_extra_key, "event 'e1' relationship"),
    (("objects", 0), _attribute_with_extra_key, "object 'o1'"),
    (("events", 0), _attribute_with_extra_key, "event 'e1'"),
], ids=["document", "type", "declaration", "object", "event", "relationship", "object-attribute",
        "event-attribute"])
def test_every_record_kind_rejects_an_unknown_key(path, edit, prefix):
    doc = json.loads(json.dumps(MINIMAL))
    record = doc
    for step in path:
        record = record[step]
    edit(record)
    with pytest.raises(SchemaError) as excinfo:
        parse_ocel(json.dumps(doc))
    assert str(excinfo.value) == f"{prefix}: unsupported key(s) ['extra']"


@pytest.mark.parametrize("attributes, message", [
    ([{"name": "price", "value": 1, "time": "2024-01-01T08:00:00Z"},
      {"name": "price", "value": 2, "time": "2024-01-02T08:00:00Z"}],
     "object 'o1': unsupported key(s) ['time']"),
    ([{"name": "price", "value": 1}, {"name": "price", "value": 2}],
     "object 'o1': attribute 'price' is repeated"),
], ids=["time-key", "repeated-name"])
def test_object_attribute_timelines_rejected(attributes, message):
    doc = json.loads(json.dumps(MINIMAL))
    doc["objects"][0]["attributes"] = attributes
    with pytest.raises(SchemaError) as excinfo:
        parse_ocel(json.dumps(doc), strict=False)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("attributes, message", [
    ({"name": "price", "type": "float"}, "objectTypes: 'attributes' must be an array, got an object"),
    (None, "objectTypes: 'attributes' must be an array, got null"),
    (["price"], "objectTypes 'order': attribute entries must be objects"),
    ([{"name": "price"}], "objectTypes 'order': missing required key 'type'"),
    ([{"type": "float"}], "objectTypes 'order': missing required key 'name'"),
    ([{"name": "price", "value": 1.5}], "objectTypes 'order': unsupported key(s) ['value']"),
    ([{"name": "", "type": "float"}], "objectTypes 'order': 'name' must be a non-empty string, got \"\""),
    ([{"name": "price", "type": 1}], "objectTypes 'order': 'type' must be a string, got 1"),
    ([{"name": "price", "type": "float"}, {"name": "price", "type": "int"}],
     "objectTypes 'order': attribute 'price' is repeated"),
], ids=["not-an-array", "null", "not-an-object", "no-type", "no-name", "value-key", "empty-name", "non-string-type",
        "repeated-name"])
def test_attribute_declarations_are_name_and_type_strings(attributes, message):
    doc = json.loads(json.dumps(MINIMAL))
    doc["objectTypes"][0]["attributes"] = [{"name": "price", "type": "float"}]
    assert parse_ocel(json.dumps(doc)).object_types == {"order"}
    doc["objectTypes"][0]["attributes"] = attributes
    with pytest.raises(SchemaError) as excinfo:
        parse_ocel(json.dumps(doc))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("section", ["objectTypes", "eventTypes"])
def test_repeated_type_names_rejected(section):
    doc = json.loads(json.dumps(MINIMAL))
    name = doc[section][0]["name"]
    doc[section].append({"name": name})
    with pytest.raises(SchemaError) as excinfo:
        parse_ocel(json.dumps(doc), strict=False)
    assert str(excinfo.value) == f"{section}: type '{name}' is repeated"


@pytest.mark.parametrize("path, field, message", [
    (("objects", 0), "attributes", "objects: 'attributes' must be an array, got null"),
    (("events", 0), "attributes", "events: 'attributes' must be an array, got null"),
    (("events", 0), "relationships", "events: 'relationships' must be an array, got null"),
    (("events", 0, "relationships", 0), "qualifier",
     "event 'e1' relationship: 'qualifier' must be a string, got null"),
], ids=["object-attributes", "event-attributes", "relationships", "relationship-qualifier"])
def test_an_optional_array_is_absent_or_an_array(path, field, message):
    doc = json.loads(json.dumps(MINIMAL))
    record = doc
    for step in path:
        record = record[step]
    del record[field]
    parse_ocel(json.dumps(doc), strict=False)
    record[field] = None
    with pytest.raises(SchemaError) as excinfo:
        parse_ocel(json.dumps(doc), strict=False)
    assert str(excinfo.value) == message


def test_missing_keys_are_named_in_grammar_order_under_any_hash_seed():
    doc = {"objectTypes": [], "eventTypes": []}
    script = ("import sys\nfrom susmine import SchemaError, parse_ocel\n"
              "try:\n    parse_ocel(sys.argv[1])\nexcept SchemaError as exc:\n    print(exc)\n")
    src = os.path.dirname(os.path.dirname(susmine.__file__))
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script, json.dumps(doc)], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "document: missing required key 'objects'\n", (seed, done.stderr)


def test_object_to_object_relationships_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["objects"][0]["relationships"] = []
    with pytest.raises(SchemaError):
        parse_ocel(json.dumps(doc))


def test_bad_timestamp():
    doc = json.loads(json.dumps(MINIMAL))
    doc["events"][0]["time"] = "yesterday"
    with pytest.raises(SchemaError):
        parse_ocel(json.dumps(doc))


#: Valid ISO-8601 times whose UTC instant falls outside the representable range.
OUT_OF_RANGE_TIMES = ["9999-12-31T23:59:59-23:59", "0001-01-01T00:00:00+23:59"]


@pytest.mark.parametrize("time", OUT_OF_RANGE_TIMES)
def test_time_beyond_the_utc_range_rejected(time):
    doc = json.loads(json.dumps(MINIMAL))
    doc["events"][0]["time"] = time
    with pytest.raises(SchemaError) as info:
        parse_ocel(json.dumps(doc))
    assert str(info.value) == f"event 'e1': unparseable time '{time}'"


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_constants_rejected(token):
    text = json.dumps(MINIMAL).replace('"attributes": []', f'"attributes": [{{"name": "mass_kg", "value": {token}}}]', 1)
    assert token in text
    with pytest.raises(SchemaError, match=f"non-finite number '{token}'"):
        parse_ocel(text)


@pytest.mark.parametrize("section", ["events", "objects"])
def test_empty_type_name_rejected_even_when_lenient(section):
    doc = json.loads(json.dumps(MINIMAL))
    doc[section][0]["type"] = ""
    with pytest.raises(SchemaError) as excinfo:
        parse_ocel(json.dumps(doc), strict=False)
    assert str(excinfo.value) == f"{section}: 'type' must be a non-empty string, got \"\""


def test_malformed_json_raises_decode_error():
    with pytest.raises(json.JSONDecodeError):
        parse_ocel(b"{not json")


def test_round_trip_is_fixed_point():
    bundle = generate_bundle(3, 50)
    once = parse_ocel(bundle.log_json)
    twice = parse_ocel(serialize_ocel(once))
    assert once == twice
    assert serialize_ocel(once) == serialize_ocel(twice)


@pytest.mark.parametrize("seed, size", [(2, 250), (19, 600), (71, 1200)])
def test_round_trip_is_fixed_point_beyond_200_events(seed, size):
    bundle = generate_bundle(seed, size)
    once = parse_ocel(bundle.log_json)
    assert len(once.events) > 200
    text = serialize_ocel(once)
    twice = parse_ocel(text)
    assert once == twice
    assert serialize_ocel(twice) == text
    assert twice.digest() == once.digest()


def test_generator_round_trip_matches_declared_counts():
    bundle = generate_bundle(11, 100)
    log = parse_ocel(bundle.log_json)
    counts = bundle.ground_truth["counts"]
    assert len(log.events) == counts["events"]
    assert len(log.objects) == counts["objects"]
    assert log.member_counts(ComponentKind.ACTIVITY_TYPE) == counts["per_activity"]
    assert log.member_counts(ComponentKind.OBJECT_TYPE) == counts["per_object_type"]


def test_sorted_view_respects_timestamps_and_breaks_ties_by_id():
    # each event's activity is its id, so the one object's trace in the
    # directly-follows graph shows the order it was sorted into
    doc = make_log_doc(
        events=[
            ("b", "b", "2024-01-01T09:00:00Z", [("o1", "q")], {}),
            ("z", "z", "2024-01-01T08:00:00Z", [("o1", "q")], {}),
            ("a", "a", "2024-01-01T09:00:00Z", [("o1", "q")], {}),
        ],
        objects=[("o1", "box", {})],
    )
    log = parse_ocel(json.dumps(doc))
    assert build_dfg(log).edges == {("z", "a"): 1, ("a", "b"): 1}
    # document order is preserved on the unsorted view
    assert [e.event_id for e in log.events] == ["b", "z", "a"]


def test_empty_log_summary():
    log = parse_ocel(json.dumps(make_log_doc()))
    assert len(log.events) == 0
    assert len(log.objects) == 0
    assert log.member_counts(ComponentKind.ACTIVITY_TYPE) == {}
    assert log.member_counts(ComponentKind.OBJECT_TYPE) == {}


def test_summary_example_counts():
    events = [
        (f"e{i}", activity, f"2024-01-01T08:0{i}:00Z", [], {})
        for i, activity in enumerate(["ship", "ship", "ship", "pack", "pack"])
    ]
    log = parse_ocel(json.dumps(make_log_doc(events=events)))
    assert log.member_counts(ComponentKind.ACTIVITY_TYPE) == {"pack": 2, "ship": 3}


def test_summary_matches_brute_force_recount():
    bundle = generate_bundle(29, 120)
    doc = json.loads(bundle.log_json)
    log = parse_ocel(bundle.log_json)
    recount_activity = {}
    for e in doc["events"]:
        recount_activity[e["type"]] = recount_activity.get(e["type"], 0) + 1
    recount_types = {}
    for o in doc["objects"]:
        recount_types[o["type"]] = recount_types.get(o["type"], 0) + 1
    assert log.member_counts(ComponentKind.ACTIVITY_TYPE) == recount_activity
    assert log.member_counts(ComponentKind.OBJECT_TYPE) == recount_types

