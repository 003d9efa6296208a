import copy
import json
import pickle
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from susmine import (
    ComponentKind,
    ComponentRef,
    EventLog,
    Event,
    ObjectInstance,
    Quantity,
    Relation,
    UnknownComponentError,
    parse_ocel,
    resolve_component,
    validate_log,
)
from susmine.generator import generate_bundle
from susmine.model import PROCESS_REF, parse_timestamp

from conftest import make_log, make_log_doc


def two_event_log():
    return make_log(
        events=[
            ("e1", "pack", "2024-01-01T08:00:00Z", [("o1", "handles")], {}),
            ("e2", "ship", "2024-01-01T09:00:00Z", [("o1", "handles")], {}),
        ],
        objects=[("o1", "order", {})],
    )


def test_resolve_activity_instance():
    log = two_event_log()
    ref = ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "e1")
    assert resolve_component(ref, log).event_id == "e1"


def test_resolve_process_is_whole_log():
    log = two_event_log()
    assert resolve_component(PROCESS_REF, log) is log


def test_resolve_missing_object_type():
    log = two_event_log()
    with pytest.raises(UnknownComponentError):
        resolve_component(ComponentRef(ComponentKind.OBJECT_TYPE, "truck"), log)


def test_resolve_every_enumerated_component():
    log = two_event_log()
    refs = [PROCESS_REF]
    refs += [ComponentRef(ComponentKind.ACTIVITY_TYPE, a) for a in log.activity_types]
    refs += [ComponentRef(ComponentKind.OBJECT_TYPE, t) for t in log.object_types]
    refs += [ComponentRef(ComponentKind.ACTIVITY_INSTANCE, e.event_id) for e in log.events]
    refs += [ComponentRef(ComponentKind.OBJECT_INSTANCE, o.object_id) for o in log.objects]
    for ref in refs:
        resolve_component(ref, log)
    for kind in (ComponentKind.ACTIVITY_INSTANCE, ComponentKind.OBJECT_INSTANCE,
                 ComponentKind.ACTIVITY_TYPE, ComponentKind.OBJECT_TYPE):
        with pytest.raises(UnknownComponentError):
            resolve_component(ComponentRef(kind, "nope"), log)


def test_validate_well_formed_log_is_clean():
    assert validate_log(two_event_log()) == []


def test_validate_reports_dangling_relation():
    log = two_event_log()
    dirty = EventLog(
        activity_types=log.activity_types,
        object_types=log.object_types,
        events=log.events,
        objects=log.objects,
        relations=log.relations + [Relation("e1", "o9", "handles")],
    )
    report = validate_log(dirty)
    assert len(report) == 1
    assert report[0].entity_id == "o9"


def test_validate_reports_duplicate_event_id():
    log = two_event_log()
    dup = Event("e1", "pack", parse_timestamp("2024-01-01T10:00:00Z"))
    dirty = EventLog(
        activity_types=log.activity_types,
        object_types=log.object_types,
        events=log.events + [dup],
        objects=log.objects,
        relations=log.relations,
    )
    report = validate_log(dirty)
    # brute-force recount of ids must agree with what the report names
    ids = [e.event_id for e in dirty.events]
    duplicated = sorted({i for i in ids if ids.count(i) > 1})
    assert duplicated == ["e1"]
    assert [v.entity_id for v in report if v.code == "duplicate_event_id"] == duplicated


def test_validate_is_idempotent():
    dirty = EventLog(
        activity_types={"pack"},
        object_types=set(),
        events=[Event("e1", "mystery", parse_timestamp("2024-01-01T08:00:00Z"))],
        objects=[ObjectInstance("o1", "undeclared")],
        relations=[Relation("e9", "o9", "")],
    )
    first = validate_log(dirty)
    second = validate_log(dirty)
    assert first == second
    assert len(first) == 4


def test_timestamps_normalized_to_utc():
    ts = parse_timestamp("2024-06-01T12:00:00+02:00")
    assert ts.hour == 10
    assert ts.utcoffset().total_seconds() == 0
    naive = parse_timestamp("2024-06-01T12:00:00")
    assert naive.utcoffset().total_seconds() == 0


def test_component_ref_validation():
    with pytest.raises(ValueError):
        ComponentRef(ComponentKind.PROCESS, "x")
    with pytest.raises(ValueError):
        ComponentRef(ComponentKind.ACTIVITY_TYPE, None)


@pytest.mark.parametrize("ref", [PROCESS_REF, ComponentRef(ComponentKind.OBJECT_INSTANCE, "o1")])
def test_component_ref_survives_deepcopy_and_pickle(ref):
    for again in (copy.deepcopy(ref), pickle.loads(pickle.dumps(ref))):
        assert type(again) is ComponentRef
        assert again == ref and hash(again) == hash(ref)
        assert (again.kind, again.id, str(again)) == (ref.kind, ref.id, str(ref))


_QUANTITIES = [
    (Quantity(Decimal("1.50"), "kg"), "Quantity(amount=Decimal('1.50'), unit='kg')"),
    (Quantity(2.5, "kg"), "Quantity(amount=2.5, unit='kg')"),
    (Quantity(-0.0, "kg CO2e"), "Quantity(amount=-0.0, unit='kg CO2e')"),
    (Quantity(7, "count"), "Quantity(amount=Decimal('7'), unit='count')"),
    (Quantity(amount=Decimal("-1E+3"), unit="kg"), "Quantity(amount=Decimal('-1E+3'), unit='kg')"),
]


@pytest.mark.parametrize("q, text", _QUANTITIES)
def test_quantity_keeps_the_dataclass_text_and_survives_deepcopy_and_pickle(q, text):
    assert repr(q) == str(q) == text
    for again in (copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert type(again) is Quantity
        assert again == q and hash(again) == hash(q)
        assert repr(again) == text
        assert type(again.amount) is type(q.amount)


def test_quantity_equality_and_hash_are_those_of_its_fields():
    assert Quantity(7, "kg") == Quantity(Decimal(7), "kg") == Quantity(7.0, "kg")
    assert hash(Quantity(7, "kg")) == hash(Quantity(7.0, "kg")) == hash((Decimal(7), "kg"))
    assert Quantity(7, "kg") != Quantity(7, "g")
    assert Quantity(7, "kg") != Quantity(8, "kg")
    assert len({Quantity(1.0, "kg"), Quantity(Decimal(1), "kg"), Quantity(1.0, "g")}) == 2
    # a cell is the tuple (amount, unit): it equals the plain tuple and sorts like one
    assert Quantity(2.5, "kg") == (2.5, "kg")
    assert sorted([Quantity(2.0, "kg"), Quantity(1.0, "kg"), Quantity(1.0, "g")]) == \
        [(1.0, "g"), (1.0, "kg"), (2.0, "kg")]
    amount, unit = Quantity(Decimal("0.5"), "t")
    assert (amount, unit) == (Decimal("0.5"), "t")


@pytest.mark.parametrize("amount, error, message", [
    (float("inf"), ValueError, "non-finite amount: inf"),
    (float("nan"), ValueError, "non-finite amount: nan"),
    (Decimal("NaN"), ValueError, "non-finite amount: NaN"),
    (Decimal("-Infinity"), ValueError, "non-finite amount: -Infinity"),
    ("1", TypeError, "amount must be Decimal or float, got str"),
    (None, TypeError, "amount must be Decimal or float, got NoneType"),
    (True, TypeError, "amount must be Decimal or float, got bool"),
    (False, TypeError, "amount must be Decimal or float, got bool"),
])
def test_quantity_rejects_non_finite_and_non_numeric_amounts(amount, error, message):
    with pytest.raises(error) as exc:
        Quantity(amount, "kg")
    assert str(exc.value) == message


def lenient_log():
    """Undeclared activity 'audit' and object type 'pallet', interleaved
    with declared ones so log order differs from sorted order."""
    doc = make_log_doc(
        events=[
            ("e3", "ship", "2024-01-01T08:00:00Z", [("o2", "handles")], {}),
            ("e1", "audit", "2024-01-01T08:01:00Z", [("o1", "checks")], {}),
            ("e2", "pack", "2024-01-01T08:02:00Z", [("p1", "loads")], {}),
            ("e0", "ship", "2024-01-01T08:03:00Z", [("o1", "handles")], {}),
            ("e4", "audit", "2024-01-01T08:04:00Z", [], {}),
        ],
        objects=[("o2", "order", {}), ("p1", "pallet", {}), ("o1", "order", {})],
        activity_types=["pack", "ship"],
        object_types=["order"],
    )
    return parse_ocel(json.dumps(doc), strict=False)


def structure_logs():
    """Generated logs beyond the 200-event ceiling plus a lenient log."""
    logs = [parse_ocel(generate_bundle(seed, 1500).log_json) for seed in (3, 11)]
    return logs + [lenient_log()]


def type_refs(log):
    activities = log.activity_types | {e.activity for e in log.events}
    object_types = log.object_types | {o.object_type for o in log.objects}
    return ([ComponentRef(ComponentKind.ACTIVITY_TYPE, a) for a in sorted(activities)]
            + [ComponentRef(ComponentKind.OBJECT_TYPE, t) for t in sorted(object_types)])


def test_members_equal_brute_force_filter_in_log_order():
    for log in structure_logs():
        for type_ref in type_refs(log):
            if type_ref.kind is ComponentKind.ACTIVITY_TYPE:
                expected = [e for e in log.events if e.activity == type_ref.id]
            else:
                expected = [o for o in log.objects if o.object_type == type_ref.id]
            assert expected, type_ref
            assert log.members(type_ref) == expected, type_ref
        assert log.members(ComponentRef(ComponentKind.ACTIVITY_TYPE, "no_such_type")) == []
        assert log.members(PROCESS_REF) == []


def test_member_counts_equal_brute_force_counts():
    for log in structure_logs():
        for kind, names in ((ComponentKind.ACTIVITY_TYPE, [e.activity for e in log.events]),
                            (ComponentKind.OBJECT_TYPE, [o.object_type for o in log.objects])):
            counts = log.member_counts(kind)
            assert counts == {name: names.count(name) for name in set(names)}
            assert list(counts) == sorted(counts)
    assert EventLog().member_counts(ComponentKind.ACTIVITY_TYPE) == {}


def test_digest_is_computed_once_per_log(monkeypatch):
    log = parse_ocel(generate_bundle(3, 300).log_json)
    fresh = EventLog(log.activity_types, log.object_types, log.events, log.objects, log.relations)
    renders = []
    real_dumps = json.dumps

    def counting_dumps(*args, **kwargs):
        renders.append(1)
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr("susmine.model.json.dumps", counting_dumps)
    first = log.digest()
    assert len(renders) == 1
    assert log.digest() == first and log.digest() == first
    assert len(renders) == 1
    assert fresh.digest() == first
    assert len(renders) == 2
    assert two_event_log().digest() != first  # the memo belongs to the instance


def test_every_member_lifts_back_to_its_type():
    for log in structure_logs():
        for type_ref in type_refs(log):
            for member in log.members(type_ref):
                assert log.lift(member.ref, type_ref.kind) == type_ref
                assert log.lift(member.ref, ComponentKind.PROCESS) == PROCESS_REF
            assert log.lift(type_ref, type_ref.kind) == type_ref
            assert log.lift(type_ref, ComponentKind.PROCESS) == PROCESS_REF


def test_lift_returns_none_where_nothing_rolls_up():
    log = lenient_log()
    event = ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "e1")
    obj = ComponentRef(ComponentKind.OBJECT_INSTANCE, "p1")
    assert log.lift(event, ComponentKind.OBJECT_TYPE) is None
    assert log.lift(obj, ComponentKind.ACTIVITY_TYPE) is None
    assert log.lift(PROCESS_REF, ComponentKind.ACTIVITY_TYPE) is None
    assert log.lift(ComponentRef(ComponentKind.OBJECT_TYPE, "order"), ComponentKind.ACTIVITY_TYPE) is None
    assert log.lift(ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "missing"), ComponentKind.ACTIVITY_TYPE) is None
    assert log.lift(PROCESS_REF, ComponentKind.PROCESS) == PROCESS_REF


_refs = st.one_of(
    st.just(PROCESS_REF),
    st.builds(
        ComponentRef,
        st.sampled_from([k for k in ComponentKind if k is not ComponentKind.PROCESS]),
        st.text(alphabet="ab_Z9", min_size=1, max_size=3),
    ),
)


@given(st.lists(_refs, max_size=40))
def test_component_order_is_kind_value_then_id(refs):
    assert sorted(refs) == sorted(refs, key=lambda r: (r.kind.value, r.id or ""))


def brute_force_related(log, events, object_id, qualifier):
    """Scan every relation: the unindexed definition of events_related_to
    (``events`` maps event ids to events)."""
    seen, out = set(), []
    for rel in log.relations:
        if rel.object_id != object_id or (qualifier is not None and rel.qualifier != qualifier):
            continue
        if rel.event_id not in seen:
            seen.add(rel.event_id)
            if rel.event_id in events:
                out.append(events[rel.event_id])
    return out


def awkward_relations_log():
    """Built in code, as only a lenient log could be: a duplicated relation,
    one event related twice under different qualifiers, a relation to an
    absent event, one to an absent object, and an object with no relations."""
    ts = parse_timestamp("2024-01-01T08:00:00Z")
    events = [Event("e1", "pack", ts), Event("e2", "ship", ts), Event("e3", "ship", ts)]
    relations = [
        Relation("e2", "o1", "a"),
        Relation("e1", "o1", "b"),
        Relation("e2", "o1", "a"),
        Relation("ghost", "o1", "a"),
        Relation("e2", "o1", "b"),
        Relation("e3", "nowhere", "a"),
    ]
    return EventLog({"pack", "ship"}, {"order"}, events,
                    [ObjectInstance("o1", "order"), ObjectInstance("o2", "order")], relations)


def test_events_related_to_keeps_relation_order_and_skips_the_unknown():
    log = awkward_relations_log()
    ids = lambda events: [e.event_id for e in events]  # noqa: E731
    assert ids(log.events_related_to("o1")) == ["e2", "e1"]
    assert ids(log.events_related_to("o1", "a")) == ["e2"]
    assert ids(log.events_related_to("o1", "b")) == ["e1", "e2"]
    assert ids(log.events_related_to("nowhere")) == ["e3"]
    assert log.events_related_to("o2") == []
    assert log.events_related_to("no_such_object") == []


def test_events_related_to_equals_brute_force_scan():
    for log in [*structure_logs(), awkward_relations_log()]:
        events = {e.event_id: e for e in log.events}
        qualifiers = [None, "no_such_qualifier", *sorted({r.qualifier for r in log.relations})]
        object_ids = [o.object_id for o in log.objects] + ["nowhere", "no_such_object"]
        for object_id in object_ids:
            for qualifier in qualifiers:
                assert log.events_related_to(object_id, qualifier) == \
                    brute_force_related(log, events, object_id, qualifier), (object_id, qualifier)
