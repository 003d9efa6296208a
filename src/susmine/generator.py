"""Deterministic synthetic (log, annotations) bundle generator.

Every bundle is fully determined by its seed (PRNG: MT19937 via
``random.Random``, using only ``random``/``randrange``/``choice``/
``uniform``/``sample``) and ships with a ground-truth file whose totals
are computed here by direct summation over the generation records —
independently of the analysis pipeline, so they can serve as an oracle
for it.

Generated bundles are strict-mode clean by construction: every flow has
a factor entry, every allocation rule moves its source's full impact
onto related activity instances, and climate-relevant flows only ever
end up on activity components, which keeps process totals equal to the
sum over activity nodes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from decimal import Decimal

GROUND_TRUTH_SCHEMA_ID = "susmine-groundtruth/1"

_ACTIVITIES = (
    "receive_order",
    "pack_items",
    "quality_check",
    "load_truck",
    "ship_order",
    "deliver_order",
    "invoice_customer",
)

_OBJECT_TYPES = ("order", "item", "machine", "truck")

_QUALIFIERS = ("uses", "produces", "handles")

#: flow -> (unit, direction, {category: factor})
_FLOWS = {
    "CO2": ("kg", "output", {"climate_change": 1.0}),
    "energy": ("kWh", "input", {"climate_change": 0.4}),
    "CFC-11": ("kg", "output", {"ozone_depletion": 1.0}),
    "water": ("kg", "input", {"water_use": 1.0}),
    "work_accidents": ("count", "output", {"work_accidents": 1.0}),
}

#: flows safe on components that never get an allocation rule
_NON_CLIMATE_FLOWS = ("CFC-11", "water", "work_accidents")

_CATEGORIES = {
    "climate_change": ("kg CO2e", "climate"),
    "ozone_depletion": ("kg CFCe", "environmental"),
    "water_use": ("kg", "environmental"),
    "work_accidents": ("count", "social"),
}

_SCOPES = (None, "scope1", "scope2", "scope3")

_BASE_TIME = datetime(2024, 3, 1, 8, 0, 0, tzinfo=timezone.utc)


@dataclass
class GeneratedBundle:
    seed: int
    size: int
    log_json: str
    annotations_json: str
    ground_truth: dict

    def ground_truth_json(self) -> str:
        return json.dumps(self.ground_truth, indent=2, sort_keys=True) + "\n"


def _amount(rng: random.Random, lo: float = 0.01, hi: float = 40.0) -> str:
    return str(round(rng.uniform(lo, hi), 3))


def _fmt_time(ts: datetime) -> str:
    return ts.isoformat().replace("+00:00", "Z")


def _make_log(rng: random.Random, size: int):
    events: list[dict] = []
    objects: list[dict] = []
    relations: dict[str, list[tuple[str, str]]] = {}  # event_id -> [(object_id, qualifier)]
    events_by_object: dict[str, list[str]] = {}  # object_id -> related event ids, in log order

    n_objects = 0 if size == 0 else max(2, size // 2)
    for i in range(n_objects):
        otype = "order" if i == 0 else rng.choice(_OBJECT_TYPES)
        attributes = {}
        if otype in ("order", "item"):
            attributes["economic_value"] = round(rng.uniform(5.0, 500.0), 2)
        if otype in ("item", "truck"):
            attributes["mass_kg"] = round(rng.uniform(0.5, 30.0), 3)
        objects.append({"id": f"o{i + 1:04d}", "type": otype, "attributes": attributes})

    current = _BASE_TIME
    for i in range(size):
        if i == 0 or rng.random() >= 0.1:
            current = current + timedelta(minutes=rng.randrange(1, 9), seconds=rng.randrange(0, 60))
        # else: reuse the previous timestamp to exercise tie-breaking
        attributes = {"mass_kg": round(rng.uniform(0.5, 20.0), 3)}
        if rng.random() < 0.8:
            attributes["economic_value"] = round(rng.uniform(1.0, 500.0), 2)
        event_id = f"e{i + 1:04d}"
        events.append({
            "id": event_id,
            "activity": rng.choice(_ACTIVITIES),
            "time": _fmt_time(current),
            "attributes": attributes,
        })
        rels = []
        if objects:
            for obj in rng.sample(objects, k=min(len(objects), rng.randrange(1, 4))):
                qualifier = "uses" if obj["type"] in ("machine", "truck") else rng.choice(_QUALIFIERS)
                rels.append((obj["id"], qualifier))
                events_by_object.setdefault(obj["id"], []).append(event_id)  # sample draws each object once
        relations[event_id] = rels

    return events, objects, relations, events_by_object


def _make_annotations(rng: random.Random, events, objects, events_by_object):
    assignments: list[dict] = []
    rules: list[dict] = []

    def add(component: dict, flow: str, scope, amount: str, basis: str = "absolute"):
        unit, direction, _ = _FLOWS[flow]
        entry = {
            "component": component,
            "flow": flow,
            "direction": direction,
            "amount": amount,
            "unit": unit,
        }
        if scope is not None:
            entry["scope"] = scope
        if basis != "absolute":
            entry["basis"] = basis
        assignments.append(entry)

    # instance-level assignments on events
    for ev in events:
        if rng.random() < 0.5:
            for _ in range(rng.randrange(1, 3)):
                add(
                    {"kind": "activity_instance", "id": ev["id"]},
                    rng.choice(sorted(_FLOWS)),
                    rng.choice(_SCOPES),
                    _amount(rng),
                )

    # type-level assignments on activities present in the log
    used_activities = sorted({ev["activity"] for ev in events})
    for activity in used_activities:
        if rng.random() < 0.4:
            basis = rng.choice(("absolute", "per_instance"))
            add(
                {"kind": "activity_type", "id": activity},
                rng.choice(sorted(_FLOWS)),
                rng.choice(_SCOPES),
                _amount(rng, 0.01, 10.0),
                basis,
            )

    # object assignments, each fully reallocated onto its related events
    event_attrs = {ev["id"]: ev["attributes"] for ev in events}
    for obj in objects:
        related = events_by_object.get(obj["id"], [])
        if not related or rng.random() >= 0.4:
            continue
        for _ in range(rng.randrange(1, 3)):
            add(
                {"kind": "object_instance", "id": obj["id"]},
                rng.choice(sorted(_FLOWS)),
                rng.choice(_SCOPES),
                _amount(rng),
            )
        keys = ["equal"]
        if all("mass_kg" in event_attrs[e] for e in related):
            keys.append("mass")
        if all("economic_value" in event_attrs[e] for e in related):
            keys.append("economic_value")
        rules.append({
            "source": {"kind": "object_instance", "id": obj["id"]},
            "targets": "related_events",
            "key": rng.choice(keys),
            "fraction": "1",
        })

    # object-type and process absolutes stay off the climate category so
    # all climate impact ends up attributable to activities
    used_object_types = sorted({obj["type"] for obj in objects})
    for otype in used_object_types:
        if rng.random() < 0.2:
            add(
                {"kind": "object_type", "id": otype},
                rng.choice(_NON_CLIMATE_FLOWS),
                rng.choice(_SCOPES),
                _amount(rng, 0.01, 5.0),
            )
    if events and rng.random() < 0.5:
        add(
            {"kind": "process"},
            rng.choice(_NON_CLIMATE_FLOWS),
            rng.choice(_SCOPES),
            _amount(rng, 0.1, 20.0),
        )

    return assignments, rules


def _annotation_doc(assignments, rules) -> dict:
    return {
        "schema": "susmine/1",
        "scopes": "ghg",
        "assignments": assignments,
        "characterization": {
            "categories": {
                name: {"impact_unit": unit, "class": cls}
                for name, (unit, cls) in _CATEGORIES.items()
            },
            "factors": [
                {"flow": flow, "unit": unit, "direction": direction, "factors": factors}
                for flow, (unit, direction, factors) in sorted(_FLOWS.items())
            ],
        },
        "allocations": rules,
    }


def _log_doc(events, objects, relations) -> dict:
    return {
        "objectTypes": [{"name": t} for t in sorted({o["type"] for o in objects})],
        "eventTypes": [{"name": a} for a in sorted({e["activity"] for e in events})],
        "objects": [
            {
                "id": o["id"],
                "type": o["type"],
                "attributes": [{"name": k, "value": v} for k, v in sorted(o["attributes"].items())],
            }
            for o in objects
        ],
        "events": [
            {
                "id": e["id"],
                "type": e["activity"],
                "time": e["time"],
                "attributes": [{"name": k, "value": v} for k, v in sorted(e["attributes"].items())],
                "relationships": [
                    {"objectId": oid, "qualifier": q} for oid, q in relations[e["id"]]
                ],
            }
            for e in events
        ],
    }


def _ground_truth(seed, size, events, objects, events_by_object, assignments, rules) -> dict:
    """Direct summation over the generation records; no pipeline code."""
    activity_of = {e["id"]: e["activity"] for e in events}
    event_attrs = {e["id"]: e["attributes"] for e in events}

    per_activity: dict[str, int] = {}
    for e in events:
        per_activity[e["activity"]] = per_activity.get(e["activity"], 0) + 1
    per_object_type: dict[str, int] = {}
    for o in objects:
        per_object_type[o["type"]] = per_object_type.get(o["type"], 0) + 1

    def occurrences(a: dict) -> int:
        # only activity types carry per_instance assignments
        if a.get("basis") == "per_instance":
            return per_activity[a["component"]["id"]]
        return 1

    def scope_label(a: dict) -> str:
        return a.get("scope") or "unscoped"

    inventory: dict[tuple[str, str, str], Decimal] = {}
    for a in assignments:
        key = (a["flow"], a["direction"], scope_label(a))
        inventory[key] = inventory.get(key, Decimal(0)) + Decimal(a["amount"]) * occurrences(a)

    impacts: dict[tuple[str, str], float] = {}
    for (flow, _direction, scope), total in inventory.items():
        for category, factor in _FLOWS[flow][2].items():
            key = (category, scope)
            impacts[key] = impacts.get(key, 0.0) + float(total) * factor

    # per-activity totals, post allocation
    act: dict[tuple[str, str, str], float] = {}

    def credit_activity(activity: str, flow: str, scope: str, amount: float):
        for category, factor in _FLOWS[flow][2].items():
            key = (activity, category, scope)
            act[key] = act.get(key, 0.0) + amount * factor

    object_vectors: dict[str, dict[tuple[str, str], float]] = {}
    for a in assignments:
        kind, cid = a["component"]["kind"], a["component"].get("id")
        amount = float(Decimal(a["amount"]))
        scope = scope_label(a)
        if kind == "activity_instance":
            credit_activity(activity_of[cid], a["flow"], scope, amount)
        elif kind == "activity_type":
            if a.get("basis") == "per_instance":
                for event_id, activity in activity_of.items():
                    if activity == cid:
                        credit_activity(activity, a["flow"], scope, amount)
            else:
                credit_activity(cid, a["flow"], scope, amount)
        elif kind == "object_instance":
            vec = object_vectors.setdefault(cid, {})
            for category, factor in _FLOWS[a["flow"]][2].items():
                key = (category, scope)
                vec[key] = vec.get(key, 0.0) + amount * factor

    # every rule's source has related events and at least one assignment
    for rule in rules:
        source = rule["source"]["id"]
        vec = object_vectors[source]
        targets = sorted(events_by_object[source])  # "e10000" sorts before "e9999"
        key_name = rule["key"]
        if key_name == "equal":
            weights = {t: 1.0 / len(targets) for t in targets}
        else:
            attribute = "mass_kg" if key_name == "mass" else "economic_value"
            values = {t: float(event_attrs[t][attribute]) for t in targets}
            total = sum(values.values())
            weights = {t: v / total for t, v in values.items()}
        for (category, scope), amount in vec.items():
            for target, weight in weights.items():
                key = (activity_of[target], category, scope)
                act[key] = act.get(key, 0.0) + amount * weight

    process_by_category: dict[str, float] = {}
    for (category, _scope), amount in impacts.items():
        process_by_category[category] = process_by_category.get(category, 0.0) + amount

    return {
        "schema": GROUND_TRUTH_SCHEMA_ID,
        "seed": seed,
        "size": size,
        "counts": {
            "events": len(events),
            "objects": len(objects),
            "per_activity": dict(sorted(per_activity.items())),
            "per_object_type": dict(sorted(per_object_type.items())),
        },
        "inventory_totals": [
            {
                "flow": flow,
                "direction": direction,
                "scope": scope,
                "amount": str(total),
                "unit": _FLOWS[flow][0],
            }
            for (flow, direction, scope), total in sorted(inventory.items())
        ],
        "impact_totals": [
            {
                "category": category,
                "scope": scope,
                "amount": amount,
                "unit": _CATEGORIES[category][0],
            }
            for (category, scope), amount in sorted(impacts.items())
        ],
        "activity_type_totals": [
            {"activity": activity, "category": category, "scope": scope, "amount": amount}
            for (activity, category, scope), amount in sorted(act.items())
        ],
        "process_category_totals": [
            {"category": category, "amount": amount}
            for category, amount in sorted(process_by_category.items())
        ],
    }


def generate_bundle(seed: int, size: int = 40) -> GeneratedBundle:
    """Generate a (log, annotations, ground truth) bundle.

    ``size`` is the number of events; 0 yields empty but schema-valid
    documents. Two calls with the same arguments produce identical bytes.
    """
    if not (0 <= seed < 2**64):
        raise ValueError("seed must be a 64-bit unsigned integer")
    if size < 0:
        raise ValueError("size must be >= 0")
    rng = random.Random(seed)
    events, objects, relations, events_by_object = _make_log(rng, size)
    assignments, rules = _make_annotations(rng, events, objects, events_by_object)
    return GeneratedBundle(
        seed=seed,
        size=size,
        log_json=json.dumps(_log_doc(events, objects, relations), indent=2, sort_keys=True) + "\n",
        annotations_json=json.dumps(_annotation_doc(assignments, rules), indent=2, sort_keys=True) + "\n",
        ground_truth=_ground_truth(seed, size, events, objects, events_by_object, assignments, rules),
    )

