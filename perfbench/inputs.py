"""Seeded inputs for the benchmark workloads.

Every builder is a pure function of its seed: the same seed gives the
same bytes. ``gen-objects`` comes from the library's generator, which
ships ground truth with each bundle. ``wide-factors`` is built here
without calling susmine, and its expected totals are summed directly
from the generated documents by :func:`component_vectors`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from decimal import Decimal

#: (category, scope) -> amount
Totals = dict[tuple[str, str], float]


@dataclass
class Case:
    """One ``assess`` call's inputs plus what its report must contain."""

    log_json: str
    annotations_json: str
    expected_totals: Totals
    events: int


def _ground_truth_totals(ground_truth: dict) -> Totals:
    return {(t["category"], t["scope"]): t["amount"] for t in ground_truth["impact_totals"]}


def _generated_case(seed: int, size: int) -> Case:
    from susmine.generator import generate_bundle

    gb = generate_bundle(seed % 2**64, size)
    return Case(gb.log_json, gb.annotations_json, _ground_truth_totals(gb.ground_truth), size)


GEN_OBJECTS_EVENTS = 8000


def gen_objects(seed: int) -> list[Case]:
    """One generated bundle of 8k events: ~4k objects, ~16k relations and
    ~1.6k related_events allocation rules over 5 flows."""
    return [_generated_case(seed, GEN_OBJECTS_EVENTS)]


WIDE_EVENTS = 4000
WIDE_FLOWS = 2000
WIDE_CATEGORIES = 12
WIDE_HUBS = 8
_WIDE_ACTIVITIES = tuple(f"step_{i}" for i in range(7))
_WIDE_UNITS = ("kg", "kWh", "MJ", "count")
_CLASSES = ("climate", "environmental", "social")
_SCOPES = (None, "scope1", "scope2", "scope3")
_BASE_TIME = datetime(2024, 1, 1, tzinfo=timezone.utc)


def wide_factors(seed: int) -> list[Case]:
    """A large factor table on a log with few shared objects.

    4k events over 7 activities, each related to 1-2 of 8 hub objects.
    2,000 flows, each characterized into 1-3 of 12 categories; 1-2
    assignments per event over random flows and scopes. Each hub's impact
    moves onto its related events by a mass key. A hub holds two
    assignments of two-category flows on distinct scopes, so every hub
    holds four (category, scope) keys: the allocation ledger, and with it
    the report, would otherwise swing in size with the seed.
    """
    rng = random.Random(seed)
    categories = {
        f"cat{i:02d}": {
            "class": _CLASSES[i % 3],
            "impact_unit": "kg CO2e" if _CLASSES[i % 3] == "climate" else f"unit{i:02d}",
        }
        for i in range(WIDE_CATEGORIES)
    }
    flows = []
    for i in range(WIDE_FLOWS):
        chosen = rng.sample(sorted(categories), rng.randrange(1, 4))
        flows.append({
            "flow": f"flow{i:04d}",
            "unit": rng.choice(_WIDE_UNITS),
            "direction": rng.choice(("input", "output")),
            "factors": {c: f"{rng.uniform(0.001, 5.0):.4f}" for c in sorted(chosen)},
        })

    assignments = []

    def assign(component: dict, flow: dict, scope: str | None) -> None:
        entry = {
            "component": component,
            "flow": flow["flow"],
            "direction": flow["direction"],
            "amount": f"{rng.uniform(0.01, 40.0):.3f}",
            "unit": flow["unit"],
        }
        if scope is not None:
            entry["scope"] = scope
        assignments.append(entry)

    hubs = [f"hub{i}" for i in range(WIDE_HUBS)]
    events = []
    current = _BASE_TIME
    for i in range(WIDE_EVENTS):
        current += timedelta(seconds=rng.randrange(1, 120))
        event_id = f"e{i + 1:05d}"
        # the first hub cycles so every hub has related events
        related = [hubs[i % WIDE_HUBS]]
        if rng.random() < 0.5:
            related.append(rng.choice([h for h in hubs if h != related[0]]))
        events.append({
            "id": event_id,
            "type": rng.choice(_WIDE_ACTIVITIES),
            "time": current.isoformat().replace("+00:00", "Z"),
            "attributes": [{"name": "mass_kg", "value": round(rng.uniform(0.5, 20.0), 3)}],
            "relationships": [{"objectId": h, "qualifier": "uses"} for h in related],
        })
        for _ in range(rng.randrange(1, 3)):
            assign({"kind": "activity_instance", "id": event_id}, rng.choice(flows), rng.choice(_SCOPES))

    two_category_flows = [f for f in flows if len(f["factors"]) == 2]
    rules = []
    for hub in hubs:
        for scope in rng.sample(_SCOPES, 2):
            assign({"kind": "object_instance", "id": hub}, rng.choice(two_category_flows), scope)
        rules.append({
            "source": {"kind": "object_instance", "id": hub},
            "targets": "related_events",
            "key": "mass",
            "fraction": "1",
        })

    log_doc = {
        "objectTypes": [{"name": "resource"}],
        "eventTypes": [{"name": a} for a in _WIDE_ACTIVITIES],
        "objects": [{"id": h, "type": "resource"} for h in hubs],
        "events": events,
    }
    annotation_doc = {
        "schema": "susmine/1",
        "scopes": "ghg",
        "assignments": assignments,
        "characterization": {"categories": categories, "factors": flows},
        "allocations": rules,
    }
    totals: Totals = {}
    for vector in component_vectors(annotation_doc).values():
        for key, amount in vector.items():
            totals[key] = totals.get(key, 0.0) + amount
    return [Case(_dump(log_doc), _dump(annotation_doc), totals, WIDE_EVENTS)]


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def component_vectors(annotation_doc: dict) -> dict[tuple[str, str | None], Totals]:
    """Pre-allocation impact per component by direct summation of
    amount x factor over the bundle's absolute assignments.

    Only what this benchmark's inputs use is supported: each assignment's
    unit and direction must match its flow's factor entry exactly.
    ``per_instance`` assignments are skipped, since their totals depend on
    the log; callers that need process totals use ground truth for them.
    """
    entries = {}
    for entry in annotation_doc["characterization"]["factors"]:
        entries[(entry["flow"], entry["unit"])] = entry
    vectors: dict[tuple[str, str | None], Totals] = {}
    for a in annotation_doc["assignments"]:
        if a.get("basis", "absolute") != "absolute":
            continue
        entry = entries.get((a["flow"], a["unit"]))
        if entry is None or entry.get("direction", a["direction"]) != a["direction"]:
            raise ValueError(f"no exact factor entry for {a['flow']} [{a['unit']}, {a['direction']}]")
        amount = float(Decimal(str(a["amount"])))
        scope = a.get("scope") or "unscoped"
        vector = vectors.setdefault((a["component"]["kind"], a["component"].get("id")), {})
        for category, factor in entry["factors"].items():
            key = (category, scope)
            vector[key] = vector.get(key, 0.0) + amount * float(Decimal(str(factor)))
    return vectors


WORKLOADS = {
    "gen-objects": gen_objects,
    "wide-factors": wide_factors,
}
