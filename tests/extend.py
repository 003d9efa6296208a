"""Variants of a generated bundle's annotations: a strict superset, for
the tests that check audit capabilities only grow as annotations are
added, and a copy with avoided-burden credits, for the tests that check
conservation when signs are mixed."""

import copy
import json
import random
from decimal import Decimal

from susmine.audit import SupportLevel
from susmine.generator import _FLOWS, _SCOPES, GeneratedBundle, _amount

#: The audit's support levels from least to most: an extension's level for
#: a column is at least the base's in this order.
LEVEL_ORDER = (SupportLevel.NONE, SupportLevel.HALF, SupportLevel.FULL)


def extend_annotations(bundle: GeneratedBundle, seed: int) -> str:
    """Return a strict superset of the bundle's annotations.

    Adds assignments (possibly introducing a new flow with its own factor
    entry and category) and, when possible, an allocation on a not yet
    ruled object. Existing entries are never modified or removed, so
    audit capabilities can only grow.
    """
    rng = random.Random(seed)
    doc = json.loads(bundle.annotations_json)
    log = json.loads(bundle.log_json)

    event_ids = [e["id"] for e in log["events"]]
    activities = [t["name"] for t in log["eventTypes"]]
    known_flows = sorted(_FLOWS)

    extra = rng.randrange(1, 5)
    for _ in range(extra):
        if event_ids and rng.random() < 0.7:
            component = {"kind": "activity_instance", "id": rng.choice(event_ids)}
        elif activities:
            component = {"kind": "activity_type", "id": rng.choice(activities)}
        else:
            component = {"kind": "process"}
        flow = rng.choice(known_flows)
        unit, direction, _ = _FLOWS[flow]
        entry = {
            "component": component,
            "flow": flow,
            "direction": direction,
            "amount": _amount(rng),
            "unit": unit,
        }
        scope = rng.choice(_SCOPES)
        if scope is not None:
            entry["scope"] = scope
        doc["assignments"].append(entry)

    if rng.random() < 0.5 and "solvent" not in {f["flow"] for f in doc["characterization"]["factors"]}:
        doc["characterization"]["categories"]["smog_formation"] = {
            "impact_unit": "kg NOx-e",
            "class": "environmental",
        }
        doc["characterization"]["factors"].append(
            {"flow": "solvent", "unit": "kg", "direction": "output",
             "factors": {"smog_formation": 2.5}}
        )
        if event_ids:
            doc["assignments"].append({
                "component": {"kind": "activity_instance", "id": rng.choice(event_ids)},
                "flow": "solvent",
                "direction": "output",
                "amount": _amount(rng, 0.1, 5.0),
                "unit": "kg",
                "scope": rng.choice(("scope1", "scope3")),
            })

    ruled = {r["source"]["id"] for r in doc["allocations"]}
    events_by_object: dict[str, set[str]] = {}
    for e in log["events"]:
        for rel in e.get("relationships", []):
            events_by_object.setdefault(rel["objectId"], set()).add(e["id"])
    candidates = sorted(oid for oid, evs in events_by_object.items() if evs and oid not in ruled)
    if candidates and rng.random() < 0.6:
        target_obj = rng.choice(candidates)
        flow = rng.choice(known_flows)
        unit, direction, _ = _FLOWS[flow]
        doc["assignments"].append({
            "component": {"kind": "object_instance", "id": target_obj},
            "flow": flow,
            "direction": direction,
            "amount": _amount(rng),
            "unit": unit,
        })
        doc["allocations"].append({
            "source": {"kind": "object_instance", "id": target_obj},
            "targets": "related_events",
            "key": "equal",
            "fraction": "1",
        })

    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def signed(bundle_doc: dict, seed: int) -> dict:
    """A copy of a bundle document with a seeded 40% of its assignment
    amounts negated, each digit for digit."""
    doc = copy.deepcopy(bundle_doc)
    assignments = doc.get("assignments", [])
    for a in random.Random(seed).sample(assignments, round(0.4 * len(assignments))):
        a["amount"] = str(-Decimal(str(a["amount"])))
    return doc
