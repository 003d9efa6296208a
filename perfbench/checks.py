"""Output checks for one ``assess`` call; each problem found fails the call.

* Report process totals per (category, scope) equal the expected totals
  (generator ground truth, or the wide-factors oracle) within the
  documented 1e-9 relative tolerance.
* The allocation ledger conserves each rule source's pre-allocation
  total: what the ledger moves plus the residual equals what the source
  held, summed directly from the input bundle.
* :func:`artifact_digest` fingerprints all six artifacts, so the caller
  can require identical bytes across the passes of a run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from inputs import Case, Totals, component_vectors

REL_TOL = 1e-9

#: Artifacts every ``assess`` call writes; listed here rather than imported
#: from susmine so that a renamed or dropped artifact fails the check.
ARTIFACTS = (
    "report.json",
    "inventory.csv",
    "impacts.csv",
    "impacts_scoped.csv",
    "ledger.csv",
    "dfg.dot",
)


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-30)


def artifact_digest(out_dir: Path) -> tuple[str | None, dict[str, int]]:
    """SHA-256 over all six artifacts in a fixed order, and each one's size;
    the digest is None when an artifact is missing."""
    digest = hashlib.sha256()
    sizes: dict[str, int] = {}
    for name in ARTIFACTS:
        try:
            data = (out_dir / name).read_bytes()
        except FileNotFoundError:
            return None, sizes
        digest.update(name.encode() + b"\0" + data)
        sizes[name] = len(data)
    return digest.hexdigest(), sizes


def _compare(what: str, got: Totals, want: Totals) -> list[str]:
    if set(got) != set(want):
        return [f"{what}: keys differ, missing {sorted(set(want) - set(got))[:3]}, "
                f"unexpected {sorted(set(got) - set(want))[:3]}"]
    return [f"{what} {key}: {got[key]!r} != expected {want[key]!r}"
            for key in sorted(want) if not rel_close(got[key], want[key])]


def check_report(report: dict, case: Case) -> list[str]:
    """Problems found in one call's report; empty when it is correct."""
    process: Totals = {}
    for category, info in report["impacts"]["process_totals"].items():
        for scope, q in info["by_scope"].items():
            process[(category, scope)] = q["amount"]
    problems = _compare("process total", process, case.expected_totals)

    allocation = report["allocation"]
    moved: dict[tuple[str, str | None], Totals] = {}

    def add(component: dict, category: str, scope: str, amount: float) -> None:
        vector = moved.setdefault((component["kind"], component.get("id")), {})
        vector[(category, scope)] = vector.get((category, scope), 0.0) + amount

    for e in allocation["entries"]:
        add(e["source"], e["category"], e["scope"], e["amount"])
    for r in allocation["residuals"]:
        for category, scopes in r["impacts"].items():
            for scope, q in scopes.items():
                add(r["component"], category, scope, q["amount"])

    annotation_doc = json.loads(case.annotations_json)
    held = component_vectors(annotation_doc)
    for rule in annotation_doc.get("allocations", []):
        source = (rule["source"]["kind"], rule["source"].get("id"))
        problems += _compare(f"ledger for {source[0]}:{source[1]}",
                             moved.get(source, {}), held.get(source, {}))
    return problems
