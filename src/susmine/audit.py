"""Analysis-pattern coverage audit.

Scores what a (log, annotation) bundle actually exercises across the
four analysis patterns — flow inventory (AP1), impact characterization
per class (AP2), impact scoping per class (AP3) and allocation (AP4) —
on the scale full / half / none. ``half`` is reachable only for the AP3
columns: scoping that is present but limited to a single scope bucket.

The same matrix shape doubles as a literature reference: a shipped
fixture records the published capabilities of six sustainable process
modelling approaches, cell for cell. Note the audit scores a concrete
data bundle while the literature matrix scores an approach's concepts;
the shared scale is what makes them comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .errors import SchemaError, load_json, record
from .fixtures import fixture_path
from .model import UNSCOPED, ComponentRef
from .annotations import AnnotatedLog, ImpactClass
from .allocation import AllocationLedger
from .scoping import ScopedVector


class SupportLevel(str, Enum):
    FULL = "full"
    HALF = "half"
    NONE = "none"


AUDIT_COLUMNS = (
    "AP1",
    "AP2-Climate",
    "AP2-Env",
    "AP2-Social",
    "AP3-Climate",
    "AP3-Env",
    "AP3-Social",
    "AP4",
)

_CLASS_SUFFIX = {
    ImpactClass.CLIMATE: "Climate",
    ImpactClass.ENVIRONMENTAL: "Env",
    ImpactClass.SOCIAL: "Social",
}

MATRIX_SCHEMA_ID = "susmine-matrix/1"
_MATRIX_FIELDS = {"schema": str, "columns": list, "rows": list}
_ROW_FIELDS = {"approach": str, "cells": dict}


@dataclass
class CapabilityMatrix:
    rows: list[tuple[str, dict[str, SupportLevel]]]

    def to_json(self) -> str:
        return json.dumps({
            "schema": MATRIX_SCHEMA_ID,
            "columns": list(AUDIT_COLUMNS),
            "rows": [
                {"approach": name, "cells": {col: cells[col].value for col in AUDIT_COLUMNS}}
                for name, cells in self.rows
            ],
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CapabilityMatrix":
        data = record(load_json(text), "capability matrix", _MATRIX_FIELDS, entries=None, schema=MATRIX_SCHEMA_ID)
        rows: list[tuple[str, dict[str, SupportLevel]]] = []
        for raw in data.get("rows", []):
            record(raw, "capability matrix", _ROW_FIELDS, ("approach", "cells"), "rows")
            name, cells_raw = raw["approach"], raw["cells"]
            if set(cells_raw) != set(AUDIT_COLUMNS):
                raise SchemaError(f"row '{name}': cells must cover exactly {list(AUDIT_COLUMNS)}")
            try:
                cells = {col: SupportLevel(cells_raw[col]) for col in AUDIT_COLUMNS}
            except ValueError as exc:
                raise SchemaError(f"row '{name}': {exc}") from None
            rows.append((name, cells))
        return cls(rows)

    def render_text(self) -> str:
        name_width = max([len("Approach")] + [len(name) for name, _ in self.rows])
        header = ["Approach".ljust(name_width)] + [col.ljust(11) for col in AUDIT_COLUMNS]
        lines = ["  ".join(header).rstrip()]
        for name, cells in self.rows:
            row = [name.ljust(name_width)] + [cells[col].value.ljust(11) for col in AUDIT_COLUMNS]
            lines.append("  ".join(row).rstrip())
        return "\n".join(lines) + "\n"


def pattern_audit(
    al: AnnotatedLog,
    vectors: dict[ComponentRef, ScopedVector],
    ledger: AllocationLedger,
) -> dict[str, SupportLevel]:
    """Score one bundle.

    AP1 is full when at least one flow assignment bound; AP2-<class> when
    at least one impact of that class was characterized; AP3-<class> is
    full with two or more distinct (non-``unscoped``) scope buckets of
    that class, half with exactly one; AP4 is full when the allocation
    ledger records at least one transfer.
    """
    cells = {col: SupportLevel.NONE for col in AUDIT_COLUMNS}
    if al.resolved:
        cells["AP1"] = SupportLevel.FULL

    scopes_by_class: dict[ImpactClass, set[str]] = {cls: set() for cls in ImpactClass}
    seen_class: set[ImpactClass] = set()
    for sv in vectors.values():
        for (category, scope) in sv:
            impact_class = al.table.categories[category].impact_class
            seen_class.add(impact_class)
            if scope != UNSCOPED:
                scopes_by_class[impact_class].add(scope)

    for impact_class, suffix in _CLASS_SUFFIX.items():
        if impact_class in seen_class:
            cells[f"AP2-{suffix}"] = SupportLevel.FULL
        scope_count = len(scopes_by_class[impact_class])
        if scope_count >= 2:
            cells[f"AP3-{suffix}"] = SupportLevel.FULL
        elif scope_count == 1:
            cells[f"AP3-{suffix}"] = SupportLevel.HALF

    if ledger.entries:
        cells["AP4"] = SupportLevel.FULL
    return cells


def load_literature_matrix() -> CapabilityMatrix:
    """Load the published-approaches reference matrix shipped with the package."""
    return CapabilityMatrix.from_json(fixture_path("literature/approaches.json").read_text("utf-8"))
