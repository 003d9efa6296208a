"""Characterization: turning flow inventories into impact assessments.

Each inventory entry is matched against the factor table by flow, entry
direction filter, and unit (directly or through a declared conversion),
then multiplied into every impact category the entry declares. This is
the boundary where exact decimals end: factors are measured values, so
impact amounts are binary floats.

Strict mode fails on the first flow with no table entry; lenient mode
computes what it can and reports the gaps, because a silently partial
assessment is worse than a visibly partial one.
"""

from __future__ import annotations

import math
from decimal import Decimal
from enum import Enum

from .errors import NonFiniteImpactError, NoConversionPathError, UnknownUnitError
from .errors import UncharacterizedFlowError, UnitMismatchError, abbreviate
from .model import ComponentRef, Direction, Quantity
from .annotations import CharacterizationTable, ImpactClass, TableEntry
from .inventory import Inventory
from .units import UnitRegistry


class Mode(str, Enum):
    STRICT = "strict"
    LENIENT = "lenient"


#: category -> Quantity in the category's impact unit (float amounts).
ImpactVector = dict[str, Quantity]

#: (impact category, scope label) -> Quantity (float amounts).
ScopedVector = dict[tuple[str, str], Quantity]


#: A flow left uncharacterized: (flow, unit, direction).
UncharacterizedFlow = tuple[str, str, str]


def _find_entry(
    table: CharacterizationTable,
    flow: str,
    unit: str,
    direction: Direction,
    registry: UnitRegistry,
) -> tuple[TableEntry | None, Decimal | None, bool]:
    """Locate the applicable entry; returns (entry, conversion, flow_known).

    ``conversion`` is the factor onto the entry's unit (None when they
    match). ``flow_known`` distinguishes "no entry for this flow+direction
    at all" from "entries exist but no unit conversion path reaches them".
    """
    candidates = [e for e in table.entries_for_flow(flow) if e.matches_direction(direction)]
    if not candidates:
        return None, None, False
    for entry in candidates:
        if entry.unit == unit:
            return entry, None, True
    for entry in candidates:  # entries_for_flow is sorted, so this is deterministic
        try:
            return entry, registry.factor(unit, entry.unit), True
        except (NoConversionPathError, UnknownUnitError):
            continue
    return None, None, True


def vector_add(vec: dict, key, amount: float, unit: str) -> None:
    """Add ``amount`` into ``vec[key]``; the one accumulator behind every
    impact vector, plain (category keys) or scoped ((category, scope) keys).
    Raises :class:`NonFiniteImpactError` when the amount or the sum is not
    a finite float; the cell is then built without a second check."""
    prev = vec.get(key)
    total = amount if prev is None else prev[0] + amount
    if not math.isfinite(total):
        raise NonFiniteImpactError(f"impact {key} is not finite ({total})")
    vec[key] = tuple.__new__(Quantity, (total, unit))


def characterize(
    inv: Inventory,
    table: CharacterizationTable,
    mode: Mode = Mode.STRICT,
    registry: UnitRegistry | None = None,
) -> tuple[dict[ComponentRef, ScopedVector], list[UncharacterizedFlow]]:
    """Characterize an inventory into per-component scoped vectors, cells
    keyed (category, scope), walking the entries in stored order.

    Returns the vectors plus the sorted list of flows that matched no
    factor entry (or no category). Strict mode raises
    :class:`UncharacterizedFlowError` / :class:`UnitMismatchError`
    instead of skipping.
    """
    registry = registry or UnitRegistry()
    mode = Mode(mode)
    vectors: dict[ComponentRef, ScopedVector] = {}
    uncharacterized: set[UncharacterizedFlow] = set()

    for key, q in inv.entries.items():
        entry, conversion, flow_known = _find_entry(table, key.flow, q.unit, key.direction, registry)
        if entry is None:
            if mode is Mode.STRICT:
                if flow_known:
                    raise UnitMismatchError(
                        f"no conversion path from '{abbreviate(q.unit)}' to any table unit"
                        f" for flow '{abbreviate(key.flow)}'"
                    )
                raise UncharacterizedFlowError(key.flow, q.unit, key.direction.value)
            uncharacterized.add((key.flow, q.unit, key.direction.value))
            continue
        if not entry.factors:
            # an entry that characterizes into no category still leaves the
            # flow unassessed; report it, in either mode
            uncharacterized.add((key.flow, q.unit, key.direction.value))
            continue
        base = float(q.amount if conversion is None else q.amount * conversion)
        vec = vectors.setdefault(key.component, {})
        for category, factor in sorted(entry.factors.items()):
            try:
                vector_add(vec, (category, key.scope), base * factor, table.categories[category].impact_unit)
            except NonFiniteImpactError:
                raise NonFiniteImpactError(
                    f"{abbreviate(key.component)}: flow '{abbreviate(key.flow)}' in category '{abbreviate(category)}' "
                    f"overflows a float ({abbreviate(q.amount)} {abbreviate(q.unit)} x factor {factor})"
                ) from None

    return vectors, sorted(uncharacterized)


def classify_impacts(vec: ImpactVector, table: CharacterizationTable) -> dict[ImpactClass, ImpactVector]:
    """Partition a vector into climate / environmental / social classes."""
    out: dict[ImpactClass, ImpactVector] = {cls: {} for cls in ImpactClass}
    for category, q in vec.items():
        out[table.categories[category].impact_class][category] = q
    return out

