"""Flow inventories: quantified inputs/outputs per process component.

An inventory maps (component, flow, direction, scope) to an exact decimal
quantity. Assignments without a scope tag aggregate under the reserved
``unscoped`` label. Aggregation is exact decimal addition: a sum keeps
every digit up to :data:`SUM_DIGITS` significant digits, and one that
would need more raises :class:`InexactSumError` rather than round, so
conservation checks hold exactly at this stage; unit conversions are
deliberately not applied here (they happen at characterization lookup),
and mixing units under one key is an error rather than a silent
normalization.

Roll-ups never cross component kinds: object flows are not folded into
activity flows — redistribution across kinds is allocation's job.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, InvalidOperation, Overflow, Rounded
from typing import Iterable, NamedTuple

from .errors import (
    InexactSumError,
    UnitMismatchError,
    UnknownComponentError,
    ZeroOutputError,
    abbreviate,
)
from .model import (
    UNSCOPED,
    ComponentKind,
    ComponentRef,
    Direction,
    Quantity,
)
from .annotations import AnnotatedLog, FlowAssignment


#: Significant digits an inventory sum may keep. The default context
#: would round a sum to 28; an unbounded one lets ``1E+300`` plus
#: ``0E-999999999`` ask for a billion-digit coefficient.
SUM_DIGITS = 1000

#: Adds two decimals exactly, or raises ``Rounded`` if the sum needs more
#: than :data:`SUM_DIGITS` digits, trailing zeros included.
_exact_add = Context(prec=SUM_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN,
                     traps=[InvalidOperation, Overflow, Rounded]).add


class InvKey(NamedTuple):
    component: ComponentRef
    flow: str
    direction: Direction
    scope: str


@dataclass
class Inventory:
    """Additive map of inventory entries with exact decimal amounts."""

    entries: dict[InvKey, Quantity] = field(default_factory=dict)

    def add(self, key: InvKey, quantity: Quantity) -> None:
        existing = self.entries.get(key)
        if existing is None:
            self.entries[key] = quantity
            return
        if existing.unit != quantity.unit:
            raise UnitMismatchError(
                f"flow '{abbreviate(key.flow)}' on {abbreviate(key.component)} mixes units "
                f"'{abbreviate(existing.unit)}' and '{abbreviate(quantity.unit)}'"
            )
        try:
            total = _exact_add(existing.amount, quantity.amount)
        except Rounded:
            raise InexactSumError(
                f"flow '{abbreviate(key.flow)}' on {abbreviate(key.component)} sums {abbreviate(existing.amount)} and "
                f"{abbreviate(quantity.amount)} beyond {SUM_DIGITS} significant digits"
            ) from None
        self.entries[key] = Quantity(total, existing.unit)

    def scaled(self, factor: Decimal) -> "Inventory":
        """Every amount times ``factor``, in the same entry order."""
        return Inventory({key: Quantity(q.amount * factor, q.unit) for key, q in self.entries.items()})

    def negative_entries(self) -> list[tuple[InvKey, Quantity]]:
        """Avoided-burden credits in stored order; surfaced, never netted silently."""
        return [(k, q) for k, q in self.entries.items() if q.amount < 0]


@dataclass(frozen=True)
class FunctionalUnit:
    """Reference output amount that analyses are normalized against.

    ``measured_attribute`` selects what counts as output quantity: None
    means "number of objects of the type"; otherwise the named numeric
    object attribute is summed (objects lacking it contribute zero).
    """

    object_type: str
    reference: Quantity
    measured_attribute: str | None = None

    def __post_init__(self):
        if not isinstance(self.reference.amount, Decimal) or self.reference.amount <= 0:
            raise ValueError("functional unit reference amount must be a positive decimal")


def _summed(pairs: Iterable[tuple[ComponentRef, FlowAssignment]]) -> Inventory:
    """Each assignment's quantity summed onto its paired component, in key order."""
    inv = Inventory()
    for component, a in pairs:
        scope = a.scope if a.scope is not None else UNSCOPED
        inv.add(InvKey(component, a.flow, a.direction, scope), a.quantity)
    return Inventory(dict(sorted(inv.entries.items())))


def direct_inventory(al: AnnotatedLog) -> Inventory:
    """Every resolved assignment summed onto exactly its own component, in key order."""
    return _summed(al.resolved)


_ROLLUP_LEVELS = {ComponentKind.ACTIVITY_TYPE, ComponentKind.OBJECT_TYPE, ComponentKind.PROCESS}


def rollup_inventory(al: AnnotatedLog, level: ComponentKind) -> Inventory:
    """Aggregate instance entries up to their types, or everything to the
    process.

    Type-level totals are instance sums plus the type's own absolute
    assignments; the process total is a flat sum over all resolved
    assignments (each counted once — type totals are derived here, never
    re-added). Entries are in key order.
    """
    if level not in _ROLLUP_LEVELS:
        raise ValueError(f"roll-up level must be one of {sorted(k.value for k in _ROLLUP_LEVELS)}")
    lifted = ((al.log.lift(ref, level), a) for ref, a in al.resolved)
    return _summed((component, a) for component, a in lifted if component is not None)


def functional_unit_scale(al: AnnotatedLog, fu: FunctionalUnit) -> tuple[Decimal, Decimal]:
    """The total measured output of the functional unit's object type, and
    the scale reference / output (28 significant digits) that
    :meth:`Inventory.scaled` takes to the functional unit. A scale whose
    float is 0 or subnormal would zero every per-unit impact or drop its
    digits, so it raises."""
    if fu.object_type not in al.log.object_types:
        raise UnknownComponentError(f"unknown object type '{abbreviate(fu.object_type)}'")
    objects = al.log.members(ComponentRef(ComponentKind.OBJECT_TYPE, fu.object_type))
    if fu.measured_attribute is None:
        total = Decimal(len(objects))
    else:
        total = Decimal(0)
        for obj in objects:
            value = obj.attributes.get(fu.measured_attribute)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float, Decimal)):
                raise UnitMismatchError(
                    f"object '{abbreviate(obj.object_id)}': attribute '{abbreviate(fu.measured_attribute)}'"
                    " is not numeric"
                )
            total += value if isinstance(value, Decimal) else Decimal(str(value))
    if total == 0:
        raise ZeroOutputError(
            f"log contains no measured output of object type '{abbreviate(fu.object_type)}'"
        )
    scale = fu.reference.amount / total
    if abs(float(scale)) < sys.float_info.min:
        raise ZeroOutputError(
            f"functional unit scale for object type '{abbreviate(fu.object_type)}' underflows a float: "
            f"{abbreviate(fu.reference.amount)} / {abbreviate(total)}"
        )
    return total, scale

