"""Impact allocation: redistributing one component's impacts to others.

A rule names a source (typically a shared resource object), a target
selection (the events related to it, or an explicit list), a key (equal,
or proportional to a target attribute such as ``mass_kg`` or
``economic_value``) and a fraction of the source's impact to move.

All transfers are computed against a snapshot of the incoming impact map
and applied at once, so rules cannot chain within a pass and their order
never matters. Every transfer is written to a ledger; global totals per
(category, scope) are invariant, and the (category, scope) pair travels
unchanged from source to target.

Degenerate proportional keys (all target values zero) fall back to an
equal split with a recorded warning — allocation choices must stay
visible, not silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidAllocationKeyError, MissingAttributeError, NoTargetsError, abbreviate
from .model import ComponentKind, ComponentRef, Quantity, resolve_component
from .annotations import RELATED_EVENTS, AllocationRule, AnnotatedLog
from .impact import Mode, vector_add
from .scoping import ScopedVector


@dataclass(frozen=True, order=True)
class LedgerEntry:
    """One transfer; entries order by source, target, category, scope."""

    source: ComponentRef
    target: ComponentRef
    category: str
    scope: str
    amount: float
    weight: float


@dataclass
class AllocationLedger:
    """Record of every transfer plus per-source residual vectors."""

    entries: list[LedgerEntry] = field(default_factory=list)
    residuals: dict[ComponentRef, ScopedVector] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def _select_targets(rule: AllocationRule, al: AnnotatedLog) -> list[ComponentRef]:
    if rule.targets == RELATED_EVENTS:
        return sorted({e.ref for e in al.log.events_related_to(rule.source.id, rule.qualifier)})
    return sorted(set(rule.targets))


def _attribute_value(ref: ComponentRef, al: AnnotatedLog, attribute: str):
    if ref.kind not in (ComponentKind.ACTIVITY_INSTANCE, ComponentKind.OBJECT_INSTANCE):
        return None  # type-level components carry no attributes
    return resolve_component(ref, al.log).attributes.get(attribute)


def allocation_weights(
    rule: AllocationRule, al: AnnotatedLog, mode: Mode = Mode.STRICT
) -> tuple[dict[ComponentRef, float], list[str]]:
    """Weights plus any fallback warnings for one rule.

    Weights, keyed in target order, are non-negative and sum to 1.
    Proportional keys read the named attribute off each target; a missing
    attribute is an error in strict mode and a zero weight (with a
    warning) in lenient mode. The rule's references are trusted as
    :func:`bind_annotations` resolved them.
    """
    targets = _select_targets(rule, al)
    if not targets:
        raise NoTargetsError(f"rule on {abbreviate(rule.source)} selected no targets")
    warnings: list[str] = []

    if not rule.key.proportional:
        weight = 1.0 / len(targets)
        return {ref: weight for ref in targets}, warnings

    attribute = rule.key.attribute
    values: list[float] = []
    for ref in targets:
        raw = _attribute_value(ref, al, attribute)
        if raw is None or isinstance(raw, (str, bool)):
            if Mode(mode) is Mode.STRICT:
                raise MissingAttributeError(
                    f"target {abbreviate(ref)} lacks numeric attribute '{abbreviate(attribute)}'"
                    f" required by key '{abbreviate(rule.key.label)}'"
                )
            warnings.append(f"{rule.source}: target {ref} lacks '{attribute}', weighted 0")
            values.append(0.0)
            continue
        value = float(raw)
        if value < 0:
            raise InvalidAllocationKeyError(
                f"target {abbreviate(ref)}: attribute '{abbreviate(attribute)}' is negative ({value});"
                " weights must be >= 0"
            )
        values.append(value)

    total = sum(values)
    if not math.isfinite(total):
        raise InvalidAllocationKeyError(
            f"{abbreviate(rule.source)}: '{abbreviate(attribute)}' values sum beyond float range ({total})"
        )
    if total == 0:
        warnings.append(
            f"{rule.source}: all '{attribute}' values zero, falling back to equal split"
        )
        weight = 1.0 / len(targets)
        return {ref: weight for ref in targets}, warnings
    return {ref: v / total for ref, v in zip(targets, values)}, warnings


def apply_allocations(
    al: AnnotatedLog,
    impacts: dict[ComponentRef, ScopedVector],
    mode: Mode = Mode.STRICT,
) -> tuple[dict[ComponentRef, ScopedVector], AllocationLedger]:
    """Apply every rule of ``al.rules`` against a snapshot of ``impacts``.

    Each source's fraction-scaled vector is split by the rule's weights
    and added to the targets; the source keeps (1 - fraction) of it.
    Returns the reallocated map and the ledger, both deterministically
    ordered. No two rules share a source: :class:`AnnotationBundle`
    rejects a rule set where they do.
    """
    result: dict[ComponentRef, ScopedVector] = {ref: dict(sv) for ref, sv in impacts.items()}
    ledger = AllocationLedger()

    for rule in sorted(al.rules, key=lambda r: r.source):
        weights, warnings = allocation_weights(rule, al, mode)
        ledger.warnings.extend(warnings)
        fraction = float(rule.fraction)
        source_vector = impacts.get(rule.source, {})
        if fraction == 0.0 or not source_vector:
            continue
        residual: ScopedVector = {}
        out_vector = result.setdefault(rule.source, {})
        moves = []
        for cell, (amount, unit) in sorted(source_vector.items()):
            moved = amount * fraction
            vector_add(out_vector, cell, -moved, unit)
            if fraction < 1.0:
                residual[cell] = Quantity(amount - moved, unit)
            moves.append((cell, moved, unit))
        if residual:
            ledger.residuals[rule.source] = residual
        # rules in source order, targets in order, cells in order: the
        # entries come out in ledger order
        for target, weight in weights.items():
            target_vector = result.setdefault(target, {})
            for (category, scope), moved, unit in moves:
                share = moved * weight
                vector_add(target_vector, (category, scope), share, unit)
                ledger.entries.append(LedgerEntry(rule.source, target, category, scope, share, weight))

    ledger.warnings.sort()
    return result, ledger
