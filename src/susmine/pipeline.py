"""End-to-end analysis pipeline: inventory -> impacts -> scopes -> allocation.

``run_pipeline`` is the one place the stage order lives, each in a :func:`stage`
block; everything the reporting layer needs is collected into a :class:`PipelineResult`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal

from .errors import NonFiniteImpactError, abbreviate
from .model import ComponentKind, ComponentRef, EventLog, Quantity
from .annotations import AnnotatedLog, AnnotationBundle, bind_annotations
from .allocation import AllocationLedger, apply_allocations
from .audit import SupportLevel, pattern_audit
from .dfg import AnnotatedDFG, annotate_dfg, build_dfg
from .impact import Mode, UncharacterizedFlow, vector_add
from .inventory import FunctionalUnit, Inventory, direct_inventory, functional_unit_scale, rollup_inventory
from .scoping import ScopedVector, scoped_impacts, scoped_total


@dataclass
class PipelineResult:
    """Every stage's output. ``post_allocation`` is in component order,
    each vector's cells in (category, scope) order: the order the impact
    projections write, without sorting. ``totals`` is its sum taken in
    allocation order, which fixes the float summation order and so the
    reported figures."""

    al: AnnotatedLog
    mode: Mode
    inventory: Inventory
    scoped: dict[ComponentRef, ScopedVector]
    post_allocation: dict[ComponentRef, ScopedVector]
    totals: ScopedVector
    ledger: AllocationLedger
    uncharacterized: list[UncharacterizedFlow]
    audit_row: dict[str, SupportLevel]
    dfg: AnnotatedDFG
    fu: FunctionalUnit | None = None
    fu_scale: Decimal | None = None
    fu_output: Decimal | None = None
    fu_inventory: Inventory | None = None


@contextmanager
def stage(name: str):
    """Set ``stage = name`` on an exception leaving the block, which is
    re-raised unchanged. Stages do not nest."""
    try:
        yield
    except Exception as exc:
        exc.stage = name
        raise


def activity_type_totals(
    al: AnnotatedLog, vectors: dict[ComponentRef, ScopedVector]
) -> dict[str, ScopedVector]:
    """Roll component vectors up to activity types: instance vectors sum
    into their type plus anything held by the type itself. Other kinds
    (objects, process) are excluded — they are the non-activity residual.
    Raises :class:`NonFiniteImpactError` naming the activity type whose
    sum is not a finite float."""
    totals: dict[str, ScopedVector] = {}
    for ref, sv in vectors.items():
        type_ref = al.log.lift(ref, ComponentKind.ACTIVITY_TYPE)
        if type_ref is not None:
            bucket = totals.setdefault(type_ref.id, {})
            try:
                for key, (amount, unit) in sv.items():
                    vector_add(bucket, key, amount, unit)
            except NonFiniteImpactError as exc:
                raise NonFiniteImpactError(f"{abbreviate(type_ref)}: {exc}") from None
    return totals


def roll_up(
    log: EventLog, post: dict[ComponentRef, ScopedVector]
) -> tuple[ScopedVector, dict[str, ScopedVector] | None]:
    """The process total and the activity-type totals of the
    post-allocation vectors, in one walk over their cells in allocation
    order.

    A sum starts from its first addend, which keeps a ``-0.0``, and then
    adds each amount as :func:`vector_add` does, so every total adds the
    same floats in the same order as :func:`scoped_total` and
    :func:`activity_type_totals`. Cells are added in each vector's own
    order, so the totals' cells come in those functions' order too, which
    :func:`~susmine.scoping.unscoped_share` sums in; a sum takes its
    first addend's unit, the category's. The addends are finite, so a partial
    sum that overflows stays infinite and one check of each finished sum
    finds it: a process total that is not finite raises what
    :func:`scoped_total` raises. The type totals are None when one is not
    finite; :func:`activity_type_totals` then names it, in the stage that
    reads them."""
    total: dict = {}
    units: dict = {}
    by_type: dict[str, dict] = {}
    for ref, sv in post.items():
        type_ref = log.lift(ref, ComponentKind.ACTIVITY_TYPE)
        type_total = None if type_ref is None else by_type.setdefault(type_ref.id, {})
        for key, (amount, unit) in sv.items():
            prev = total.get(key)
            if prev is None:
                total[key] = amount
                units[key] = unit
            else:
                total[key] = prev + amount
            if type_total is not None:
                prev = type_total.get(key)
                type_total[key] = amount if prev is None else prev + amount
    if not all(map(math.isfinite, total.values())):
        scoped_total(post)

    def cells(sums: dict) -> ScopedVector:
        return {key: tuple.__new__(Quantity, (amount, units[key])) for key, amount in sums.items()}

    type_totals = None
    if all(math.isfinite(amount) for sums in by_type.values() for amount in sums.values()):
        type_totals = {type_id: cells(sums) for type_id, sums in by_type.items()}
    return cells(total), type_totals


def run_pipeline(
    log: EventLog,
    bundle: AnnotationBundle,
    mode: Mode = Mode.STRICT,
    fu: FunctionalUnit | None = None,
) -> PipelineResult:
    """Run every stage on ``log`` and ``bundle``, in order, each in its
    :func:`stage` block. The ``allocation`` stage sums the post-allocation
    vectors up in one walk (:func:`roll_up`): a process total that
    overflows fails there, and an activity-type total that overflows
    fails in ``dfg``, which reads the type totals. The vectors are sorted
    for ``post_allocation`` after ``dfg``, once the log digest's text is
    gone. The cyclic collector is left as the caller set it."""
    with stage("bind"):
        al = bind_annotations(log, bundle)
    with stage("inventory"):
        inventory = direct_inventory(al)
    with stage("characterization"):
        scoped, uncharacterized = scoped_impacts(al, mode)
    with stage("allocation"):
        post, ledger = apply_allocations(al, scoped, mode)
        totals, type_totals = roll_up(log, post)
    with stage("audit"):
        audit_row = pattern_audit(al, scoped, ledger)
    with stage("dfg"):
        dfg = build_dfg(log)
        annotate_dfg(dfg, activity_type_totals(al, post) if type_totals is None else type_totals, log.digest())

    result = PipelineResult(
        al=al,
        mode=Mode(mode),
        inventory=inventory,
        scoped=scoped,
        # sorted in the allocation stage, the copies would be alive with
        # the digest's text and raise the peak memory (4 MB at 16k events)
        post_allocation={ref: dict(sorted(sv.items())) for ref, sv in sorted(post.items())},
        totals=totals,
        ledger=ledger,
        uncharacterized=uncharacterized,
        audit_row=audit_row,
        dfg=dfg,
    )
    if fu is not None:
        with stage("functional-unit"):
            result.fu = fu
            result.fu_output, result.fu_scale = functional_unit_scale(al, fu)
            result.fu_inventory = rollup_inventory(al, ComponentKind.PROCESS).scaled(result.fu_scale)
    return result
