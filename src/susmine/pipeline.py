"""End-to-end analysis pipeline: inventory -> impacts -> scopes -> allocation.

``run_pipeline`` is the one place the stage order lives, each in a :func:`stage`
block; everything the reporting layer needs is collected into a :class:`PipelineResult`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal

from .errors import NonFiniteImpactError, abbreviate
from .model import ComponentKind, ComponentRef, EventLog
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


def run_pipeline(
    log: EventLog,
    bundle: AnnotationBundle,
    mode: Mode = Mode.STRICT,
    fu: FunctionalUnit | None = None,
) -> PipelineResult:
    with stage("bind"):
        al = bind_annotations(log, bundle)
    with stage("inventory"):
        inventory = direct_inventory(al)
    with stage("characterization"):
        scoped, uncharacterized = scoped_impacts(al, mode)
    with stage("allocation"):
        post, ledger = apply_allocations(al, scoped, mode)
        totals = scoped_total(post)
    with stage("audit"):
        audit_row = pattern_audit(al, scoped, ledger)
    with stage("dfg"):
        dfg = build_dfg(log)
        annotate_dfg(dfg, activity_type_totals(al, post), log.digest())

    result = PipelineResult(
        al=al,
        mode=Mode(mode),
        inventory=inventory,
        scoped=scoped,
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
