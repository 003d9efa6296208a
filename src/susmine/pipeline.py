"""End-to-end analysis pipeline: inventory -> impacts -> scopes -> allocation.

``run_pipeline`` is the one place the stage order lives, each in a :func:`stage`
block; everything the reporting layer needs is collected into a :class:`PipelineResult`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal

from .model import ComponentKind, ComponentRef, EventLog
from .annotations import AnnotatedLog, AnnotationBundle, bind_annotations
from .allocation import AllocationLedger, apply_allocations
from .audit import SupportLevel, pattern_audit
from .dfg import AnnotatedDFG, annotate_dfg, build_dfg
from .impact import Mode, UncharacterizedFlow
from .inventory import FunctionalUnit, Inventory, direct_inventory, functional_unit_scale, rollup_inventory
from .scoping import ScopedVector, activity_type_totals, scoped_impacts, scoped_total


@dataclass
class PipelineResult:
    """Every stage's output. ``post_allocation`` is in component order,
    each vector's cells in (category, scope) order: the order the impact
    projections write, without sorting. ``totals`` is :func:`scoped_total`
    of the vectors in allocation order, which fixes the float summation
    order and so the reported figures."""

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


def run_pipeline(
    log: EventLog,
    bundle: AnnotationBundle,
    mode: Mode = Mode.STRICT,
    fu: FunctionalUnit | None = None,
) -> PipelineResult:
    """Run every stage on ``log`` and ``bundle``, in order, each in its
    :func:`stage` block. Each stage sums and raises its own total: the
    ``allocation`` stage the process total (:func:`scoped_total`), ``dfg``
    the activity-type totals (:func:`activity_type_totals`). The vectors
    are sorted for ``post_allocation`` after ``dfg``, once the log
    digest's text is gone. The cyclic collector is left as the caller
    set it."""
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
