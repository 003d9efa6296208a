"""Scoped impact views: disjoint buckets plus derived cumulative readings.

Scope labels partition assignments into disjoint buckets (the GHG
Protocol scopes are disjoint by definition), so no flow is ever counted
in two scopes and the bucket sum always equals the unpartitioned total.
Cumulative boundary readings — gate-to-gate within cradle-to-gate — are
derived on demand and never stored.

Assignments without a scope tag land in the reserved ``unscoped`` bucket,
which reports surface explicitly so partially scoped data stays visible.
"""

from __future__ import annotations

import math

from .errors import NonFiniteImpactError, UnknownScopeError
from .model import UNSCOPED, ComponentRef, Quantity
from .annotations import AnnotatedLog, ScopeSet
from .impact import ImpactVector, Mode, ScopedVector, UncharacterizedFlow, characterize, vector_add
from .inventory import Inventory, direct_inventory


def scoped_impacts(
    al: AnnotatedLog, mode: Mode = Mode.STRICT
) -> tuple[dict[ComponentRef, ScopedVector], list[UncharacterizedFlow]]:
    """Characterize the direct inventory into scoped vectors in one pass.

    Buckets are disjoint by construction: every inventory entry carries
    exactly one scope label, so each (category, scope) cell sums one
    bucket's entries and totals are conserved.
    """
    rank = {scope: i for i, scope in enumerate([*al.scope_set.scopes, UNSCOPED])}
    # Walk the key-ordered inventory stably re-sorted by scope-set rank,
    # as if bucket by bucket: that fixes the order components and cells
    # enter the vectors, hence the float summation order in scoped_total,
    # and with it the report bytes.
    entries = sorted(direct_inventory(al).entries.items(), key=lambda item: rank[item[0].scope])
    return characterize(Inventory(dict(entries)), al.table, mode, al.registry)


def collapse_scopes(sv: ScopedVector) -> ImpactVector:
    """Sum a scoped vector over its scope labels, in (category, scope)
    order; the result is in category order. Raises
    :class:`NonFiniteImpactError` when a sum is not a finite float."""
    sums: dict[str, tuple[float, str]] = {}
    for (category, _), q in sorted(sv.items()):
        prev = sums.get(category)
        # the first amount is taken as is: 0.0 + -0.0 would lose its sign
        sums[category] = (q.amount if prev is None else prev[0] + q.amount, q.unit)
    out: ImpactVector = {}
    for category, (total, unit) in sums.items():
        if not math.isfinite(total):
            raise NonFiniteImpactError(f"impact {category} is not finite ({total})")
        out[category] = Quantity(total, unit)
    return out


def scoped_total(vectors: dict[ComponentRef, ScopedVector]) -> ScopedVector:
    """Entrywise sum over all components."""
    total: ScopedVector = {}
    for sv in vectors.values():
        for key, q in sv.items():
            vector_add(total, key, q.amount, q.unit)
    return total


def cumulative_view(
    sv: ScopedVector,
    order: list[str] | tuple[str, ...],
    scope_set: ScopeSet,
) -> dict[tuple[str, str], Quantity]:
    """Running totals along an ordered scope list.

    The result maps (category, label) to the sum of all buckets up to and
    including that label, e.g. a cradle-to-gate reading on top of
    gate-to-gate buckets. ``order`` must be a permutation of the scope
    set; the ``unscoped`` bucket never participates.
    """
    order = list(order)
    if len(set(order)) != len(order):
        raise ValueError("scope order contains duplicates")
    if UNSCOPED in order:
        raise UnknownScopeError(f"'{UNSCOPED}' cannot appear in a cumulative order")
    unknown = [s for s in order if s not in scope_set]
    if unknown:
        raise UnknownScopeError(f"scope(s) {unknown} not in scope set '{scope_set.name}'")
    if set(order) != set(scope_set.scopes):
        raise ValueError("scope order must be a permutation of the scope set")

    categories = sorted({category for (category, _) in sv})
    out: dict[tuple[str, str], Quantity] = {}
    for category in categories:
        unit = next(q.unit for (cat, _), q in sorted(sv.items()) if cat == category)
        running = 0.0
        for label in order:
            bucket = sv.get((category, label))
            if bucket is not None:
                running += bucket.amount
            out[(category, label)] = Quantity(running, unit)
    return out


def unscoped_share(total: ScopedVector) -> dict[str, float]:
    """Fraction of each category's total that carries no scope tag."""
    sums: dict[str, float] = {}
    unscoped: dict[str, float] = {}
    for (category, scope), q in total.items():
        sums[category] = sums.get(category, 0.0) + q.amount
        if scope == UNSCOPED:
            unscoped[category] = unscoped.get(category, 0.0) + q.amount
    return {
        category: (unscoped.get(category, 0.0) / sums[category]) if sums[category] != 0 else 0.0
        for category in sorted(sums)
    }
