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
    out: ImpactVector = {}
    for (category, _), (amount, unit) in sorted(sv.items()):
        vector_add(out, category, amount, unit)
    return out


def scoped_total(vectors: dict[ComponentRef, ScopedVector]) -> ScopedVector:
    """Entrywise sum over all components: the process total. Raises
    :class:`NonFiniteImpactError` naming the process when a sum is not a
    finite float."""
    total: ScopedVector = {}
    try:
        for sv in vectors.values():
            for key, (amount, unit) in sv.items():
                vector_add(total, key, amount, unit)
    except NonFiniteImpactError as exc:
        raise NonFiniteImpactError(f"process: {exc}") from None
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
    set; the ``unscoped`` bucket never participates. Raises
    :class:`NonFiniteImpactError` when a running total is not a finite float.
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
        # seeded with 0.0, so a running total of -0.0 buckets reads 0.0
        running = {category: Quantity(0.0, unit)}
        for label in order:
            bucket = sv.get((category, label))
            if bucket is not None:
                vector_add(running, category, bucket.amount, unit)
            out[(category, label)] = running[category]
    return out


def unscoped_share(total: ScopedVector) -> dict[str, float]:
    """Fraction of each category's total that carries no scope tag, both
    summed from 0.0 in cell order. Raises :class:`NonFiniteImpactError`
    when a sum or a share is not a finite float, as a share of a total
    that mixed signs cancel to near zero can be."""
    sums: ImpactVector = {category: Quantity(0.0, q.unit) for (category, _), q in total.items()}
    unscoped: ImpactVector = dict(sums)
    for (category, scope), (amount, unit) in total.items():
        vector_add(sums, category, amount, unit)
        if scope == UNSCOPED:
            vector_add(unscoped, category, amount, unit)
    shares: dict[str, float] = {}
    for category in sorted(sums):
        part, whole = unscoped[category].amount, sums[category].amount
        shares[category] = share = part / whole if whole != 0 else 0.0
        if not math.isfinite(share):
            raise NonFiniteImpactError(
                f"unscoped share of category '{category}' is not finite ({part} / {whole})"
            )
    return shares
