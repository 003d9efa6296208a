"""Closed unit registry with linear conversions.

There is no built-in physical unit system: the registry knows exactly the
identifiers it was given plus a small default set, and converts only along
user-declared linear factors. Silent SI assumptions are a classic source
of assessment errors, so anything undeclared is an error.

Factors are exact decimals; missing inverse directions are derived as
1/factor. Consistency is checked at construction: declared inverse pairs
must multiply to 1, and within each connected component every declared
edge must agree with the spanning-tree scaling, which rules out
contradictory multi-path conversions.
"""

from __future__ import annotations

from decimal import Decimal

from .errors import NoConversionPathError, SchemaError, UnknownUnitError
from .model import Quantity

#: Units every registry knows even without a bundle declaration.
DEFAULT_UNITS = ("kg", "g", "kWh", "Wh", "MJ", "count", "h")

DEFAULT_CONVERSIONS = {
    ("g", "kg"): Decimal("0.001"),
    ("Wh", "kWh"): Decimal("0.001"),
    ("kWh", "MJ"): Decimal("3.6"),
}


class UnitRegistry:
    def __init__(
        self,
        units: set[str] | None = None,
        conversions: dict[tuple[str, str], Decimal] | None = None,
    ):
        self.units: set[str] = {*DEFAULT_UNITS, *(units or ())}
        declared = {**DEFAULT_CONVERSIONS, **(conversions or {})}

        self.conversions: dict[tuple[str, str], Decimal] = {}
        for (src, dst), factor in declared.items():
            if src not in self.units or dst not in self.units:
                missing = src if src not in self.units else dst
                raise UnknownUnitError(f"conversion uses undeclared unit '{missing}'")
            if not isinstance(factor, Decimal):
                factor = Decimal(str(factor))
            if factor <= 0 or not factor.is_finite():
                raise SchemaError(f"conversion factor {src}->{dst} must be a positive finite number")
            self.conversions[(src, dst)] = factor
        # fill in inverses that were not declared explicitly
        for (src, dst), factor in list(self.conversions.items()):
            self.conversions.setdefault((dst, src), Decimal(1) / factor)
        self._check_consistency()

    def _neighbors(self, unit: str) -> list[tuple[str, Decimal]]:
        return [(dst, f) for (src, dst), f in self.conversions.items() if src == unit]

    def _check_consistency(self) -> None:
        # inverse pairs must cancel
        for (src, dst), factor in self.conversions.items():
            back = self.conversions[(dst, src)]
            if abs(float(factor * back) - 1.0) > 1e-12:
                raise SchemaError(f"conversions {src}->{dst} and {dst}->{src} are inconsistent")
        # spanning-tree scaling per connected component; every declared edge
        # must agree with it, which bounds any path-product disagreement.
        # scale[u] = value of one u in base units; factor(a->b) scales the
        # amount, so scale[b] = scale[a] / factor.
        scale: dict[str, Decimal] = {}
        for unit in sorted(self.units):
            if unit in scale:
                continue
            scale[unit] = Decimal(1)
            frontier = [unit]
            while frontier:
                current = frontier.pop()
                for dst, factor in self._neighbors(current):
                    if dst not in scale:
                        scale[dst] = scale[current] / factor
                        frontier.append(dst)
        for (src, dst), factor in self.conversions.items():
            implied = scale[src] / scale[dst]
            if abs(float(factor / implied) - 1.0) > 1e-9:
                raise SchemaError(
                    f"conversion {src}->{dst}={factor} disagrees with other declared paths"
                )

    def has_unit(self, unit: str) -> bool:
        return unit in self.units

    def require_unit(self, unit: str) -> None:
        if unit not in self.units:
            raise UnknownUnitError(f"unit '{unit}' not in registry")

    def factor(self, from_unit: str, to_unit: str) -> Decimal:
        """Path product converting one unit into another (BFS over declared
        edges; deterministic by sorted neighbor order)."""
        self.require_unit(from_unit)
        self.require_unit(to_unit)
        if from_unit == to_unit:
            return Decimal(1)
        direct = self.conversions.get((from_unit, to_unit))
        if direct is not None:
            return direct
        best: dict[str, Decimal] = {from_unit: Decimal(1)}
        frontier = [from_unit]
        while frontier:
            next_frontier: list[str] = []
            for current in sorted(frontier):
                for dst, f in sorted(self._neighbors(current)):
                    if dst in best:
                        continue
                    best[dst] = best[current] * f
                    next_frontier.append(dst)
            frontier = next_frontier
        if to_unit not in best:
            raise NoConversionPathError(f"no conversion path {from_unit} -> {to_unit}")
        return best[to_unit]

    def convert(self, q: Quantity, to_unit: str) -> Quantity:
        """Convert a quantity; Decimal amounts stay Decimal."""
        f = self.factor(q.unit, to_unit)
        amount = q.amount * f if isinstance(q.amount, Decimal) else q.amount * float(f)
        return Quantity(amount, to_unit)
