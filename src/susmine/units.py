"""Closed unit registry with linear conversions.

There is no built-in physical unit system: the registry knows exactly the
identifiers it was given plus a small default set, and converts only along
user-declared linear factors. Silent SI assumptions are a classic source
of assessment errors, so anything undeclared is an error.

Factors are exact decimals; missing inverse directions are derived as
1/factor. Consistency is checked at construction: declared inverse pairs
must multiply to 1, and within each connected component every declared
edge must agree with the path products from the component's first unit,
which rules out contradictory multi-path conversions.
"""

from __future__ import annotations

from decimal import Decimal

from .errors import NoConversionPathError, SchemaError, UnknownUnitError, abbreviate

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
                raise UnknownUnitError(f"conversion uses undeclared unit '{abbreviate(missing)}'")
            if not isinstance(factor, Decimal):
                factor = Decimal(str(factor))
            if factor <= 0 or not factor.is_finite():
                raise SchemaError(
                    f"conversion factor {abbreviate(src)}->{abbreviate(dst)} must be a positive finite number"
                )
            self.conversions[(src, dst)] = factor
        # fill in inverses that were not declared explicitly
        for (src, dst), factor in list(self.conversions.items()):
            self.conversions.setdefault((dst, src), Decimal(1) / factor)
        self._adjacent: dict[str, list[tuple[str, Decimal]]] = {unit: [] for unit in self.units}
        for (src, dst), factor in self.conversions.items():
            self._adjacent[src].append((dst, factor))
        self._check_consistency()

    def _paths(self, from_unit: str) -> dict[str, Decimal]:
        """Path product from ``from_unit`` to every unit it reaches, breadth
        first: a unit's product comes from the first unit, in sorted order,
        of the previous level that links to it."""
        best: dict[str, Decimal] = {from_unit: Decimal(1)}
        frontier = [from_unit]
        while frontier:
            next_frontier: list[str] = []
            for current in sorted(frontier):
                for dst, f in self._adjacent[current]:
                    if dst not in best:
                        best[dst] = best[current] * f
                        next_frontier.append(dst)
            frontier = next_frontier
        return best

    def _check_consistency(self) -> None:
        # inverse pairs must cancel
        for (src, dst), factor in self.conversions.items():
            back = self.conversions[(dst, src)]
            if abs(float(factor * back) - 1.0) > 1e-12:
                src, dst = abbreviate(src), abbreviate(dst)
                raise SchemaError(f"conversions {src}->{dst} and {dst}->{src} are inconsistent")
        # every edge must agree with the path products from the first unit
        # of its component, which bounds any path-product disagreement
        component: dict[str, dict[str, Decimal]] = {}
        for unit in sorted(self.units):
            if unit not in component:
                paths = self._paths(unit)
                component.update(dict.fromkeys(paths, paths))
        for (src, dst), factor in self.conversions.items():
            if abs(float(factor * component[src][src] / component[src][dst]) - 1.0) > 1e-9:
                raise SchemaError(
                    f"conversion {abbreviate(src)}->{abbreviate(dst)}={abbreviate(factor)}"
                    " disagrees with other declared paths"
                )

    def require_unit(self, unit: str) -> None:
        if unit not in self.units:
            raise UnknownUnitError(f"unit '{abbreviate(unit)}' not in registry")

    def factor(self, from_unit: str, to_unit: str) -> Decimal:
        """The declared factor converting one unit into another, else the
        path product along :meth:`_paths`."""
        self.require_unit(from_unit)
        self.require_unit(to_unit)
        if from_unit == to_unit:
            return Decimal(1)
        direct = self.conversions.get((from_unit, to_unit))
        if direct is not None:
            return direct
        paths = self._paths(from_unit)
        if to_unit not in paths:
            raise NoConversionPathError(f"no conversion path {abbreviate(from_unit)} -> {abbreviate(to_unit)}")
        return paths[to_unit]
