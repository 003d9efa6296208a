from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from susmine import NoConversionPathError, SchemaError, UnitRegistry, UnknownUnitError


def test_wh_to_kwh():
    reg = UnitRegistry()
    assert Decimal(1000) * reg.factor("Wh", "kWh") == Decimal(1)


def test_identity_conversion():
    reg = UnitRegistry()
    assert Decimal("2.5") * reg.factor("kg", "kg") == Decimal("2.5")


def test_no_path():
    reg = UnitRegistry()
    with pytest.raises(NoConversionPathError):
        reg.factor("kg", "kWh")


def test_unknown_unit():
    reg = UnitRegistry()
    with pytest.raises(UnknownUnitError):
        reg.factor("kg", "parsec")


def test_multi_hop_path():
    reg = UnitRegistry()
    amount = Decimal("7.2") * reg.factor("MJ", "Wh")  # MJ -> kWh -> Wh
    assert abs(float(amount) - 2000.0) < 1e-9


def test_inconsistent_inverse_rejected():
    with pytest.raises(SchemaError):
        UnitRegistry(
            units={"a", "b"},
            conversions={("a", "b"): Decimal(2), ("b", "a"): Decimal(3)},
        )


def test_contradictory_paths_rejected():
    with pytest.raises(SchemaError):
        UnitRegistry(
            units={"a", "b", "c"},
            conversions={
                ("a", "b"): Decimal(2),
                ("b", "c"): Decimal(2),
                ("a", "c"): Decimal(5),  # disagrees with 2*2
            },
        )


def test_nonpositive_factor_rejected():
    with pytest.raises(SchemaError):
        UnitRegistry(units={"a", "b"}, conversions={("a", "b"): Decimal(0)})


@given(
    factor=st.decimals(min_value="0.0001", max_value="10000", places=4),
    amount=st.decimals(min_value="-1000", max_value="1000", places=6),
)
def test_round_trip(factor, amount):
    reg = UnitRegistry(units={"a", "b"}, conversions={("a", "b"): factor})
    there = amount * reg.factor("a", "b")
    back = there * reg.factor("b", "a")
    assert abs(float(back) - float(amount)) <= 1e-9 * max(abs(float(amount)), 1e-30)


@given(
    amount=st.decimals(min_value="-1000", max_value="1000", places=6),
    k=st.decimals(min_value="0.01", max_value="100", places=3),
)
def test_conversion_is_linear(amount, k):
    reg = UnitRegistry()
    a = amount * k * reg.factor("Wh", "kWh")
    b = amount * reg.factor("Wh", "kWh") * k
    assert abs(float(a - b)) <= 1e-12 * max(abs(float(a)), 1e-30)


def _reference_factor(reg, from_unit, to_unit):
    """Reference breadth-first path product: each unit's neighbours come
    from a scan of every conversion, sorted by destination."""
    reg.require_unit(from_unit)
    reg.require_unit(to_unit)
    if from_unit == to_unit:
        return Decimal(1)
    direct = reg.conversions.get((from_unit, to_unit))
    if direct is not None:
        return direct
    best = {from_unit: Decimal(1)}
    frontier = [from_unit]
    while frontier:
        next_frontier = []
        for current in sorted(frontier):
            for dst, f in sorted((d, f) for (s, d), f in reg.conversions.items() if s == current):
                if dst not in best:
                    best[dst] = best[current] * f
                    next_frontier.append(dst)
        frontier = next_frontier
    if to_unit not in best:
        raise NoConversionPathError(f"no conversion path {from_unit} -> {to_unit}")
    return best[to_unit]


def _outcome(lookup, *args):
    try:
        return lookup(*args).as_tuple()
    except Exception as exc:  # the error itself is the outcome to compare
        return type(exc), str(exc)


TREE_FACTORS = [Decimal(s) for s in ("0.001", "0.25", "0.5", "2", "3", "3.6", "7", "12", "1000")]


@st.composite
def consistent_registries(draw):
    """A random spanning tree over fresh units, with factors from a fixed
    set and random edge directions, plus extra edges whose factors are
    derived from the tree's path products."""
    n = draw(st.integers(2, 7))
    units = [f"u{i}" for i in range(n)]
    amount = {units[0]: Decimal(1)}  # amount of each unit in one u0
    tree: dict[tuple[str, str], Decimal] = {}
    for i in range(1, n):
        parent, child = units[draw(st.integers(0, i - 1))], units[i]
        f = draw(st.sampled_from(TREE_FACTORS))
        if draw(st.booleans()):
            tree[(parent, child)] = f
            amount[child] = amount[parent] * f
        else:
            tree[(child, parent)] = f
            amount[child] = amount[parent] / f
    linked = {frozenset(edge) for edge in tree}
    extra: dict[tuple[str, str], Decimal] = {}
    for a, b in draw(st.lists(st.tuples(st.sampled_from(units), st.sampled_from(units)), max_size=6)):
        if a != b and frozenset((a, b)) not in linked:
            linked.add(frozenset((a, b)))
            extra[(a, b)] = amount[b] / amount[a]
    return set(units), tree, extra


@given(consistent_registries(), st.data())
def test_factor_matches_a_reference_walk_and_contradictions_are_rejected(drawn, data):
    units, tree, extra = drawn
    reg = UnitRegistry(units=units, conversions={**tree, **extra})
    for a in sorted(reg.units):
        for b in sorted(reg.units):
            assert _outcome(reg.factor, a, b) == _outcome(_reference_factor, reg, a, b)
    if extra:
        edge = data.draw(st.sampled_from(sorted(extra)))
        with pytest.raises(SchemaError):
            UnitRegistry(units=units, conversions={**tree, **extra, edge: extra[edge] * 2})
