from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from susmine import NoConversionPathError, Quantity, SchemaError, UnitRegistry, UnknownUnitError


def test_wh_to_kwh():
    reg = UnitRegistry()
    q = reg.convert(Quantity(Decimal(1000), "Wh"), "kWh")
    assert q.amount == Decimal(1)
    assert q.unit == "kWh"


def test_identity_conversion():
    reg = UnitRegistry()
    q = Quantity(Decimal("2.5"), "kg")
    assert reg.convert(q, "kg") == q


def test_no_path():
    reg = UnitRegistry()
    with pytest.raises(NoConversionPathError):
        reg.convert(Quantity(Decimal(1), "kg"), "kWh")


def test_unknown_unit():
    reg = UnitRegistry()
    with pytest.raises(UnknownUnitError):
        reg.convert(Quantity(Decimal(1), "kg"), "parsec")


def test_multi_hop_path():
    reg = UnitRegistry()
    q = reg.convert(Quantity(Decimal("7.2"), "MJ"), "Wh")  # MJ -> kWh -> Wh
    assert abs(float(q.amount) - 2000.0) < 1e-9


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
    there = reg.convert(Quantity(amount, "a"), "b")
    back = reg.convert(there, "a")
    assert abs(float(back.amount) - float(amount)) <= 1e-9 * max(abs(float(amount)), 1e-30)


@given(
    amount=st.decimals(min_value="-1000", max_value="1000", places=6),
    k=st.decimals(min_value="0.01", max_value="100", places=3),
)
def test_conversion_is_linear(amount, k):
    reg = UnitRegistry()
    a = reg.convert(Quantity(amount * k, "Wh"), "kWh").amount
    b = reg.convert(Quantity(amount, "Wh"), "kWh").amount * k
    assert abs(float(a - b)) <= 1e-12 * max(abs(float(a)), 1e-30)
