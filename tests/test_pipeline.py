import json
from decimal import Decimal
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from susmine import SusmineError, parse_annotations, run_pipeline
from susmine.errors import NonFiniteImpactError
from susmine.fixtures import fixture_path
from susmine.inventory import FunctionalUnit
from susmine.model import ComponentKind, ComponentRef, Quantity
from susmine.ocel import parse_ocel
from susmine.pipeline import activity_type_totals, roll_up, stage
from susmine.report import _collapsed
from susmine.scoping import collapse_scopes, scoped_total


def test_stage_names_the_exception_and_reraises_it_unchanged():
    error = ValueError("boom")
    with pytest.raises(ValueError) as raised:
        with stage("audit"):
            raise error
    assert raised.value is error
    assert error.stage == "audit"


def test_run_pipeline_errors_carry_their_stage(demo_log, demo_bundle):
    unknown_type = FunctionalUnit("pallet", Quantity(Decimal(1), "count"))
    with pytest.raises(SusmineError) as raised:
        run_pipeline(demo_log, demo_bundle, fu=unknown_type)
    assert raised.value.stage == "functional-unit"

    no_factors = parse_annotations(json.dumps({
        "schema": "susmine/1",
        "assignments": [{"component": {"kind": "activity_instance", "id": "e1"}, "flow": "CO2",
                         "direction": "output", "amount": 1, "unit": "kg"}],
    }))
    with pytest.raises(SusmineError) as raised:
        run_pipeline(demo_log, no_factors)
    assert raised.value.stage == "characterization"


_LOG = parse_ocel(fixture_path("ocel/mineral_water.json").read_bytes())
#: Components of every kind, with an event absent from the log, which
#: rolls up into no activity type.
_REFS = [
    *(ComponentRef(ComponentKind.ACTIVITY_INSTANCE, event) for event in ("e1", "e2", "e3", "e4", "missing")),
    ComponentRef(ComponentKind.ACTIVITY_TYPE, "fill_bottle"),
    ComponentRef(ComponentKind.OBJECT_INSTANCE, "b1"),
    ComponentRef(ComponentKind.OBJECT_TYPE, "bottle"),
    ComponentRef(ComponentKind.PROCESS),
]
_CELLS = [(category, scope) for category in ("a", "b", "c") for scope in ("scope1", "scope2", "unscoped")]
#: Signed amounts at the float range's ends, zeros of both signs, and
#: values that cancel or lose digits when summed.
_AMOUNTS = st.one_of(
    st.sampled_from([1e308, -1e308, 0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 0.2, 0.3, 1e16, -1e16, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)
#: Post-allocation vectors in allocation order, each cell in drawn order;
#: a cell's unit is its category's, as characterization makes it.
_POST = st.dictionaries(
    st.sampled_from(_REFS),
    st.lists(st.tuples(st.sampled_from(_CELLS), _AMOUNTS), max_size=9).map(
        lambda cells: {cell: Quantity(amount, f"unit-{cell[0]}") for cell, amount in cells}),
    max_size=len(_REFS),
)


def _outcome(fn, *args):
    """``fn(*args)`` as ``repr`` text, or the type and message it raised."""
    try:
        return repr(fn(*args))
    except NonFiniteImpactError as exc:
        return type(exc), str(exc)


def _scope1_cells(*cells):
    return {(category, "scope1"): Quantity(amount, f"unit-{category}") for category, amount in cells}


@settings(max_examples=400, deadline=None)
@given(post=_POST)
@example(post={  # e2 and e3 overflow fill_bottle; e1 keeps the process total finite
    _REFS[1]: _scope1_cells(("a", 1e308)),
    _REFS[0]: _scope1_cells(("a", -1e308)),
    _REFS[2]: _scope1_cells(("a", 1e308)),
})
def test_the_one_walk_and_the_one_pass_collapse_match_the_passes_they_replace(post):
    walked = _outcome(roll_up, _LOG, post)
    process = _outcome(lambda: list(scoped_total(post).items()))
    if not isinstance(process, str):
        assert walked == process
        return
    totals, type_totals = roll_up(_LOG, post)
    assert repr(list(totals.items())) == process
    al = SimpleNamespace(log=_LOG)
    by_type = _outcome(lambda: {t: list(sv.items()) for t, sv in activity_type_totals(al, post).items()})
    if type_totals is None:
        assert not isinstance(by_type, str)
    else:
        assert repr({t: list(sv.items()) for t, sv in type_totals.items()}) == by_type
    for sv in post.values():
        sv = dict(sorted(sv.items()))
        assert _outcome(lambda: [tuple(row) for row in _collapsed(sv)]) == _outcome(
            lambda: [(category, amount, unit) for category, (amount, unit) in collapse_scopes(sv).items()])
