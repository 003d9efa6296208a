import json
from decimal import Decimal

import pytest

from susmine import SusmineError, parse_annotations, run_pipeline
from susmine.inventory import FunctionalUnit
from susmine.model import Quantity
from susmine.pipeline import stage


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
