"""Tests for the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time

import pytest

import checks
import inputs
import run
import spans

sys.path.insert(0, str(run.SRC))

from susmine import build_report, parse_annotations, parse_ocel, run_pipeline  # noqa: E402
from susmine.scoping import scoped_total  # noqa: E402


@pytest.fixture
def small_wide(monkeypatch):
    """A wide-factors instance small enough to run in a test."""
    monkeypatch.setattr(inputs, "WIDE_EVENTS", 60)
    monkeypatch.setattr(inputs, "WIDE_FLOWS", 40)
    return inputs.wide_factors(3)[0]


@pytest.fixture
def tiny_run(monkeypatch, tmp_path, small_wide):
    """A Run over a one-call workload, working under tmp_path."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(inputs.WORKLOADS, "tiny", lambda seed: [small_wide])
    return run.Run("tiny", 0, time.monotonic() + 120)


def _bytes(cases):
    return [(c.log_json, c.annotations_json) for c in cases]


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_builders_are_pure_functions_of_the_seed(workload):
    builder = inputs.WORKLOADS[workload]
    first = _bytes(builder(5))
    assert first == _bytes(builder(5))
    assert first != _bytes(builder(6))


def test_wide_oracle_agrees_with_run_pipeline(small_wide):
    result = run_pipeline(parse_ocel(small_wide.log_json), parse_annotations(small_wide.annotations_json))
    got = {key: q.amount for key, q in scoped_total(result.post_allocation).items()}
    assert set(got) == set(small_wide.expected_totals)
    for key, amount in got.items():
        assert checks.rel_close(amount, small_wide.expected_totals[key]), key
    report = json.loads(json.dumps(build_report(result)))
    assert report["allocation"]["entries"], "the hubs' impact must be allocated"
    assert checks.check_report(report, small_wide) == []


def test_wrong_expected_total_is_a_problem(small_wide):
    result = run_pipeline(parse_ocel(small_wide.log_json), parse_annotations(small_wide.annotations_json))
    report = json.loads(json.dumps(build_report(result)))
    key = sorted(small_wide.expected_totals)[0]
    small_wide.expected_totals[key] *= 1 + 1e-6
    assert any(str(key) in p for p in checks.check_report(report, small_wide))


def test_wrong_expected_total_fails_every_call(tiny_run):
    key = sorted(tiny_run.cases[0].expected_totals)[0]
    tiny_run.cases[0].expected_totals[key] += 1.0
    tiny_run.measure(0, trace=False)
    assert len(tiny_run.passes) == run.MIN_PASSES
    assert tiny_run.failed_calls() == run.MIN_PASSES


def test_unbalanced_ledger_is_a_problem(small_wide):
    result = run_pipeline(parse_ocel(small_wide.log_json), parse_annotations(small_wide.annotations_json))
    report = json.loads(json.dumps(build_report(result)))
    report["allocation"]["entries"].pop()
    assert any(p.startswith("ledger for object_instance:") for p in checks.check_report(report, small_wide))


def test_traced_self_times_and_unaccounted_share_sum_to_traced_wall(tiny_run):
    tiny_run.measure(0, trace=True)
    assert tiny_run.failed_calls() == 0
    traced = [p for p in tiny_run.passes if p["trace"]]
    assert len(traced) == run.MIN_TRACED_PAIRS
    for result in traced:
        totals = spans.self_times(result["names"], result["spans"])
        root = spans.root_time(result["names"], result["spans"])
        children = sum(total for name, (total, _) in totals.items() if name != spans.ROOT)
        unaccounted = run.layer_values(result)["trace.unaccounted_ratio"]
        assert children + unaccounted * root == pytest.approx(root, rel=1e-9)
        # only the pass loop itself lies outside the root spans
        assert root == pytest.approx(result["wall_s"], rel=0.02, abs=1e-3)
    values, _ = tiny_run.per_layer()
    assert list(values) == [name for name, _ in run.PER_LAYER]
    assert values["model.digest.calls"] == 3
    assert values["allocation.ledger_entries"] > 0


def test_missing_binding_fails_loudly(monkeypatch):
    monkeypatch.setattr(spans, "BINDINGS", (("gone", "susmine.pipeline", "no_such_stage"),))
    with pytest.raises(LookupError, match="susmine.pipeline.no_such_stage"):
        spans.install(spans.Recorder())


def test_self_times_subtract_direct_children_only():
    names = ["root", "mid", "leaf"]
    recorded = [[0, 0.0, 10.0, -1], [1, 1.0, 6.0, 0], [2, 2.0, 5.0, 1], [2, 7.0, 8.0, 0]]
    assert spans.self_times(names, recorded) == {"root": (4.0, 1), "mid": (2.0, 1), "leaf": (4.0, 2)}


def test_no_sources_means_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "gen-objects", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert "{" not in capsys.readouterr().out


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
