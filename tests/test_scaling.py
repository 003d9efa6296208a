"""Lookups stay indexed: no stage may go back to scanning every relation
once per object or per allocation rule. The output stage streams: its
memory stays below the size of the report it writes."""

import os
import time
import tracemalloc

import pytest

from susmine import (
    apply_allocations,
    bind_annotations,
    build_dfg,
    generate_bundle,
    parse_annotations,
    parse_ocel,
    run_pipeline,
    scoped_impacts,
    write_outputs,
)


class CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def relation_walks(size):
    gb = generate_bundle(7, size)
    log = parse_ocel(gb.log_json)
    al = bind_annotations(log, parse_annotations(gb.annotations_json))
    scoped, _ = scoped_impacts(al)
    assert len(log.objects) > size // 4 and len(al.rules) > size // 10
    log.relations = CountingList(log.relations)
    build_dfg(log)
    apply_allocations(al, scoped)
    return log.relations.iterations


def test_relations_are_walked_a_constant_number_of_times():
    # one walk per object or per rule would be hundreds here, and would grow with size
    small, large = relation_walks(300), relation_walks(1500)
    assert small == large <= 2


def test_pipeline_scales_to_16k_events():
    gb = generate_bundle(7, 16000)
    log = parse_ocel(gb.log_json)
    bundle = parse_annotations(gb.annotations_json)
    start = time.perf_counter()
    result = run_pipeline(log, bundle)
    elapsed = time.perf_counter() - start
    assert result.ledger.entries
    # indexed lookups take a few seconds; the per-object scan took close to a minute
    assert elapsed < 15.0, f"run_pipeline on 16k events took {elapsed:.1f} s"


@pytest.mark.parametrize("path", ["forked", "in-process"])
def test_output_stage_memory_stays_below_the_report_size(path, tmp_path, monkeypatch):
    # tracemalloc sees this process only: forked, it renders report.json and
    # whichever queued artifacts it takes once that is written
    if path == "in-process":
        monkeypatch.delattr(os, "fork")
    gb = generate_bundle(7, 4000)
    result = run_pipeline(parse_ocel(gb.log_json), parse_annotations(gb.annotations_json))
    tracemalloc.start()
    try:
        write_outputs(result, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "report.json").stat().st_size
    # rows streamed to disk peak at a fifth of the report; building the
    # report dict and holding its text peaked at 6.4 times its size
    assert peak < size, f"write_outputs peaked at {peak / size:.2f}x the {size}-byte report"
