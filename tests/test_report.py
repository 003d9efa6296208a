import csv
import functools
import importlib
import io
import json
import os
import threading
import time
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

import susmine.report as report_module
from susmine import (
    Mode,
    NonFiniteImpactError,
    build_report,
    emit_dot,
    parse_annotations,
    parse_ocel,
    render_report,
    run_pipeline,
)
from susmine.allocation import LedgerEntry
from susmine.cli import main
from susmine.fixtures import fixture_path
from susmine.generator import generate_bundle
from susmine.inventory import FunctionalUnit
from susmine.model import ComponentKind, ComponentRef, Quantity
from susmine.report import (
    INVENTORY_COLUMNS, impact_csv, inventory_to_csv, ledger_csv, scoped_impact_csv, write_csv, write_files,
    write_outputs,
)

from conftest import dec, make_log_doc, rel_close
from oracles import csv_projections, rendered, report_dict


def pipeline_for(seed=8, size=60, fu=None):
    gb = generate_bundle(seed, size)
    log = parse_ocel(gb.log_json)
    return run_pipeline(log, parse_annotations(gb.annotations_json), fu=fu), gb


def test_report_schema_and_log_section(demo_log, demo_bundle):
    report = build_report(run_pipeline(demo_log, demo_bundle))
    assert report["schema"] == "susmine-report/1"
    assert report["log"]["event_count"] == 4
    assert report["log"]["digest"] == demo_log.digest()
    assert report["scope_set"]["scopes"] == ["scope1", "scope2", "scope3"]


def test_report_nests_impacts_under_scopes(demo_log, demo_bundle):
    report = build_report(run_pipeline(demo_log, demo_bundle))
    climate = report["impacts"]["process_totals"]["climate_change"]
    assert rel_close(climate["by_scope"]["scope1"]["amount"], 5.0)
    assert rel_close(climate["by_scope"]["scope3"]["amount"], 30.0)
    assert rel_close(climate["total"]["amount"], 35.0)
    assert climate["class"] == "climate"


def test_process_total_equals_dfg_nodes_plus_residuals():
    result, _ = pipeline_for(14, 120)
    report = build_report(result)
    for category, section in report["impacts"]["process_totals"].items():
        node_sum = 0.0
        for node in result.dfg.nodes.values():
            for (cat, _scope), q in node.vector.items():
                if cat == category:
                    node_sum += q.amount
        residual = 0.0
        for comp in report["impacts"]["components"]:
            if comp["component"]["kind"] in ("activity_instance", "activity_type"):
                continue
            for cat, scopes in comp["impacts"].items():
                if cat == category:
                    residual += sum(v["amount"] for v in scopes.values())
        assert rel_close(node_sum + residual, section["total"]["amount"]), category


def test_inventory_amounts_are_exact_strings(demo_log, demo_bundle):
    report = build_report(run_pipeline(demo_log, demo_bundle))
    amounts = {e["amount"] for e in report["inventory"]["entries"]}
    assert "0.00001" in amounts
    assert "5" in amounts


def test_unscoped_share_in_report():
    result, _ = pipeline_for(3, 80)
    report = build_report(result)
    for category, share in report["unscoped_share"].items():
        assert 0.0 <= share <= 1.0


def test_negative_entries_surfaced(demo_log):
    bundle_doc = {
        "schema": "susmine/1",
        "scopes": "ghg",
        "assignments": [{
            "component": {"kind": "activity_instance", "id": "e1"},
            "flow": "CO2", "direction": "output", "amount": "-4", "unit": "kg",
            "scope": "scope1",
        }],
        "characterization": {
            "categories": {"climate_change": {"impact_unit": "kg CO2e", "class": "climate"}},
            "factors": [{"flow": "CO2", "unit": "kg", "factors": {"climate_change": 1.0}}],
        },
        "allocations": [],
    }
    result = run_pipeline(demo_log, parse_annotations(json.dumps(bundle_doc)))
    report = build_report(result)
    assert [e["amount"] for e in report["inventory"]["negative_entries"]] == ["-4"]


def test_render_is_deterministic(demo_log, demo_bundle):
    a = rendered(render_report, run_pipeline(demo_log, demo_bundle))
    b = rendered(render_report, run_pipeline(demo_log, demo_bundle))
    assert a == b
    json.loads(a)  # valid JSON


def test_csv_projections_parse_and_agree():
    result, _ = pipeline_for(6, 70)
    rows = list(csv.DictReader(io.StringIO(rendered(scoped_impact_csv, result))))
    report = build_report(result)
    total_from_csv = sum(
        float(r["amount"]) for r in rows if r["category"] == "climate_change"
    )
    want = report["impacts"]["process_totals"].get("climate_change", {"total": {"amount": 0.0}})
    assert rel_close(total_from_csv, want["total"]["amount"])

    flat = list(csv.DictReader(io.StringIO(rendered(impact_csv, result))))
    assert {r["category"] for r in flat} >= {r["category"] for r in rows}

    ledger_rows = list(csv.DictReader(io.StringIO(rendered(ledger_csv, result))))
    for r in ledger_rows:
        assert r["source_kind"] == "object_instance"
        assert 0.0 <= float(r["weight"]) <= 1.0


def test_write_outputs_round_trip(tmp_path):
    result, _ = pipeline_for(9, 40)
    written = write_outputs(result, tmp_path)
    assert sorted(written) == [
        "dfg.dot", "impacts.csv", "impacts_scoped.csv", "inventory.csv", "ledger.csv", "report.json",
    ]
    again = write_outputs(result, tmp_path)
    for name, path in written.items():
        assert path.read_bytes() == again[name].read_bytes()


def test_functional_unit_section(demo_log, demo_bundle):
    fu = FunctionalUnit("bottle", Quantity(dec(1), "count"))
    result = run_pipeline(demo_log, demo_bundle, fu=fu)
    report = build_report(result)
    section = report["functional_unit"]
    assert section["measured_output"] == "3"
    assert section["scale_factor"] in ("0.3333333333333333333333333333",)
    impacts = section["impacts_per_fu"]["climate_change"]
    assert rel_close(impacts["scope3"]["amount"], 10.0)  # 30 / 3 bottles


# -- the one-pass emitter behind render_report ---------------------------------

_texts = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=12),  # lone surrogates included
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é", "\ud800", "\udfff", "😀", ""]),
)
_leaves = st.one_of(
    _texts,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.integers(),
    st.sampled_from([2**64, -(2**100), 10**300]),
    st.booleans(),
    st.none(),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(_texts, children, max_size=5),
    max_leaves=40,
)


def _nest(tree, wrappers):
    for key in wrappers:
        tree = [tree] if key is None else {key: tree}
    return tree


_deep_trees = st.builds(_nest, _trees, st.lists(st.none() | _texts, min_size=20, max_size=80))


def _dumps(value) -> str:
    parts: list[str] = []
    report_module._emit(value, 0, parts.append)
    return "".join(parts)


@given(st.one_of(_trees, _deep_trees))
def test_emitter_equals_json_dumps(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("tree", [
    {1: "int key"},
    {"ok": {None: 1}},
    {"amount": Decimal("1.5")},
    [Decimal("1")],
    {"t": {"a", "b"}},
])
def test_emitter_rejects_what_build_report_never_produces(tree):
    with pytest.raises(TypeError):
        _dumps(tree)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_emitter_rejects_non_finite_floats(value):
    for tree in ({"amount": value}, [value], value):
        with pytest.raises(ValueError):
            _dumps(tree)


@pytest.mark.parametrize("count", [0, 1, report_module._BATCH, report_module._BATCH + 1,
                                   2 * report_module._BATCH + 3])
def test_a_rows_section_is_written_in_joined_batches(count):
    # a _Rows section sits at depth 2, its rows at depth 3, as a list's items do
    parts: list[str] = []
    section = report_module._Rows(map(str, range(count)))
    report_module._emit({"top": {"rows": section}}, 0, parts.append)
    assert "".join(parts) == json.dumps({"top": {"rows": list(range(count))}}, indent=2, sort_keys=True)
    batches = -(-count // report_module._BATCH)
    assert len(parts) == 4 + batches + 1  # two keys, their closing braces, each batch, the "]"


@pytest.mark.parametrize("bundle", ["mineral_water", "machine_allocation"])
@pytest.mark.parametrize("fu", [None, FunctionalUnit("order", Quantity(dec(1), "count"))])
def test_render_report_equals_json_dumps_on_demo_bundles(bundle, fu, demo_log):
    annotations = parse_annotations(fixture_path(f"annotations/{bundle}.json").read_bytes())
    result = run_pipeline(demo_log, annotations, fu=fu)
    expected = json.dumps(report_dict(result), indent=2, sort_keys=True) + "\n"
    assert rendered(render_report, result) == expected


# -- the streamed report and projections ----------------------------------------

#: One bundle on the demo log with what the demo bundles and generated seeds
#: lack or rarely hold: a process-level assignment (a ref whose id is null),
#: a negative inventory entry, a rule moving half its source (a residual) and
#: a proportional key whose values are all missing (lenient fallback warnings).
EDGE_BUNDLE = {
    "schema": "susmine/1",
    "scopes": "ghg",
    "assignments": [
        {"component": {"kind": "process"}, "flow": "CO2", "direction": "output",
         "amount": "2", "unit": "kg"},
        {"component": {"kind": "activity_instance", "id": "e1"}, "flow": "CO2", "direction": "output",
         "amount": "-4", "unit": "kg", "scope": "scope1"},
        {"component": {"kind": "object_instance", "id": "machine1"}, "flow": "CO2", "direction": "output",
         "amount": "30", "unit": "kg", "scope": "scope3"},
        {"component": {"kind": "object_instance", "id": "machine1"}, "flow": "electricity", "direction": "input",
         "amount": "0.1", "unit": "kWh", "scope": "scope2"},
        {"component": {"kind": "object_instance", "id": "o1"}, "flow": "CO2", "direction": "output",
         "amount": "1.25", "unit": "kg", "scope": "scope3"},
    ],
    "characterization": {
        "categories": {
            "climate_change": {"impact_unit": "kg CO2e", "class": "climate"},
            "energy_use": {"impact_unit": "MJ-eq", "class": "environmental"},
        },
        "factors": [
            {"flow": "CO2", "unit": "kg", "factors": {"climate_change": 1.0}},
            {"flow": "electricity", "unit": "kWh", "factors": {"energy_use": 3.6}},
        ],
    },
    "allocations": [
        {"source": {"kind": "object_instance", "id": "machine1"}, "targets": "related_events",
         "key": "equal", "fraction": "0.5"},
        {"source": {"kind": "object_instance", "id": "o1"}, "targets": "related_events",
         "key": {"attribute": "mass_kg"}},
    ],
}


def edge_result(demo_log, fu=None):
    return run_pipeline(demo_log, parse_annotations(json.dumps(EDGE_BUNDLE)), Mode.LENIENT, fu=fu)


def assert_render_matches_oracle(result):
    expected = json.dumps(report_dict(result), indent=2, sort_keys=True) + "\n"
    assert rendered(render_report, result) == expected
    assert build_report(result) == report_dict(result)


@pytest.mark.parametrize("fu", [None, FunctionalUnit("bottle", Quantity(dec(1), "count"))])
def test_render_report_equals_json_dumps_on_edge_bundle(fu, demo_log):
    result = edge_result(demo_log, fu)
    report = build_report(result)
    components = [c["component"] for c in report["impacts"]["components"]]
    assert {"kind": "process", "id": None} in components
    assert None in [e["component_id"] for e in report["inventory"]["entries"]]
    assert [e["amount"] for e in report["inventory"]["negative_entries"]] == ["-4"]
    assert [r["component"]["id"] for r in report["allocation"]["residuals"]] == ["machine1"]
    assert any("falling back to equal split" in w for w in report["allocation"]["warnings"])
    if fu is not None:
        assert report["functional_unit"]["inventory_per_fu"]
    assert_render_matches_oracle(result)


@pytest.mark.parametrize("seed, size", [(3, 150), (17, 90), (42, 200)])
def test_render_report_equals_json_dumps_on_generated_bundles_per_functional_unit(seed, size):
    result, _ = pipeline_for(seed, size, fu=FunctionalUnit("order", Quantity(dec(1), "count")))
    assert result.ledger.entries and result.fu_inventory.entries
    assert_render_matches_oracle(result)


def assert_rows_in_output_order(result):
    """The projections write rows as stored: components in order, each
    vector's cells in (category, scope) order, ledger entries sorted."""
    assert list(result.post_allocation) == sorted(result.post_allocation)
    assert list(result.ledger.residuals) == sorted(result.ledger.residuals)
    for sv in [*result.post_allocation.values(), *result.ledger.residuals.values()]:
        assert list(sv) == sorted(sv)
    assert result.ledger.entries == sorted(result.ledger.entries)


def test_rows_are_stored_in_output_order_on_edge_bundle(demo_log):
    result = edge_result(demo_log)
    assert result.ledger.residuals and any(len(sv) > 1 for sv in result.post_allocation.values())
    assert_rows_in_output_order(result)


@pytest.mark.parametrize("seed, size", [(3, 150), (17, 90), (42, 200)])
def test_rows_are_stored_in_output_order_on_generated_bundles(seed, size):
    result, _ = pipeline_for(seed, size)
    assert result.ledger.entries
    assert_rows_in_output_order(result)


def test_artifacts_streamed_to_files_equal_their_text_forms(tmp_path, demo_log):
    result = edge_result(demo_log, FunctionalUnit("bottle", Quantity(dec(1), "count")))
    written = write_outputs(result, tmp_path)
    texts = {
        "report.json": rendered(render_report, result),
        "inventory.csv": rendered(inventory_to_csv, result.inventory),
        "impacts.csv": rendered(impact_csv, result),
        "impacts_scoped.csv": rendered(scoped_impact_csv, result),
        "ledger.csv": rendered(ledger_csv, result),
        "dfg.dot": emit_dot(result.dfg),
    }
    assert {name: path.read_bytes().decode("utf-8") for name, path in written.items()} == texts


# -- the CSV row writer ------------------------------------------------------------

BATCH = report_module._BATCH
#: Cells csv quotes, or that an ASCII or a UTF-8 stream cannot encode, and the empty cell.
_SPECIAL_CELLS = [",", '"', "\r", "\n", "\0", "\u00e9", "\ud800", "", '""']
_csv_cells = st.sampled_from(_SPECIAL_CELLS) | st.text(st.sampled_from([*_SPECIAL_CELLS[:7], "a", "1", " "]),
                                                        max_size=4)


def csv_writer_writes(out, header, rows):
    """Each row in one write, as ``csv.writer`` writes it with "\\r\\n" line
    ends (so that a field holding "\\r" is quoted on every version), ended
    by "\\n"."""
    for row in [header, *rows]:
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(row)
        out.write(line.getvalue().removesuffix("\r\n") + "\n")


def written(write, encoding, header, rows):
    """The bytes ``write(out, header, rows)`` leaves on a text stream in
    ``encoding``, and the type and message of what it raised, if anything."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding=encoding, newline="")
    error = None
    try:
        write(out, header, rows)
    except Exception as exc:
        error = (type(exc), str(exc))
    out.flush()
    return raw.getvalue(), error


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_write_csv_writes_what_csv_writer_writes(data):
    width = data.draw(st.integers(1, 4), label="width")
    header = data.draw(st.lists(_csv_cells, min_size=width, max_size=width), label="header")
    count = data.draw(st.sampled_from([1, 2, 3, BATCH - 1, BATCH, BATCH + 2, 2 * BATCH + 2]), label="count")
    rows = [[f"{number}.{column}" for column in range(width)] for number in range(count)]
    # the last row, in the last batch and after its first row (when there are
    # two rows), given one special cell, and up to two others anywhere: one
    # cell replaced, the last one dropped from a narrower row
    last = st.tuples(st.integers(0, width - 1), st.sampled_from(_SPECIAL_CELLS), st.just(False))
    special = st.tuples(st.integers(0, width - 1), _csv_cells, st.booleans())
    changes = [(count - 1, data.draw(last, label="last"))]
    changes += data.draw(st.lists(st.tuples(st.integers(0, count - 1), special), max_size=2), label="others")
    for index, (column, cell, narrower) in changes:
        row = rows[index]
        if narrower and row:
            row.pop()
        if row:
            row[column % len(row)] = cell
    encoding = data.draw(st.sampled_from(["utf-8", "ascii"]), label="encoding")
    rows = [tuple(row) for row in rows]
    assert written(write_csv, encoding, header, rows) == written(csv_writer_writes, encoding, header, rows)


@pytest.mark.parametrize("header, rows", [
    (("h",), [("a",), ("",)]),  # one column: csv writes an empty field as ""
    (("h1", "h2", "h3"), [("a,b,c,d,e",), ("x",)]),  # a narrow row's commas balance the count
    *((("h1", "h2"), [("a", "1"), ("b", cell)]) for cell in [",", '"', "\r", "\n", "\0"]),
])
def test_write_csv_leaves_each_batch_that_may_need_quoting_to_csv(header, rows):
    assert written(write_csv, "utf-8", header, rows) == written(csv_writer_writes, "utf-8", header, rows)


@pytest.mark.parametrize("encoding, flow", [("utf-8", "CO2\ud800x"), ("ascii", "CO2\u00e9")])
def test_write_csv_raises_an_encoding_error_at_its_row(encoding, flow):
    rows = [("activity_instance", "e0", "CO2", "output", "scope1", "5", "kg"),
            ("activity_instance", "e1", flow, "output", "scope1", "5", "kg")]
    got = written(write_csv, encoding, INVENTORY_COLUMNS, rows)
    assert got == written(csv_writer_writes, encoding, INVENTORY_COLUMNS, rows)
    assert got[1][0] is UnicodeEncodeError and "position 24" in got[1][1]


def test_write_csv_writes_a_plain_batch_in_one_call():
    class Counting(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    rows = [(str(number), "x") for number in range(2 * BATCH + 1)]
    out = Counting()
    write_csv(out, ("number", "letter"), rows)
    assert out.writes == 1 + 3  # the header, then one call per batch
    expected = io.StringIO()
    csv_writer_writes(expected, ("number", "letter"), rows)
    assert out.getvalue() == expected.getvalue()


#: Every text a CSV cell can take from the input: ids, names, categories and
#: scope labels holding what CSV must quote, and a character past ASCII.
QUOTED = ',"\n\u00e9'
#: A scope label and an impact unit whose one character CSV must quote is a
#: carriage return, which ``csv.writer`` with "\n" line ends leaves bare
#: before 3.13.
BARE_CR = "bought\r"
QUOTED_LOG = make_log_doc(
    events=[(f"e{QUOTED}{number}", f"fill{QUOTED}", f"2024-01-01T00:0{number}:00Z",
             [(f"machine{QUOTED}", f"uses{QUOTED}")], {}) for number in range(3)],
    objects=[(f"machine{QUOTED}", f"machine{QUOTED}", {})],
)
QUOTED_BUNDLE = {
    "schema": "susmine/1",
    "scopes": {"name": f"set{QUOTED}", "scopes": [f"own{QUOTED}", BARE_CR]},
    "assignments": [
        {"component": {"kind": "process"}, "flow": f"CO2{QUOTED}", "direction": "output",
         "amount": "2", "unit": "kg", "scope": f"own{QUOTED}"},
        {"component": {"kind": "object_instance", "id": f"machine{QUOTED}"}, "flow": f"CO2{QUOTED}",
         "direction": "output", "amount": "30", "unit": "kg", "scope": BARE_CR},
        {"component": {"kind": "activity_instance", "id": f"e{QUOTED}1"}, "flow": f"CO2{QUOTED}",
         "direction": "output", "amount": "-4", "unit": "kg"},
    ],
    "characterization": {
        "categories": {f"climate{QUOTED}": {"impact_unit": "kg CO2e\r", "class": "climate"}},
        "factors": [{"flow": f"CO2{QUOTED}", "unit": "kg", "factors": {f"climate{QUOTED}": 1.0}}],
    },
    "allocations": [
        {"source": {"kind": "object_instance", "id": f"machine{QUOTED}"}, "targets": "related_events",
         "key": "equal", "fraction": "0.5"},
    ],
}


def assess_inputs(case):
    """(log text, bundle text) of one ``assess`` input."""
    if case == "quoted":
        return json.dumps(QUOTED_LOG), json.dumps(QUOTED_BUNDLE)
    if case == "generated":
        gb = generate_bundle(101, 400)
        return gb.log_json, gb.annotations_json
    return (fixture_path("ocel/mineral_water.json").read_text(encoding="utf-8"),
            fixture_path(f"annotations/{case}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", ["quoted", "mineral_water", "machine_allocation", "generated"])
def test_assess_writes_the_csvs_of_the_csv_writer_oracle(case, tmp_path, capsys):
    log_text, bundle_text = assess_inputs(case)
    (tmp_path / "log.json").write_text(log_text, encoding="utf-8")
    (tmp_path / "bundle.json").write_text(bundle_text, encoding="utf-8")
    argv = ["assess", "--log", str(tmp_path / "log.json"), "--annotations", str(tmp_path / "bundle.json"),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    expected = csv_projections(run_pipeline(parse_ocel(log_text), parse_annotations(bundle_text)))
    assert {name: (tmp_path / "out" / name).read_bytes().decode("utf-8") for name in expected} == expected
    if case == "quoted":  # every projection holds quoted cells, and one holding only a "\r"
        assert all('"machine,""' in text for text in expected.values())
        assert all(('"bought\r"' in text) != (name == "impacts.csv") for name, text in expected.items())
        assert '"kg CO2e\r"' in expected["impacts.csv"]


def test_ledger_texts_follow_each_entry_of_a_transfer(demo_log, demo_bundle):
    result = run_pipeline(demo_log, demo_bundle)
    machine = ComponentRef(ComponentKind.OBJECT_INSTANCE, "machine1")
    event = ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "e1")
    half = 0.5
    result.ledger.entries[:] = [
        LedgerEntry(machine, event, "climate_change", "scope1", 1.0, half),
        # equal refs and weight, not the same objects
        LedgerEntry(ComponentRef(ComponentKind.OBJECT_INSTANCE, "machine1"),
                    ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "e1"), "climate_change", "scope2", 2.0,
                    float("0.5")),
        # the same refs, another weight: 0.0 and then -0.0, equal but written apart
        LedgerEntry(machine, event, "climate_change", "scope3", 3.0, 0.0),
        LedgerEntry(machine, event, "energy", "scope1", 4.0, -0.0),
        LedgerEntry(machine, event, "energy", "scope2", 5.0, half),
    ]
    assert result.ledger.entries == sorted(result.ledger.entries)
    assert_render_matches_oracle(result)
    ledger = rendered(ledger_csv, result)
    assert ledger == csv_projections(result)["ledger.csv"]
    assert [row[-1] for row in csv.reader(io.StringIO(ledger))][1:] == ["0.5", "0.5", "0.0", "-0.0", "0.5"]


#: Each artifact's writer, as (module, name): each one can run in either process.
WRITERS = [
    ("report", "render_report"), ("report", "inventory_to_csv"), ("report", "impact_csv"),
    ("report", "scoped_impact_csv"), ("report", "ledger_csv"), ("dfg", "emit_dot"),
]


@pytest.mark.parametrize("module, writer", WRITERS)
def test_write_outputs_looks_each_writer_up_when_it_runs(module, writer, tmp_path, monkeypatch,
                                                         demo_log, demo_bundle):
    # a tracer wraps a writer by rebinding it on its module; the wrapper marks
    # the file it writes, which a writer run in a forked child leaves too
    result = run_pipeline(demo_log, demo_bundle)
    plain = {name: path.read_text(encoding="utf-8")
             for name, path in write_outputs(result, tmp_path / "plain").items()}
    owner = importlib.import_module(f"susmine.{module}")
    wrapped = getattr(owner, writer)
    mark = f"called {writer}\n"

    def marking(*args):
        if writer == "emit_dot":  # returns the text its render writes
            return mark + wrapped(*args)
        args[-1].write(mark)
        return wrapped(*args)

    monkeypatch.setattr(owner, writer, marking)
    marked = {name: path.read_text(encoding="utf-8")
              for name, path in write_outputs(result, tmp_path / "marked").items()}
    artifact = {"render_report": "report.json", "inventory_to_csv": "inventory.csv", "impact_csv": "impacts.csv",
                "scoped_impact_csv": "impacts_scoped.csv", "ledger_csv": "ledger.csv", "emit_dot": "dfg.dot"}[writer]
    assert marked[artifact].count(mark) == 1
    assert marked == {**plain, artifact: mark + plain[artifact]}


def test_failed_render_leaves_existing_outputs_unchanged(tmp_path, monkeypatch, demo_log, demo_bundle):
    out = tmp_path / "out"
    write_outputs(run_pipeline(demo_log, demo_bundle), out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_ledger_csv(result, stream):
        stream.write("source_kind,half a ledger\n")
        raise NonFiniteImpactError("render failed")

    # a different result, so a partial move would show; the ledger fails
    # after report.json and three CSVs were written
    monkeypatch.setattr(report_module, "ledger_csv", failing_ledger_csv)
    with pytest.raises(NonFiniteImpactError):
        write_outputs(edge_result(demo_log), out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    with pytest.raises(NonFiniteImpactError):
        write_outputs(edge_result(demo_log), tmp_path / "new" / "deeper")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def artifacts(result, outdir):
    return {name: path.read_bytes() for name, path in write_outputs(result, outdir).items()}


def assert_nothing_left_behind(root):
    assert not list(root.rglob(".susmine-*"))
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", ["demo-fu", "generated"])
def test_forked_artifacts_equal_in_process_ones(case, tmp_path, monkeypatch, demo_log, demo_bundle):
    if case == "demo-fu":
        result = run_pipeline(demo_log, demo_bundle, fu=FunctionalUnit("bottle", Quantity(dec(1), "count")))
    else:
        result, _ = pipeline_for(101, 400)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    forked = artifacts(result, tmp_path / "forked")
    assert forks == [1]
    monkeypatch.delattr(os, "fork")
    assert artifacts(result, tmp_path / "in-process") == forked
    assert_nothing_left_behind(tmp_path)


def failing_writer(*args):
    if len(args) == 2:  # (data, stream); emit_dot returns its text instead
        args[1].write("half an artifact\n")
    raise NonFiniteImpactError("render failed")


@pytest.mark.parametrize("module, writer", WRITERS, ids=[writer for _, writer in WRITERS])
def test_a_failed_render_raises_as_in_one_process(module, writer, tmp_path, monkeypatch, demo_log, demo_bundle):
    out = tmp_path / "out"
    write_outputs(run_pipeline(demo_log, demo_bundle), out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(importlib.import_module(f"susmine.{module}"), writer, failing_writer)
    raised = []
    for fork in (True, False):
        if not fork:
            monkeypatch.delattr(os, "fork")
        with pytest.raises(Exception) as excinfo:
            write_outputs(edge_result(demo_log), out)
        raised.append((excinfo.type, str(excinfo.value)))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert_nothing_left_behind(tmp_path)
    assert raised[0] == raised[1] == (NonFiniteImpactError, "render failed")


def test_the_calling_process_takes_queued_entries(tmp_path):
    caller = os.getpid()

    def render(out):
        if os.getpid() != caller:  # hold the child up, so this process takes what is left
            time.sleep(0.2)
        out.write(f"{os.getpid()}\n")

    written = write_files(dict.fromkeys(report_module.OUTPUT_FILES, render), tmp_path / "out")
    pids = [int(path.read_text(encoding="utf-8")) for path in written.values()]
    assert pids[0] == caller
    assert pids.count(caller) > 1, pids
    assert_nothing_left_behind(tmp_path)


@pytest.mark.parametrize("count, forks", [(257, 1), (300, 0)])  # 256 one-byte tokens fit
def test_write_files_renders_more_entries_than_tokens(count, forks, tmp_path, monkeypatch):
    def line(number, out):
        out.write(f"line {number}\n")

    renders = {f"{number:03}.txt": functools.partial(line, number) for number in range(count)}
    forked = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    written = write_files(renders, tmp_path / "out")
    assert len(forked) == forks
    assert list(written) == list(renders)
    assert [path.read_text(encoding="utf-8") for path in written.values()] == [f"line {n}\n" for n in range(count)]
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == list(renders)
    assert_nothing_left_behind(tmp_path)


def test_an_interrupted_render_reaps_the_child(tmp_path, monkeypatch, demo_log, demo_bundle):
    def interrupted(result, stream):
        raise KeyboardInterrupt

    monkeypatch.setattr(report_module, "render_report", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_outputs(run_pipeline(demo_log, demo_bundle), tmp_path / "out")
    assert list(tmp_path.iterdir()) == []
    assert_nothing_left_behind(tmp_path)


def test_write_outputs_renders_in_one_process_when_fork_fails(tmp_path, monkeypatch, demo_log, demo_bundle):
    result = run_pipeline(demo_log, demo_bundle)
    forked = artifacts(result, tmp_path / "forked")
    # no room for a second process, or for the queue's pipe
    for call, error in [("fork", BlockingIOError(11, "Resource temporarily unavailable")),
                        ("pipe", OSError(24, "Too many open files"))]:
        def no_room(error=error):
            raise error

        with monkeypatch.context() as patched:
            patched.setattr(os, call, no_room)
            assert artifacts(result, tmp_path / f"no-{call}") == forked
    assert_nothing_left_behind(tmp_path)


def test_write_outputs_does_not_fork_with_another_thread_alive(tmp_path, monkeypatch, demo_log, demo_bundle):
    result = run_pipeline(demo_log, demo_bundle)
    alone = artifacts(result, tmp_path / "alone")

    def no_fork():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert artifacts(result, tmp_path / "threaded") == alone
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
