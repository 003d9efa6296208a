"""Fuzzing ``susmine assess`` with mutated inputs.

Each example draws a log and a bundle: the ``mineral_water`` log with
either shipped bundle, or the pair ``generate_bundle(3, 60)`` makes. It
applies one to three mutations to them (delete a key or an entry, repeat
an entry, copy in another node or put in a value), then runs ``assess``
strict and lenient, with or without a functional unit. Every run must
exit 0 or 1 without raising, and a run that exits 1 must end stderr with
one ``error [<stage>]: `` line naming a stage of the CLI. A run that exits
0 must write CSVs whose rows, read back with ``csv.reader``, are all as
wide as their header, and artifacts that conserve the impacts: each
process total in ``report.json`` and each ``impacts.csv`` amount is the
sum of its ``impacts_scoped.csv`` rows.
"""

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from susmine.cli import main
from susmine.fixtures import fixture_path
from susmine.generator import generate_bundle

STAGES = ("load-log", "parse-annotations", "bind", "inventory", "characterization",
          "allocation", "audit", "dfg", "functional-unit", "write-outputs")
ERROR_LINE = re.compile(rf"error \[({'|'.join(STAGES)})\]: ")
LOG = json.loads(fixture_path("ocel/mineral_water.json").read_text())
GENERATED = generate_bundle(3, 60)
#: name -> (log, bundle)
PAIRS = {
    **{name: (LOG, json.loads(fixture_path(f"annotations/{name}.json").read_text()))
       for name in ("mineral_water", "machine_allocation")},
    "generated": (json.loads(GENERATED.log_json), json.loads(GENERATED.annotations_json)),
}
#: values a mutation may put in place of any node: degenerate JSON, numbers
#: at the float range's ends, numerals as strings, words of the grammars'
#: enumerations, ids of the logs, texts a CSV cell must quote, and a
#: lone surrogate and a NUL, which loading refuses
REPLACEMENTS = (
    None, 1e308, -1e308, 1e-320, 0, 10**30, "NaN", "1e400", "", [], {},
    "output", "input", "scope1", "scope3", "unscoped", "per_instance", "related_events",
    "activity_type", "activity_instance", "object_type", "object_instance", "process",
    "equal", "mass", "economic", "climate", "kg", "count", "ghg", "lca",
    "e1", "e2", "machine1", "b1", "o1", "fill_bottle", "deliver_order", "bottle", "order", "CO2",
    "e0001", "o0001",
    "a,b", 'say "hi"', "two\nlines", "carriage\rreturn", "caf\u00e9", 'CO2,"\r\n\u00e9',
    "\ud800", "\u0000",
)
CSV_FILES = ("inventory.csv", "impacts.csv", "impacts_scoped.csv", "ledger.csv")

mutations = st.lists(
    st.tuples(
        st.sampled_from(("log", "bundle")),
        st.integers(min_value=0, max_value=10**6),
        st.one_of(
            st.just(("delete",)),
            st.just(("repeat",)),
            st.tuples(st.just("copy"), st.integers(min_value=0, max_value=10**6)),
            st.tuples(st.just("set"), st.sampled_from(REPLACEMENTS)),
        ),
    ),
    min_size=1, max_size=3,
)


def _nodes(doc):
    """Every (container, key) under ``doc``, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _nodes(value)


def _mutate(doc, index: int, op: tuple):
    """Apply ``op`` to the ``index``-th node (modulo their number) that it
    fits: delete a key or an entry, repeat an array entry, replace a node
    with a copy of the ``op[1]``-th node, or set it to the value ``op[1]``."""
    nodes = [(parent, key) for parent, key in _nodes(doc) if op[0] != "repeat" or isinstance(parent, list)]
    if not nodes:
        return
    parent, key = nodes[index % len(nodes)]
    if op[0] == "delete":
        del parent[key]
    elif op[0] == "repeat":
        parent.insert(key, json.loads(json.dumps(parent[key])))
    elif op[0] == "copy":
        source, source_key = nodes[op[1] % len(nodes)]
        parent[key] = json.loads(json.dumps(source[source_key]))
    else:
        parent[key] = op[1]


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as stream:
        return list(csv.DictReader(stream))


def _assert_sums(got: dict, terms: dict, name: str):
    """Each ``got[key]`` is the sum of ``terms[key]`` within 1e-9 of the
    sum of their magnitudes, the bound on any order's rounding error."""
    assert got.keys() == terms.keys(), name
    for key, amounts in terms.items():
        bound = 1e-9 * sum(map(abs, amounts))
        assert abs(got[key] - sum(amounts)) <= bound, (name, key, got[key], amounts)


def _assert_conserved(out: Path):
    """The process totals of ``report.json`` and the amounts of
    ``impacts.csv`` sum the scoped rows, per (category, scope) and per
    (component, category)."""
    by_cell, by_component = {}, {}
    for row in _rows(out / "impacts_scoped.csv"):
        amount = float(row["amount"])
        by_cell.setdefault((row["category"], row["scope"]), []).append(amount)
        by_component.setdefault((row["component_kind"], row["component_id"], row["category"]), []).append(amount)
    totals = json.loads((out / "report.json").read_text(encoding="utf-8"))["impacts"]["process_totals"]
    _assert_sums({(category, scope): cell["amount"] for category, total in totals.items()
                  for scope, cell in total["by_scope"].items()}, by_cell, "report.json")
    _assert_sums({(row["component_kind"], row["component_id"], row["category"]): float(row["amount"])
                  for row in _rows(out / "impacts.csv")}, by_component, "impacts.csv")


def _assess(log: Path, bundle: Path, out: Path, mode: str, fu: bool) -> tuple[int, str]:
    argv = ["assess", "--log", str(log), "--annotations", str(bundle), "--out", str(out), "--mode", mode]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + (["--fu", "order:1"] if fu else []))
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(sorted(PAIRS)), fu=st.booleans(), edits=mutations)
def test_assess_on_mutated_inputs_exits_0_or_1_naming_the_stage(pair, fu, edits):
    log, bundle = PAIRS[pair]
    docs = {"log": json.loads(json.dumps(log)), "bundle": json.loads(json.dumps(bundle))}
    for target, index, op in edits:
        _mutate(docs[target], index, op)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for target, doc in docs.items():
            (root / f"{target}.json").write_text(json.dumps(doc))
        for mode in ("strict", "lenient"):
            code, err = _assess(root / "log.json", root / "bundle.json", root / mode, mode, fu)
            assert code in (0, 1), err
            if code == 0:
                for name in CSV_FILES:
                    with open(root / mode / name, newline="", encoding="utf-8") as stream:
                        header, *rows = csv.reader(stream)
                    assert all(len(row) == len(header) for row in rows), name
                _assert_conserved(root / mode)
            if code == 1:
                lines = err.splitlines()
                assert ERROR_LINE.match(lines[-1]), err
                assert not any(line.startswith("error") for line in lines[:-1]), err
