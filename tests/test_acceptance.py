"""Acceptance suite: one test per release criterion.

Each test prints a `[acceptance] criterion N (...): PASS` line when its
assertions hold (run with `pytest -s tests/test_acceptance.py` to see
them). The generated-bundle corpus is shared across the conservation,
oracle-equivalence and graph-conservation criteria, which also run on a
copy of it with avoided-burden credits (negative amounts).
"""

import functools
import json
import time
from decimal import Decimal

import pytest

from susmine import (
    ComponentKind,
    ComponentRef,
    FunctionalUnit,
    Quantity,
    build_report,
    load_literature_matrix,
    parse_annotations,
    parse_ocel,
    run_pipeline,
)
from susmine.allocation import allocation_weights
from susmine.cli import main
from susmine.fixtures import fixture_path
from susmine.generator import generate_bundle
from susmine.inventory import rollup_inventory
from susmine.scoping import scoped_total

from conftest import rel_close
from extend import LEVEL_ORDER, extend_annotations, signed
from oracles import flat_impact_totals, flat_inventory_totals

CORPUS_SEEDS = 220  # criterion 3 requires >= 200


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number} ({name}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number} ({name}): PASS")
            return result

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def corpus():
    """220 seeded bundles up to 200 events, each run through the full
    pipeline once; build time is charged to criterion 3's budget."""
    start = time.perf_counter()
    items = []
    for seed in range(CORPUS_SEEDS):
        size = 10 + (seed * 7) % 191  # 10..200 events
        gb = generate_bundle(seed, size)
        log = parse_ocel(gb.log_json)
        bundle = parse_annotations(gb.annotations_json)
        result = run_pipeline(log, bundle)
        items.append((gb, log, bundle, result))
    return items, time.perf_counter() - start


@pytest.fixture(scope="module")
def signed_corpus():
    """The corpus's bundles with a seeded 40% of their assignment amounts
    negated. Every tenth also repeats its first assignment negated, so
    that the two cancel exactly in the inventory. Each item carries the
    oracle's sum of absolute terms per (category, scope): a total that
    cancels has no relative error, so tolerances scale with that sum."""
    items = []
    for seed in range(CORPUS_SEEDS):
        gb = generate_bundle(seed, 10 + (seed * 7) % 191)
        log_doc = json.loads(gb.log_json)
        ann_doc = signed(json.loads(gb.annotations_json), seed)
        if seed % 10 == 0:
            first = ann_doc["assignments"][0]
            ann_doc["assignments"].append(dict(first, amount=str(-Decimal(first["amount"]))))
        result = run_pipeline(parse_ocel(gb.log_json), parse_annotations(json.dumps(ann_doc)))
        items.append((seed, log_doc, ann_doc, result, flat_impact_totals(log_doc, ann_doc, magnitude=True)))
    return items


@criterion(1, "worked-example reproduction")
def test_criterion_1_worked_example_reproduction():
    start = time.perf_counter()
    log = parse_ocel(fixture_path("ocel/mineral_water.json").read_bytes())
    bundle = parse_annotations(fixture_path("annotations/mineral_water.json").read_bytes())
    result = run_pipeline(log, bundle)
    e1 = result.post_allocation[ComponentRef(ComponentKind.ACTIVITY_INSTANCE, "e1")]
    # exact figures for the annotated activity instance
    assert e1[("climate_change", "scope1")] == Quantity(5.0, "kg CO2e")
    assert e1[("climate_change", "scope3")] == Quantity(30.0, "kg CO2e")
    assert e1[("ozone_depletion", "scope1")] == Quantity(3.0, "kg CFCe")
    assert e1[("work_accidents", "scope1")] == Quantity(0.00001, "count")
    assert e1[("work_accidents", "scope3")] == Quantity(0.00001, "count")
    # and the bundle's report totals coincide with them
    totals = scoped_total(result.post_allocation)
    assert totals[("climate_change", "scope1")].amount == 5.0
    assert totals[("climate_change", "scope3")].amount == 30.0
    assert time.perf_counter() - start < 1.0


EXPECTED_LITERATURE = {
    "Houy et al.": ["full", "none", "none", "none", "none", "none", "none", "none"],
    "Hoesch-Klohe et al.": ["full", "full", "none", "none", "half", "none", "none", "full"],
    "Recker et al.": ["full", "full", "none", "none", "full", "none", "none", "full"],
    "Wesumperuma et al.": ["full", "full", "none", "none", "full", "none", "none", "full"],
    "Zhu et al.": ["full", "none", "none", "none", "none", "none", "none", "none"],
    "Betz": ["none", "full", "full", "full", "full", "full", "full", "none"],
}

COLUMNS = ["AP1", "AP2-Climate", "AP2-Env", "AP2-Social", "AP3-Climate", "AP3-Env", "AP3-Social", "AP4"]


@criterion(2, "literature matrix fidelity")
def test_criterion_2_literature_matrix(tmp_path, capsys):
    start = time.perf_counter()
    assert main(["audit", "--literature", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    emitted = json.loads((tmp_path / "audit.json").read_text())
    assert emitted["columns"] == COLUMNS
    rows = {r["approach"]: r["cells"] for r in emitted["rows"]}
    assert list(rows) == list(EXPECTED_LITERATURE)
    for approach, cells in EXPECTED_LITERATURE.items():
        assert rows[approach] == dict(zip(COLUMNS, cells)), approach
    # library surface agrees cell for cell
    matrix = load_literature_matrix()
    for name, row_cells in matrix.rows:
        assert [row_cells[c].value for c in COLUMNS] == EXPECTED_LITERATURE[name]
    assert time.perf_counter() - start < 1.0


@criterion(3, "conservation suite")
def test_criterion_3_conservation(corpus):
    items, build_seconds = corpus
    start = time.perf_counter()
    assert len(items) >= 200
    for gb, log, bundle, result in items:
        before = scoped_total(result.scoped)
        after = scoped_total(result.post_allocation)
        assert set(after) == set(before)
        for key, q in before.items():
            assert rel_close(after[key].amount, q.amount, 1e-9), (gb.seed, key)
        al = result.al
        for rule in al.rules:
            weights, _ = allocation_weights(rule, al)
            assert all(w >= 0 for w in weights.values()), gb.seed
            assert abs(sum(weights.values()) - 1.0) <= 1e-12, gb.seed
    elapsed = build_seconds + (time.perf_counter() - start)
    assert elapsed < 60.0, f"conservation suite took {elapsed:.1f}s"


@criterion(4, "oracle equivalence")
def test_criterion_4_oracle_equivalence(corpus):
    items, _ = corpus
    for gb, log, bundle, result in items:
        log_doc = json.loads(gb.log_json)
        ann_doc = json.loads(gb.annotations_json)

        proc = rollup_inventory(result.al, ComponentKind.PROCESS)
        got_inv = {(k.flow, k.direction.value, k.scope): q.amount for k, q in proc.entries.items()}
        want_inv = flat_inventory_totals(log_doc, ann_doc)
        assert got_inv == want_inv, gb.seed

        got_imp = {key: q.amount for key, q in scoped_total(result.scoped).items()}
        want_imp = flat_impact_totals(log_doc, ann_doc)
        assert set(got_imp) == set(want_imp), gb.seed
        for key in got_imp:
            assert rel_close(got_imp[key], want_imp[key], 1e-9), (gb.seed, key)


@criterion(5, "functional-unit linearity")
def test_criterion_5_functional_unit_linearity():
    gb = generate_bundle(97, 120)
    log = parse_ocel(gb.log_json)
    bundle = parse_annotations(gb.annotations_json)

    def per_fu(reference):
        fu = FunctionalUnit("order", Quantity(Decimal(str(reference)), "count"))
        report = build_report(run_pipeline(log, bundle, fu=fu))
        section = report["functional_unit"]
        inventory = {
            (e["component_kind"], e["component_id"], e["flow"], e["direction"], e["scope"]):
                Decimal(e["amount"])
            for e in section["inventory_per_fu"]
        }
        impacts = {
            (category, scope): v["amount"]
            for category, scopes in section["impacts_per_fu"].items()
            for scope, v in scopes.items()
        }
        return inventory, impacts

    base_inv, base_imp = per_fu(1)
    assert base_inv and base_imp
    for k in (Decimal("0.5"), Decimal(2), Decimal(10)):
        inv_k, imp_k = per_fu(k)
        for key, amount in base_inv.items():
            want = amount * k
            assert abs(inv_k[key] - want) <= Decimal("1e-12") * max(abs(want), Decimal(1)), key
        for key, amount in base_imp.items():
            want = amount * float(k)
            assert rel_close(imp_k[key], want, 1e-12), key


@criterion(6, "graph conservation")
def test_criterion_6_dfg_conservation(corpus):
    items, _ = corpus
    for gb, log, bundle, result in items:
        node_events = sum(n.event_count for n in result.dfg.nodes.values())
        assert node_events == len(log.events), gb.seed

        node_climate = 0.0
        for node in result.dfg.nodes.values():
            for (category, _scope), q in node.vector.items():
                if category == "climate_change":
                    node_climate += q.amount
        process_climate = sum(
            q.amount for (category, _s), q in scoped_total(result.post_allocation).items()
            if category == "climate_change"
        )
        assert rel_close(node_climate, process_climate, 1e-9), gb.seed


@criterion(3, "conservation suite with credits")
def test_criterion_3_conservation_with_credits(signed_corpus):
    for seed, _, _, result, magnitude in signed_corpus:
        before = scoped_total(result.scoped)
        after = scoped_total(result.post_allocation)
        assert set(after) == set(before)
        for key, q in before.items():
            assert abs(after[key].amount - q.amount) <= 1e-9 * magnitude[key], (seed, key)
        al = result.al
        for rule in al.rules:
            weights, _ = allocation_weights(rule, al)
            assert all(w >= 0 for w in weights.values()), seed
            assert abs(sum(weights.values()) - 1.0) <= 1e-12, seed


@criterion(4, "oracle equivalence with credits")
def test_criterion_4_oracle_equivalence_with_credits(signed_corpus):
    cancelled = 0
    for seed, log_doc, ann_doc, result, magnitude in signed_corpus:
        cancelled += sum(1 for q in result.inventory.entries.values() if q.amount == 0)
        proc = rollup_inventory(result.al, ComponentKind.PROCESS)
        got_inv = {(k.flow, k.direction.value, k.scope): q.amount for k, q in proc.entries.items()}
        assert got_inv == flat_inventory_totals(log_doc, ann_doc), seed

        got_imp = {key: q.amount for key, q in scoped_total(result.scoped).items()}
        want_imp = flat_impact_totals(log_doc, ann_doc)
        assert set(got_imp) == set(want_imp), seed
        for key in got_imp:
            assert abs(got_imp[key] - want_imp[key]) <= 1e-9 * magnitude[key], (seed, key)
    assert cancelled  # some inventory cell is exactly zero


@criterion(6, "graph conservation with credits")
def test_criterion_6_dfg_conservation_with_credits(signed_corpus):
    for seed, log_doc, _, result, magnitude in signed_corpus:
        node_events = sum(n.event_count for n in result.dfg.nodes.values())
        assert node_events == len(log_doc["events"]), seed
        node_climate = sum(
            q.amount for node in result.dfg.nodes.values()
            for (category, _s), q in node.vector.items() if category == "climate_change"
        )
        process_climate = sum(
            q.amount for (category, _s), q in scoped_total(result.post_allocation).items()
            if category == "climate_change"
        )
        bound = 1e-9 * sum(m for (category, _s), m in magnitude.items() if category == "climate_change")
        assert abs(node_climate - process_climate) <= bound, seed


@criterion(7, "byte-identical artifacts")
def test_criterion_7_determinism(tmp_path):
    gen = tmp_path / "gen"
    assert main(["generate", "--seed", "64", "--size", "80", "--out", str(gen)]) == 0
    pairs = []
    for inputs in (
        (fixture_path("ocel/mineral_water.json"), fixture_path("annotations/mineral_water.json")),
        (gen / "log.json", gen / "annotations.json"),
    ):
        outs = []
        for run_dir in ("a", "b"):
            out = tmp_path / f"{inputs[0].stem}-{run_dir}"
            code = main(["assess", "--log", str(inputs[0]),
                         "--annotations", str(inputs[1]), "--out", str(out)])
            assert code == 0
            outs.append(out)
        pairs.append(outs)
    for first, second in pairs:
        for name in ("report.json", "ledger.csv", "dfg.dot",
                     "inventory.csv", "impacts.csv", "impacts_scoped.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


@criterion(8, "audit monotonicity")
def test_criterion_8_audit_monotonicity():
    checked = 0
    for seed in range(50):
        gb = generate_bundle(seed, 10 + (seed * 3) % 60)
        log = parse_ocel(gb.log_json)
        base = run_pipeline(log, parse_annotations(gb.annotations_json))
        extended_doc = extend_annotations(gb, seed + 5000)
        extended = run_pipeline(log, parse_annotations(extended_doc))
        for col, level in base.audit_row.items():
            assert LEVEL_ORDER.index(extended.audit_row[col]) >= LEVEL_ORDER.index(level), (seed, col)
        checked += 1
    assert checked == 50
