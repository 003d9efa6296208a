import gc
import json
import re

import pytest

from susmine import cli
from susmine.annotations import SCOPE_PRESETS, ScopeSet
from susmine.audit import CapabilityMatrix
from susmine.cli import GC_GEN0_THRESHOLD, main
from susmine.dfg import build_dfg, emit_dot
from susmine.fixtures import fixture_path, load_manifest
from susmine.generator import generate_bundle
from susmine.errors import SusmineError
from susmine.ocel import parse_ocel
from susmine.pipeline import run_pipeline
from susmine.report import OUTPUT_FILES

from conftest import make_log_doc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def generated(tmp_path):
    out = tmp_path / "gen"
    assert main(["generate", "--seed", "5", "--size", "40", "--out", str(out)]) == 0
    return out


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--log", str(fixture_path("ocel/minimal.json")))
    assert code == 0
    assert "no violations" in out


def test_validate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "validate", "--log", str(bad))
    assert code == 2
    assert "malformed JSON" in err


@pytest.mark.parametrize("object_id", ["two\nlines", "carriage\rreturn", "line\u2028separator"])
def test_an_error_quoting_a_line_break_is_one_line(object_id, tmp_path, capsys):
    log = tmp_path / "log.json"
    log.write_text(json.dumps(make_log_doc(
        events=[("e1", "fill", "2024-01-01T00:00:00Z", [(object_id, "uses")], {})])))
    code, out, err = run(capsys, "dfg", "--log", str(log))
    escaped = repr(object_id)[1:-1]
    assert (code, out) == (1, "")
    assert err == (f"error [load-log]: log integrity violations: [dangling_relation_object] {escaped}: "
                   f"relation references missing object '{escaped}'\n")


#: Nesting deeper than the JSON decoder's recursion limit.
_NESTED = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("flag", ["log", "annotations", "scopes", "config"])
def test_nesting_too_deep_is_malformed_json(flag, tmp_path, capsys, demo_log_path, demo_bundle_path):
    nested = tmp_path / "nested.json"
    nested.write_text(_NESTED)
    paths = {"log": str(demo_log_path), "annotations": str(demo_bundle_path), flag: str(nested)}
    argv = ["assess", "--out", str(tmp_path / "out")] + [f"--{name}={path}" for name, path in paths.items()]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert re.match(r"error( \[[a-z-]+\])?: malformed JSON: ", err), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("load", [
    lambda root: CapabilityMatrix.from_json(_NESTED),
    load_manifest,
], ids=["matrix", "manifest"])
def test_a_matrix_or_manifest_nested_too_deep_is_malformed_json(load, tmp_path):
    (tmp_path / "MANIFEST.json").write_text(_NESTED)
    with pytest.raises(json.JSONDecodeError, match="nesting too deep to decode"):
        load(tmp_path)


@pytest.mark.parametrize("command", ["validate", "assess"])
@pytest.mark.parametrize("time", ["9999-12-31T23:59:59-23:59", "0001-01-01T00:00:00+23:59"])
def test_event_time_beyond_the_utc_range_is_a_load_error(command, time, tmp_path, capsys):
    doc = json.loads(fixture_path("ocel/minimal.json").read_text())
    doc["events"][0]["time"] = time
    log = tmp_path / "log.json"
    log.write_text(json.dumps(doc))
    argv = [command, "--log", str(log)] + (["--out", str(tmp_path / "out")] if command == "assess" else [])
    code, out, err = run(capsys, *argv)
    event = doc["events"][0]["id"]
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert err == f"error [load-log]: event '{event}': unparseable time '{time}'\n"


_ANALYSIS_FLAGS = ["--log", "--annotations", "--scopes", "--out"]


@pytest.mark.parametrize("command, flags", [
    ("validate", ["--log"]),
    ("assess", [*_ANALYSIS_FLAGS, "--fu"]),
    ("inventory", [*_ANALYSIS_FLAGS, "--fu"]),
    ("allocate", _ANALYSIS_FLAGS),
    ("dfg", _ANALYSIS_FLAGS),
    ("audit", [*_ANALYSIS_FLAGS, "--literature"]),
    ("generate", ["--out", "--seed", "--size"]),
])
def test_every_command_help_lists_its_flags(command, flags, capsys):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: susmine {command} ")
    modes = [] if command == "generate" else ["--mode"]  # generate neither ingests nor analyses
    assert set(re.findall(r"--[a-z]+", out)) == {"--help", *flags, *modes, "--config"}


@pytest.mark.parametrize("flags, message", [
    ({"fu": "order:0"}, "error: functional unit reference amount must be a positive decimal"),
    ({"config": [1]}, "error: --config file must contain a JSON object"),
    ({"log": None}, "error [load-log]: --log is required"),
], ids=["fu-zero", "config-array", "no-log"])
def test_usage_errors_exit_2_before_writing(flags, message, tmp_path, capsys, demo_log_path, demo_bundle_path):
    values = {"log": str(demo_log_path), "annotations": str(demo_bundle_path), "out": str(tmp_path / "out"),
              **flags}
    if "config" in values:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values["config"]))
        values["config"] = str(config)
    code, out, err = run(capsys, "assess", *(f"--{flag}={value}" for flag, value in values.items() if value))
    assert (code, out, err) == (2, "", message + "\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, code, err", [
    ("strict", 1, "error [allocation]: target activity_type:deliver_order lacks numeric attribute 'mass_kg'"
                  " required by key 'mass'\n"),
    ("lenient", 0, "warning: object_instance:machine1: target activity_type:deliver_order lacks 'mass_kg',"
                   " weighted 0\n"),
], ids=["strict", "lenient"])
def test_allocate_weighs_a_type_level_target_by_no_attribute(mode, code, err, tmp_path, capsys,
                                                             demo_log_path, machine_bundle_path):
    doc = json.loads(machine_bundle_path.read_text())
    doc["allocations"][0].update(key="mass", targets=[
        {"kind": "activity_instance", "id": "e2"}, {"kind": "activity_type", "id": "deliver_order"},
    ])
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    status, out, stderr = run(capsys, "allocate", "--mode", mode, "--log", str(demo_log_path),
                              "--annotations", str(bundle))
    assert (status, stderr) == (code, err)
    if code == 0:  # the whole transfer lands on the one target with a mass
        assert out.splitlines() == [
            "source_kind,source_id,target_kind,target_id,category,scope,amount,weight",
            "object_instance,machine1,activity_instance,e2,climate_change,scope3,30.0,1.0",
            "object_instance,machine1,activity_type,deliver_order,climate_change,scope3,0.0,0.0",
        ]


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "--log", "/no/such/file.json")
    assert code == 2


def test_validate_dangling_relation_modes(capsys):
    path = str(fixture_path("ocel/invalid_dangling_relation.json"))
    code, out, _ = run(capsys, "validate", "--log", path)
    assert code == 1
    assert "o9" in out
    code, out, _ = run(capsys, "validate", "--log", path, "--mode", "lenient")
    assert code == 0
    assert "warning" in out


@pytest.mark.parametrize("command", ["assess", "dfg"])
def test_lenient_analysis_reports_demoted_log_violations(command, tmp_path, capsys, demo_log_path,
                                                         demo_bundle_path):
    log_doc = json.loads(demo_log_path.read_text())
    log_doc["events"][0]["relationships"].append({"objectId": "ghost", "qualifier": "uses"})
    log = tmp_path / "log.json"
    log.write_text(json.dumps(log_doc))
    argv = [command, "--log", str(log), "--annotations", str(demo_bundle_path)]
    if command == "assess":
        argv += ["--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv, "--mode", "lenient")
    assert code == 0, err
    warning = "warning: [dangling_relation_object] ghost: relation references missing object 'ghost'"
    assert err == warning + "\n"
    # the text validate prints for the same violation
    _, validated, _ = run(capsys, "validate", "--log", str(log), "--mode", "lenient")
    assert validated.splitlines()[0] == warning
    # stdout and the artifacts are those of the log without the relation
    clean = [command, "--log", str(demo_log_path), "--annotations", str(demo_bundle_path), "--mode", "lenient"]
    if command == "assess":
        clean += ["--out", str(tmp_path / "clean")]
    _, clean_out, clean_err = run(capsys, *clean)
    assert clean_err == ""
    if command == "assess":
        for name in OUTPUT_FILES:
            if name != "report.json":  # whose log digest differs
                assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
    else:
        assert out == clean_out
    # strict mode still refuses the log
    code, out, err = run(capsys, *argv, "--mode", "strict")
    assert (code, out) == (1, "")
    assert err == f"error [load-log]: log integrity violations: {warning.removeprefix('warning: ')}\n"


def test_assess_writes_all_artifacts(tmp_path, capsys, demo_log_path, demo_bundle_path):
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys, "assess",
        "--log", str(demo_log_path),
        "--annotations", str(demo_bundle_path),
        "--out", str(out),
    )
    assert code == 0
    for name in ("report.json", "inventory.csv", "impacts.csv", "impacts_scoped.csv", "ledger.csv", "dfg.dot"):
        assert (out / name).is_file()
    report = json.loads((out / "report.json").read_text())
    climate = report["impacts"]["process_totals"]["climate_change"]["by_scope"]
    assert climate["scope1"]["amount"] == 5.0
    assert climate["scope3"]["amount"] == 30.0


def test_assess_is_idempotent_byte_identical(tmp_path, capsys, demo_log_path, demo_bundle_path):
    out = tmp_path / "out"
    args = ["assess", "--log", str(demo_log_path), "--annotations", str(demo_bundle_path), "--out", str(out)]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_assess_empty_annotations_all_zero(tmp_path, capsys, demo_log_path):
    bundle = tmp_path / "empty.json"
    bundle.write_text(json.dumps({"schema": "susmine/1", "scopes": "ghg"}))
    out = tmp_path / "out"
    code, _, _ = run(capsys, "assess", "--log", str(demo_log_path),
                     "--annotations", str(bundle), "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["impacts"]["process_totals"] == {}
    assert report["audit"]["AP1"] == "none"


def test_assess_missing_factor_names_flow_and_stage(tmp_path, capsys, generated):
    doc = json.loads((generated / "annotations.json").read_text())
    doc["characterization"]["factors"] = [
        f for f in doc["characterization"]["factors"] if f["flow"] != "CO2"
    ]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, _, err = run(capsys, "assess", "--log", str(generated / "log.json"),
                       "--annotations", str(broken), "--out", str(tmp_path / "x"))
    assert code == 1
    assert "CO2" in err
    assert "[characterization]" in err


def test_generate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--seed", "9", "--size", "25", "--out", str(a)]) == 0
    b.mkdir()  # into an existing directory too
    assert main(["generate", "--seed", "9", "--size", "25", "--out", str(b)]) == 0
    names = ["log.json", "annotations.json", "ground_truth.json"]
    assert capsys.readouterr().out == "".join(f"wrote {d / name}\n" for d in (a, b) for name in names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # the staging directory is gone from both
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]
    assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir()) == sorted(names)


def test_generate_requires_seed(capsys):
    code, _, err = run(capsys, "generate")
    assert code == 2
    assert "--seed" in err


@pytest.mark.parametrize("argv, message", [
    (["--seed", "x"], "--seed must be an integer, got 'x'"),
    (["--seed", "x", "--size", "y"], "--seed must be an integer, got 'x'"),
    (["--seed", "3", "--size", "x"], "--size must be an integer, got 'x'"),
    (["--seed", "3", "--size", "1.5"], "--size must be an integer, got '1.5'"),
], ids=["seed", "seed-first", "size", "size-fraction"])
def test_generate_integer_flags_name_the_flag(argv, message, tmp_path, capsys):
    code, out, err = run(capsys, "generate", *argv, "--out", str(tmp_path / "gen"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "gen").exists()


def test_generate_size_zero(tmp_path):
    out = tmp_path / "zero"
    assert main(["generate", "--seed", "1", "--size", "0", "--out", str(out)]) == 0
    assert main(["validate", "--log", str(out / "log.json")]) == 0


def test_generated_bundle_through_assess_matches_ground_truth(tmp_path, capsys, generated):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "assess", "--log", str(generated / "log.json"),
                     "--annotations", str(generated / "annotations.json"), "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    truth = json.loads((generated / "ground_truth.json").read_text())
    for row in truth["impact_totals"]:
        got = report["impacts"]["process_totals"][row["category"]]["by_scope"][row["scope"]]["amount"]
        assert abs(got - row["amount"]) <= 1e-9 * max(abs(row["amount"]), 1e-30)


def assert_out_file_equals_stdout(capsys, tmp_path, argv, filename, stdout):
    """``argv`` with ``--out`` writes ``stdout``'s bytes into ``filename``,
    names it on stdout and leaves no staging directory behind."""
    out = tmp_path / "out"
    code, printed, err = run(capsys, *argv, "--out", str(out))
    assert (code, printed) == (0, f"wrote {out / filename}\n"), err
    assert [p.name for p in out.iterdir()] == [filename]
    assert (out / filename).read_bytes() == stdout.encode("utf-8")
    assert not list(tmp_path.glob(".susmine-*"))
    (out / filename).unlink()
    out.rmdir()


def test_inventory_subcommand_stdout(tmp_path, capsys, demo_log_path, demo_bundle_path):
    argv = ["inventory", "--log", str(demo_log_path), "--annotations", str(demo_bundle_path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("component_kind,")
    assert "activity_instance,e1,CO2,output,scope1,5,kg" in out
    assert_out_file_equals_stdout(capsys, tmp_path, argv, "inventory.csv", out)

    fu_argv = [*argv, "--fu", "bottle:1"]
    code, fu_out, _ = run(capsys, *fu_argv)
    assert code == 0
    assert fu_out.startswith("component_kind,") and fu_out != out
    assert_out_file_equals_stdout(capsys, tmp_path, fu_argv, "inventory.csv", fu_out)


def test_allocate_subcommand(tmp_path, capsys, demo_log_path, machine_bundle_path):
    argv = ["allocate", "--log", str(demo_log_path), "--annotations", str(machine_bundle_path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.count("machine1") == 3
    assert_out_file_equals_stdout(capsys, tmp_path, argv, "ledger.csv", out)


def test_dfg_subcommand_without_annotations(tmp_path, capsys, orders_log_path, demo_log_path,
                                            machine_bundle_path):
    code, out, _ = run(capsys, "dfg", "--log", str(orders_log_path))
    assert code == 0
    assert out.startswith("digraph {")
    assert '"ship_order" -> "deliver_order"' in out
    assert_out_file_equals_stdout(capsys, tmp_path, ["dfg", "--log", str(orders_log_path)], "dfg.dot", out)

    annotated = ["dfg", "--log", str(demo_log_path), "--annotations", str(machine_bundle_path)]
    code, out, _ = run(capsys, *annotated)
    assert code == 0
    assert_out_file_equals_stdout(capsys, tmp_path, annotated, "dfg.dot", out)


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize("log_name", ["orders", "generated"])
def test_dfg_without_annotations_prints_the_bare_graph(log_name, mode, tmp_path, capsys, orders_log_path):
    if log_name == "orders":
        path = orders_log_path
    else:
        path = tmp_path / "log.json"
        path.write_text(generate_bundle(3, 300).log_json)
    code, out, _ = run(capsys, "dfg", "--log", str(path), "--mode", mode)
    assert code == 0
    assert out == emit_dot(build_dfg(parse_ocel(path.read_bytes(), strict=(mode == "strict"))))


def test_audit_literature_matches_fixture(capsys):
    code, out, _ = run(capsys, "audit", "--literature")
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 7  # header + six approaches
    assert lines[1].startswith("Houy et al.")
    assert "half" in out  # Hoesch-Klohe AP3-Climate


@pytest.mark.parametrize("flag", ["log", "annotations", "scopes"])
@pytest.mark.parametrize("via_config", [False, True])
def test_audit_literature_rejects_bundle_flags(flag, via_config, tmp_path, capsys):
    # the files do not exist: the check comes before anything is read
    argv = ["audit", "--literature", "--out", str(tmp_path / "out")]
    if via_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag: "/no/such.json"}))
        argv += ["--config", str(config)]
    else:
        argv += [f"--{flag}", "/no/such.json"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --literature takes no --log, --annotations or --scopes\n"
    assert not (tmp_path / "out").exists()


def test_audit_bundle_row(tmp_path, capsys, demo_log_path, demo_bundle_path):
    argv = ["audit", "--log", str(demo_log_path), "--annotations", str(demo_bundle_path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "mineral_water" in out
    assert "full" in out

    target = tmp_path / "out"
    code, printed, _ = run(capsys, *argv, "--out", str(target))
    assert (code, printed) == (0, f"{out}wrote {target / 'audit.json'}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert [p.name for p in target.iterdir()] == ["audit.json"]
    matrix = CapabilityMatrix.from_json((target / "audit.json").read_text(encoding="utf-8"))
    assert matrix.render_text() == out


def test_config_file_supplies_flags_and_flags_win(tmp_path, capsys, demo_log_path, demo_bundle_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "log": str(demo_log_path),
        "annotations": str(demo_bundle_path),
        "mode": "strict",
    }))
    code, out, _ = run(capsys, "validate", "--config", str(config))
    assert code == 0
    # flag beats config: point config at a broken log, flag at the good one
    config.write_text(json.dumps({"log": "/no/such.json"}))
    code, out, _ = run(capsys, "validate", "--config", str(config),
                       "--log", str(demo_log_path))
    assert code == 0


@pytest.mark.parametrize("config, key", [
    ({"fu": 5}, "fu"),
    ({"log": 5}, "log"),
    ({"out": ["x"]}, "out"),
    ({"mode": None}, "mode"),
    ({"seed": True}, "seed"),
    ({"size": 2.5}, "size"),
])
def test_config_values_of_the_wrong_type_are_usage_errors(config, key, tmp_path, capsys,
                                                          demo_log_path, demo_bundle_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path), "--annotations", str(demo_bundle_path),
                       "--out", str(tmp_path / "out"), "--config", str(path))
    assert code == 2
    assert err.startswith(f"error: --config key '{key}' must be a string")
    assert not (tmp_path / "out").exists()


def test_config_mode_is_strict_or_lenient(tmp_path, capsys, demo_log_path, demo_bundle_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "fast"}))
    code, out, err = run(capsys, "assess", "--log", str(demo_log_path), "--annotations", str(demo_bundle_path),
                         "--out", str(tmp_path / "out"), "--config", str(path))
    assert (code, out) == (2, "")
    assert err == "error: --config key 'mode' must be 'strict' or 'lenient', got \"fast\"\n"
    assert not (tmp_path / "out").exists()


def test_config_unknown_keys_are_usage_errors(tmp_path, capsys):
    # a misspelled "mode" must not leave the run strict without a word
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"log": str(fixture_path("ocel/invalid_dangling_relation.json")),
                                "mdoe": "lenient", "Out": "x"}))
    code, out, err = run(capsys, "validate", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == "error: --config has unknown key(s) ['Out', 'mdoe']\n"
    path.write_text(json.dumps({"m" * 5000: "lenient"}))
    code, out, err = run(capsys, "validate", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: --config has unknown key(s) ['{'m' * 24}... (5000 characters)']\n"


def test_config_keys_of_other_subcommands_are_accepted(tmp_path, capsys, demo_log_path, demo_bundle_path):
    # one file serves every subcommand: assess takes no --seed, generate no --log
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"log": str(demo_log_path), "annotations": str(demo_bundle_path),
                                "seed": 5, "size": 10, "out": str(tmp_path / "out")}))
    code, _, _ = run(capsys, "assess", "--config", str(path))
    assert code == 0
    code, _, _ = run(capsys, "generate", "--config", str(path), "--out", str(tmp_path / "gen"))
    assert code == 0
    assert (tmp_path / "out" / "report.json").exists() and (tmp_path / "gen" / "log.json").exists()


def test_config_seed_and_size_may_be_integers(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 5, "size": 40, "out": str(tmp_path / "gen")}))
    code, _, _ = run(capsys, "generate", "--config", str(path))
    assert code == 0
    assert (tmp_path / "gen" / "log.json").exists()


def test_fu_flag(tmp_path, capsys, demo_log_path, demo_bundle_path):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "assess", "--log", str(demo_log_path),
                     "--annotations", str(demo_bundle_path), "--out", str(out),
                     "--fu", "bottle:1")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["functional_unit"]["object_type"] == "bottle"


def test_fu_flag_bad_syntax(capsys, demo_log_path, demo_bundle_path, tmp_path):
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                       "--annotations", str(demo_bundle_path),
                       "--out", str(tmp_path), "--fu", "bottle")
    assert code == 2
    assert "--fu" in err

    # amounts follow the bundle's number rules: finite, and within float range
    for amount in ("NaN", "sNaN", "Infinity", "-inf", "1e999999", "1e400"):
        for command in ("assess", "inventory"):
            code, out, err = run(capsys, command, "--log", str(demo_log_path),
                                 "--annotations", str(demo_bundle_path),
                                 "--out", str(tmp_path / "out"), "--fu", f"order:{amount}")
            assert (code, out) == (2, "")
            assert err == f"error: --fu amount '{amount}' is not a finite number within float range\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fu, code, message", [
    ("t" * 5000 + ":1", 1, f"error [functional-unit]: unknown object type '{'t' * 24}... (5000 characters)'"),
    ("t" * 5000, 2, f"error: --fu expects <object_type>:<amount>, got '{'t' * 24}... (5000 characters)'"),
    ("order:" + "t" * 5000, 2, f"error: --fu amount '{'t' * 24}... (5000 characters)' is not a number"),
    ("order:1" + "0" * 5000, 2, f"error: --fu amount '1{'0' * 23}... (5001 digits)' is not a finite number"),
], ids=["object-type", "syntax", "not-a-number", "beyond-float-range"])
def test_long_fu_literals_are_abbreviated(fu, code, message, capsys, demo_log_path, demo_bundle_path, tmp_path):
    status, out, err = run(capsys, "assess", "--log", str(demo_log_path), "--annotations", str(demo_bundle_path),
                           "--out", str(tmp_path / "out"), "--fu", fu)
    assert (status, out) == (code, "")
    assert err.startswith(message)
    assert len(err) < 200
    assert not (tmp_path / "out").exists()


def test_scopes_override_flag(tmp_path, capsys, demo_log_path, demo_bundle_path):
    # demo bundle uses ghg labels; forcing the lca preset must fail data validation
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                       "--annotations", str(demo_bundle_path),
                       "--out", str(tmp_path / "o"), "--scopes", "lca")
    assert code == 1
    assert "scope" in err.lower()


def test_scopes_file_holding_null_is_a_data_error(tmp_path, capsys, demo_log_path, demo_bundle_path):
    # null is no scope set: it must not fall back to the ghg preset
    scopes = tmp_path / "scopes.json"
    scopes.write_text("null")
    code, out, err = run(capsys, "assess", "--log", str(demo_log_path), "--annotations", str(demo_bundle_path),
                         "--out", str(tmp_path / "out"), "--scopes", str(scopes))
    assert (code, out) == (1, "")
    assert err == "error [parse-annotations]: 'scopes' must be a preset name or {name, scopes}, got null\n"
    assert not (tmp_path / "out").exists()


def test_scopes_flag_reads_every_preset(tmp_path, capsys, monkeypatch, demo_log_path, demo_bundle_path):
    # a preset added to the library is a --scopes name, not a file to open
    monkeypatch.setitem(SCOPE_PRESETS, "site", ScopeSet("site", ("scope1", "scope2", "scope3", "offsite")))
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path), "--annotations", str(demo_bundle_path),
                       "--out", str(tmp_path / "out"), "--scopes", "site")
    assert code == 0, err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scope_set"] == {"name": "site", "scopes": ["scope1", "scope2", "scope3", "offsite"]}


@pytest.mark.parametrize("command", ["dfg", "assess"])
@pytest.mark.parametrize("via_config", [False, True])
def test_scopes_without_annotations_is_a_usage_error(command, via_config, tmp_path, capsys, demo_log_path):
    # the scope file does not exist: the check comes before anything is read
    argv = [command, "--log", str(demo_log_path), "--out", str(tmp_path / "out")]
    if via_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scopes": "/no/such.json"}))
        argv += ["--config", str(config)]
    else:
        argv += ["--scopes", "/no/such.json"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines()[0] == "error: --scopes requires --annotations"
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_generate_unwritable_output_exit_2(capsys):
    code, _, err = run(capsys, "generate", "--seed", "1", "--out", "/proc/susmine-nope")
    assert code == 2


@pytest.mark.parametrize("below", [False, True])
@pytest.mark.parametrize("command", ["assess", "inventory", "generate"])
def test_out_that_is_not_a_directory_gives_one_fixed_error(command, below, tmp_path, capsys,
                                                           demo_log_path, demo_bundle_path):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    out = blocker / "sub" if below else blocker
    if command == "generate":
        argv, prefix = ["generate", "--seed", "1"], "error [write-outputs]"
    else:
        argv = [command, "--log", str(demo_log_path), "--annotations", str(demo_bundle_path)]
        prefix = "error [write-outputs]"
    results = [run(capsys, *argv, "--out", str(out)) for _ in range(2)]
    assert results[0] == results[1] == (2, "", f"{prefix}: [Errno 20] Not a directory: '{blocker}'\n")
    assert ".susmine-" not in results[0][2]
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert blocker.read_text() == "keep"


def test_assess_reproduces_ground_truth_for_50_seeds(tmp_path):
    for seed in range(50):
        gen = tmp_path / f"g{seed}"
        out = tmp_path / f"o{seed}"
        assert main(["generate", "--seed", str(seed), "--size", str(10 + seed % 50),
                     "--out", str(gen)]) == 0
        assert main(["assess", "--log", str(gen / "log.json"),
                     "--annotations", str(gen / "annotations.json"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        truth = json.loads((gen / "ground_truth.json").read_text())
        totals = report["impacts"]["process_totals"]
        want_keys = {(r["category"], r["scope"]) for r in truth["impact_totals"]}
        got_keys = {
            (category, scope)
            for category, section in totals.items()
            for scope in section["by_scope"]
        }
        assert got_keys == want_keys, seed
        for row in truth["impact_totals"]:
            got = totals[row["category"]]["by_scope"][row["scope"]]["amount"]
            assert abs(got - row["amount"]) <= 1e-9 * max(abs(row["amount"]), 1e-30), (seed, row)
        # inventory totals: exact decimal match after re-aggregation
        from decimal import Decimal
        from collections import defaultdict

        agg = defaultdict(Decimal)
        for e in report["inventory"]["entries"]:
            agg[(e["flow"], e["direction"], e["scope"])] += Decimal(e["amount"])
        want_inv = {
            (r["flow"], r["direction"], r["scope"]): Decimal(r["amount"])
            for r in truth["inventory_totals"]
        }
        assert dict(agg) == want_inv, seed


def test_assess_names_annotation_stage(tmp_path, capsys, demo_log_path):
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                       "--annotations", str(fixture_path("annotations/invalid_unknown_scope.json")),
                       "--out", str(tmp_path / "x"))
    assert code == 1
    assert "parse-annotations" in err
    assert "scope9" in err


@pytest.mark.parametrize("command", ["inventory", "allocate", "dfg", "audit"])
def test_every_analysing_command_names_the_failed_stage(command, capsys, demo_log_path):
    code, _, err = run(capsys, command, "--log", str(demo_log_path),
                       "--annotations", str(fixture_path("annotations/invalid_unknown_scope.json")))
    assert code == 1
    assert err.startswith("error [parse-annotations]: "), err
    assert "scope9" in err


def test_assess_missing_bundle_names_its_stage(tmp_path, capsys, demo_log_path):
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                       "--annotations", "/no/such.json", "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith("error [parse-annotations]: "), err


def test_assess_rejects_boolean_amount(tmp_path, capsys, demo_log_path, machine_bundle_path):
    # JSON true is not a number: it must not silently become 1 kg
    doc = json.loads(machine_bundle_path.read_text())
    doc["assignments"][0]["amount"] = True
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                       "--annotations", str(bundle), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "error [parse-annotations]: assignment #0 amount: expected a number, got true\n" in err
    assert not (tmp_path / "out").exists()


def _assess_with_bottle_mass(tmp_path, capsys, demo_log_path, machine_bundle_path, literal):
    """assess with bottle b1's mass_kg written as the raw JSON number
    ``literal``, under a mass-keyed allocation onto the three bottles."""
    log_doc = json.loads(demo_log_path.read_text())
    bottle = next(o for o in log_doc["objects"] if o["id"] == "b1")
    bottle["attributes"] = [{"name": "mass_kg", "value": "@mass@"}]
    log = tmp_path / "log.json"
    log.write_text(json.dumps(log_doc).replace('"@mass@"', literal))
    bundle_doc = json.loads(machine_bundle_path.read_text())
    bundle_doc["allocations"][0]["targets"] = [
        {"kind": "object_instance", "id": b} for b in ("b1", "b2", "b3")
    ]
    bundle_doc["allocations"][0]["key"] = "mass"
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(bundle_doc))
    return run(capsys, "assess", "--log", str(log),
               "--annotations", str(bundle), "--out", str(tmp_path / "out"))


def test_assess_rejects_nan_attribute(tmp_path, capsys, demo_log_path, machine_bundle_path):
    code, _, err = _assess_with_bottle_mass(tmp_path, capsys, demo_log_path, machine_bundle_path, "NaN")
    assert code == 1
    assert err.startswith("error [load-log]: ")
    assert "NaN" in err


def test_assess_rejects_overflowing_attribute(tmp_path, capsys, demo_log_path, machine_bundle_path):
    # 1e400 is valid JSON but no float: it must not load as inf
    code, _, err = _assess_with_bottle_mass(tmp_path, capsys, demo_log_path, machine_bundle_path, "1e400")
    assert code == 1
    assert err.startswith("error [load-log]: ")
    assert "non-finite number '1e400'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("digits", [401, 5000])
def test_assess_rejects_integer_attribute_beyond_float_range(digits, tmp_path, capsys,
                                                             demo_log_path, machine_bundle_path):
    # 5000 digits is also past the digit limit of int()
    literal = "1" + "0" * (digits - 1)
    code, _, err = _assess_with_bottle_mass(tmp_path, capsys, demo_log_path, machine_bundle_path, literal)
    assert code == 1
    assert err.startswith("error [load-log]: ")
    assert f"non-finite number '{literal[:24]}... ({digits} digits)'" in err
    assert len(err) < 200
    assert not (tmp_path / "out").exists()


def test_assess_rejects_bundle_integer_beyond_float_range(tmp_path, capsys, demo_log_path, machine_bundle_path):
    literal = "1" + "0" * 4999
    bundle = tmp_path / "bundle.json"
    bundle.write_text(machine_bundle_path.read_text().replace('"amount": "30"', f'"amount": {literal}'))
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                       "--annotations", str(bundle), "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == ("error [parse-annotations]: assignment #0 amount: "
                   f"{literal[:24]}... (5000 digits) overflows a float\n")
    assert len(err) < 200


def test_assess_rejects_allocation_key_values_summing_beyond_float_range(tmp_path, capsys, demo_log_path,
                                                                         machine_bundle_path):
    # each 1e308 is a finite float, their sum is not: every weight would
    # read 0 and the machine's 30 kg CO2e would vanish from the totals
    log_doc = json.loads(demo_log_path.read_text())
    for event in log_doc["events"]:
        if event["id"] in ("e2", "e3", "e4"):
            event["attributes"] = [{"name": "mass_kg", "value": 1e308}]
    log = tmp_path / "log.json"
    log.write_text(json.dumps(log_doc))
    bundle_doc = json.loads(machine_bundle_path.read_text())
    bundle_doc["allocations"][0]["key"] = "mass"
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(bundle_doc))
    code, _, err = run(capsys, "assess", "--log", str(log),
                       "--annotations", str(bundle), "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error [allocation]: object_instance:machine1: 'mass_kg' values sum beyond float range")
    assert not (tmp_path / "out").exists()


def test_assess_rejects_related_events_from_a_non_object_source(tmp_path, capsys, demo_log_path,
                                                               machine_bundle_path):
    doc = json.loads(machine_bundle_path.read_text())
    doc["allocations"][0]["source"] = {"kind": "activity_type", "id": "fill_bottle"}
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                       "--annotations", str(bundle), "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == ("error [parse-annotations]: allocation #0: related_events selection requires an object_instance"
                   " source, got activity_type:fill_bottle\n")
    assert not (tmp_path / "out").exists()


def test_assess_rejects_a_repeated_allocation_source(tmp_path, capsys, demo_log_path, machine_bundle_path):
    doc = json.loads(machine_bundle_path.read_text())
    doc["allocations"].append(dict(doc["allocations"][0], key="mass"))
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                       "--annotations", str(bundle), "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == ("error [parse-annotations]: allocation #1: source object_instance:machine1 "
                   "is already named by allocation #0\n")
    assert not (tmp_path / "out").exists()


def test_assess_rejects_factors_that_are_not_an_array(tmp_path, capsys, demo_log_path, demo_bundle_path):
    doc = json.loads(demo_bundle_path.read_text())
    doc["characterization"]["factors"] = 5
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                       "--annotations", str(bundle), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "error [parse-annotations]: 'characterization': 'factors' must be an array, got 5\n" in err
    assert not (tmp_path / "out").exists()


def test_assess_rejects_a_misspelled_assignment_key(tmp_path, capsys, demo_log_path, demo_bundle_path):
    # "scop" would otherwise leave the flow unscoped with exit 0
    doc = json.loads(demo_bundle_path.read_text())
    doc["assignments"][0]["scop"] = doc["assignments"][0].pop("scope")
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                       "--annotations", str(bundle), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "error [parse-annotations]: assignment #0: unsupported key(s) ['scop']" in err
    assert not (tmp_path / "out").exists()


def test_assess_over_empty_instance_ids_names_the_type(tmp_path, capsys):
    # a lenient log keeps empty ids; expanding or allocating over one must
    # be a data error naming the type, not a crash
    log_doc = {
        "objectTypes": [{"name": "order"}, {"name": "machine"}],
        "eventTypes": [{"name": "pack"}],
        "objects": [{"id": "", "type": "order"}, {"id": "m1", "type": "machine"}],
        "events": [
            {"id": "e1", "type": "pack", "time": "2024-01-01T08:00:00Z"},
            {"id": "", "type": "pack", "time": "2024-01-01T09:00:00Z",
             "relationships": [{"objectId": "m1", "qualifier": "uses"}]},
        ],
    }
    log = tmp_path / "log.json"
    log.write_text(json.dumps(log_doc))
    per_instance = {"basis": "per_instance", "flow": "CO2", "direction": "output", "amount": 1, "unit": "kg"}
    cases = [
        ({"assignments": [{"component": {"kind": "activity_type", "id": "pack"}, **per_instance}]},
         "bind", "activity type 'pack' has an event with an empty id"),
        ({"assignments": [{"component": {"kind": "object_type", "id": "order"}, **per_instance}]},
         "bind", "object type 'order' has an object with an empty id"),
        ({"allocations": [{"source": {"kind": "object_instance", "id": "m1"}}]},
         "allocation", "activity type 'pack' has an event with an empty id"),
    ]
    # lenient ingest reports the log's violations as warnings before the run
    demoted = (
        "warning: [dangling_relation_event] : relation references missing event ''\n"
        "warning: [empty_event_id] : event with empty id\n"
        "warning: [empty_object_id] : object with empty id\n"
    )
    for i, (bundle_doc, stage, message) in enumerate(cases):
        bundle = tmp_path / f"bundle{i}.json"
        bundle.write_text(json.dumps({"schema": "susmine/1", **bundle_doc}))
        code, _, err = run(capsys, "assess", "--mode", "lenient", "--log", str(log),
                           "--annotations", str(bundle), "--out", str(tmp_path / "out"))
        assert (code, err) == (1, f"{demoted}error [{stage}]: {message}\n")


def test_assess_rejects_overflowing_impacts(tmp_path, capsys, demo_log_path):
    # in-range amounts times in-range factors can leave the float range:
    # in one product, in one component's sum, or in the process total
    def co2(component, amount):
        return {"component": component, "flow": "CO2", "direction": "output",
                "amount": amount, "unit": "kg", "scope": "scope1"}

    e1 = {"kind": "activity_instance", "id": "e1"}
    cases = [
        (1e10, [co2(e1, "1e300")], "characterization",
         "activity_instance:e1: flow 'CO2' in category 'climate_change' overflows a float"),
        (1e8, [co2(e1, "1e300"), {**co2(e1, "1e300"), "direction": "input"}], "characterization",
         "activity_instance:e1: flow 'CO2' in category 'climate_change' overflows a float"),
        (1e8, [co2(e1, "1e300"), co2({"kind": "process"}, "1e300")], "allocation",
         "process: impact ('climate_change', 'scope1') is not finite (inf)"),
    ]
    for i, (factor, assignments, stage, message) in enumerate(cases):
        bundle = tmp_path / f"bundle{i}.json"
        bundle.write_text(json.dumps({
            "schema": "susmine/1",
            "assignments": assignments,
            "characterization": {
                "categories": {"climate_change": {"impact_unit": "kg CO2e", "class": "climate"}},
                "factors": [{"flow": "CO2", "unit": "kg", "factors": {"climate_change": factor}}],
            },
        }))
        code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                           "--annotations", str(bundle), "--out", str(tmp_path / "out"))
        assert code == 1, err
        assert err.startswith(f"error [{stage}]: {message}"), err
        assert not (tmp_path / "out").exists()


def test_an_activity_type_total_that_overflows_is_a_dfg_error(tmp_path, capsys, demo_log_path):
    # the process total sums e2, e1, e3 to 1e308, but fill_bottle's total, e2 plus e3, overflows
    # when the graph is annotated
    def co2(event, amount):
        return {"component": {"kind": "activity_instance", "id": event}, "flow": "CO2",
                "direction": "output", "amount": amount, "unit": "kg", "scope": "scope1"}

    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({
        "schema": "susmine/1",
        "assignments": [co2("e2", "1e308"), co2("e1", "-1e308"), co2("e3", "1e308")],
        "characterization": {
            "categories": {"cc": {"impact_unit": "kg CO2e", "class": "climate"}},
            "factors": [{"flow": "CO2", "unit": "kg", "factors": {"cc": 1}}],
        },
    }))
    code, out, err = run(capsys, "assess", "--log", str(demo_log_path),
                         "--annotations", str(bundle), "--out", str(tmp_path / "out"))
    assert (code, out, err) == (
        1, "", "error [dfg]: activity_type:fill_bottle: impact ('cc', 'scope1') is not finite (inf)\n")
    assert not (tmp_path / "out").exists()


def test_assess_rejects_overflowing_impacts_per_functional_unit(tmp_path, capsys, demo_log_path,
                                                                demo_bundle_path):
    # totals are finite, but scaling them to a huge functional unit is not
    for amount in ("1e307", "1.7e308"):
        out = tmp_path / amount
        code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                           "--annotations", str(demo_bundle_path), "--out", str(out),
                           "--fu", f"order:{amount}")
        assert code == 1, err
        assert re.match(r"error \[write-outputs\]: impact per functional unit in category "
                        r"'\w+', scope 'scope\d' overflows a float \(", err), err
        assert not out.exists()


def test_assess_rejects_impacts_per_functional_unit_that_underflow(tmp_path, capsys, demo_log_path,
                                                                  demo_bundle_path):
    # the scale is a normal float, but a small total times it is subnormal
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "assess", "--log", str(demo_log_path), "--annotations",
                            str(demo_bundle_path), "--out", str(out), "--fu", "order:1e-305")
    assert (code, stdout) == (1, "")
    assert err == ("error [write-outputs]: impact per functional unit in category 'work_accidents', "
                   "scope 'scope1' underflows a float (1e-05 count x scale 1E-305)\n")
    assert not out.exists()


@pytest.mark.parametrize("amount", ["1e-999999999", "1e-400", "1e-320"])
@pytest.mark.parametrize("command", ["assess", "inventory"])
def test_functional_unit_scale_that_underflows_a_float_is_an_error(command, amount, tmp_path, capsys,
                                                                    demo_log_path, demo_bundle_path):
    # reference / output is a positive decimal whose float is 0 or subnormal,
    # which would zero every per-unit figure or drop its digits
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command, "--log", str(demo_log_path), "--annotations",
                            str(demo_bundle_path), "--out", str(out), "--fu", f"order:{amount}")
    assert (code, stdout) == (1, "")
    assert err == (f"error [functional-unit]: functional unit scale for object type 'order' underflows "
                   f"a float: {amount.upper()} / 1\n")
    assert not out.exists()


@pytest.mark.parametrize("name", OUTPUT_FILES)
def test_an_output_name_taken_by_a_directory_replaces_nothing(name, tmp_path, capsys, demo_log_path,
                                                              demo_bundle_path):
    out = tmp_path / "out"
    out.mkdir()
    for other in OUTPUT_FILES:
        if other != name:
            (out / other).write_text(f"old {other}")
    (out / name).mkdir()
    code, stdout, err = run(capsys, "assess", "--log", str(demo_log_path),
                            "--annotations", str(demo_bundle_path), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error [write-outputs]: [Errno 21] Is a directory: '{out / name}'\n"
    assert ".susmine-" not in err
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUT_FILES)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert (out / name).is_dir() and not any((out / name).iterdir())
    for other in OUTPUT_FILES:
        if other != name:
            assert (out / other).read_text() == f"old {other}"


def test_an_output_name_linked_to_a_directory_is_replaced_like_a_file(tmp_path, capsys, demo_log_path,
                                                                      demo_bundle_path):
    # os.replace swaps the link itself, so only a real directory is refused
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    (out / "ledger.csv").symlink_to(elsewhere)
    code, _, err = run(capsys, "assess", "--log", str(demo_log_path),
                       "--annotations", str(demo_bundle_path), "--out", str(out))
    assert code == 0, err
    assert (out / "ledger.csv").is_file() and not (out / "ledger.csv").is_symlink()
    assert not any(elsewhere.iterdir())


def test_assess_rejects_an_unscoped_share_beyond_float_range(tmp_path, capsys):
    # the scoped cells cancel the unscoped 1e300 kg to a total of 1e-10 kg
    log = tmp_path / "log.json"
    log.write_text(json.dumps({
        "objectTypes": [],
        "eventTypes": [{"name": "pack"}],
        "objects": [],
        "events": [{"id": "e1", "type": "pack", "time": "2024-01-01T08:00:00Z"},
                   {"id": "e2", "type": "pack", "time": "2024-01-01T09:00:00Z"}],
    }))

    def co2(event, amount, **scope):
        return {"component": {"kind": "activity_instance", "id": event}, "flow": "CO2",
                "direction": "output", "amount": amount, "unit": "kg", **scope}

    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({
        "schema": "susmine/1",
        "scopes": "ghg",
        "assignments": [co2("e1", "1e300"), co2("e1", "-1e300", scope="scope1"),
                        co2("e2", "1e-10", scope="scope2")],
        "characterization": {
            "categories": {"cc": {"impact_unit": "kg CO2e", "class": "climate"}},
            "factors": [{"flow": "CO2", "unit": "kg", "factors": {"cc": 1}}],
        },
    }))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "assess", "--log", str(log), "--annotations", str(bundle), "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == "error [write-outputs]: unscoped share of category 'cc' is not finite (1e+300 / 1e-10)\n"
    assert not out.exists()


@pytest.mark.parametrize("default_out", [False, True])
def test_failed_assess_leaves_existing_outputs_unchanged(tmp_path, capsys, monkeypatch, demo_log_path,
                                                         demo_bundle_path, machine_bundle_path, default_out):
    out = tmp_path / "out"
    base = ["assess", "--log", str(demo_log_path)]
    code, _, err = run(capsys, *base, "--annotations", str(demo_bundle_path), "--out", str(out))
    assert code == 0, err
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == sorted(OUTPUT_FILES)

    # another bundle, whose artifacts would all differ, scaled past the float range
    failing = [*base, "--annotations", str(machine_bundle_path), "--fu", "order:1e307"]
    if default_out:
        monkeypatch.chdir(out)  # the default is --out .
    else:
        failing += ["--out", str(out)]
    code, _, err = run(capsys, *failing)
    assert code == 1, err
    assert err.startswith("error [write-outputs]: impact per functional unit"), err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]

    code, _, err = run(capsys, *base, "--annotations", str(machine_bundle_path), "--out", str(out))
    assert code == 0, err
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(after) == sorted(OUTPUT_FILES)
    assert after["report.json"] != before["report.json"]


@pytest.mark.parametrize("amounts, code, stream, text", [
    (("100000000000000000000", "0.0000000001"), 0, "out",
     "\nactivity_instance,e1,CO2,output,scope2,100000000000000000000.0000000001,kg\n"),
    (("1E+300", "0E-400000"), 1, "err",
     "error [inventory]: flow 'CO2' on activity_instance:e1 sums 1E+300 and 0E-400000 "
     "beyond 1000 significant digits\n"),
], ids=["exact", "beyond-the-digit-bound"])
def test_inventory_sums_amounts_of_far_apart_exponents_exactly_or_fails(
        amounts, code, stream, text, tmp_path, capsys, demo_log_path, demo_bundle_path):
    doc = json.loads(demo_bundle_path.read_text())
    doc["assignments"] += [
        {"component": {"kind": "activity_instance", "id": "e1"}, "flow": "CO2", "direction": "output",
         "amount": amount, "unit": "kg", "scope": "scope2"}
        for amount in amounts
    ]
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    got, out, err = run(capsys, "inventory", "--log", str(demo_log_path), "--annotations", str(bundle))
    assert got == code, err
    if code:
        assert (out, err) == ("", text)
    else:
        assert text in out


#: Thresholds no interpreter starts with, so a restore is told from a default.
_OWN_THRESHOLDS = (701, 11, 12)


@pytest.fixture()
def own_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*_OWN_THRESHOLDS)
    yield
    gc.set_threshold(*saved)


@pytest.mark.parametrize("argv, code", [
    (["validate", "--log", str(fixture_path("ocel/minimal.json"))], 0),
    (["inventory", "--log", str(fixture_path("ocel/invalid_dangling_relation.json"))], 1),
    (["validate", "--log", "/no/such/file.json"], 2),
    (["assess", "--log", str(fixture_path("ocel/minimal.json")), "--scopes", "ghg"], 2),
])
def test_main_restores_the_collector_thresholds_on_every_exit_code(argv, code, capsys, own_thresholds):
    assert run(capsys, *argv)[0] == code
    assert gc.get_threshold() == _OWN_THRESHOLDS


def test_main_restores_the_collector_thresholds_after_an_argparse_exit(capsys, own_thresholds):
    with pytest.raises(SystemExit):
        main(["assess", "--no-such-flag"])
    assert gc.get_threshold() == _OWN_THRESHOLDS


@pytest.mark.parametrize("outcome, code", [
    (0, 0), (SusmineError("bad data"), 1), (OSError("disk gone"), 2), (SystemExit(3), None),
])
def test_a_command_runs_under_the_raised_gen0_threshold(outcome, code, monkeypatch, capsys, own_thresholds):
    seen = []

    def command(args):
        seen.append(gc.get_threshold())
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setitem(cli._COMMANDS, "validate", (command, *cli._COMMANDS["validate"][1:]))
    if code is None:
        with pytest.raises(SystemExit):
            main(["validate"])
    else:
        assert main(["validate"]) == code
    assert seen == [(GC_GEN0_THRESHOLD, *_OWN_THRESHOLDS[1:])]
    assert gc.get_threshold() == _OWN_THRESHOLDS


def test_run_pipeline_leaves_the_collector_thresholds_alone(monkeypatch, demo_log, demo_bundle, own_thresholds):
    calls = []
    with monkeypatch.context() as patched:
        patched.setattr(gc, "set_threshold", lambda *thresholds: calls.append(thresholds))
        run_pipeline(demo_log, demo_bundle)
    assert calls == []
    assert gc.get_threshold() == _OWN_THRESHOLDS
