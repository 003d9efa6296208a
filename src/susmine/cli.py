"""Command-line interface.

Subcommands wire the pipeline end to end:

    validate   check a log against its structural invariants
    assess     full analysis -> report.json, CSVs, ledger, DOT
    inventory  flow inventory CSV only
    allocate   run through allocation, emit the transfer ledger
    dfg        directly-follows graph as DOT (impact-annotated if
               annotations are given)
    audit      pattern-coverage matrix for a bundle, or the shipped
               literature matrix with --literature
    generate   seeded synthetic bundle with ground truth

Exit codes: 0 success; 1 analysis/data error; 2 I/O, syntax or usage
error. Errors raised in a stage print ``error [<stage>]: <message>``: load-log,
parse-annotations, bind, inventory, characterization, allocation, audit, dfg,
functional-unit or write-outputs; any other prints ``error: <message>``.
Configuration comes from flags only; ``--config FILE`` may supply
the same keys as JSON, with flags winning on conflict: ``mode`` and
every other flag that takes a value. A key of any subcommand is
accepted, so one file serves them all; any other key is a usage error.

While a command runs, :func:`main` raises the cyclic collector's gen-0
threshold to :data:`GC_GEN0_THRESHOLD` and restores the previous
thresholds on every exit; library callers keep theirs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .errors import SusmineError, abbreviate, load_json
from .model import Quantity, validate_log
from .annotations import SCOPE_PRESETS, parse_annotations, parse_scope_set, empty_bundle
from .audit import CapabilityMatrix, load_literature_matrix
from .dfg import emit_dot
from .generator import generate_bundle
from .impact import Mode
from .inventory import FunctionalUnit
from .ocel import parse_ocel
from .pipeline import PipelineResult, run_pipeline, stage
from .report import inventory_to_csv, ledger_csv, write_files, write_outputs

#: Allocations between young collections while a command runs. A run
#: builds hundreds of thousands of acyclic cells and leaves little cyclic
#: garbage, so the default 700 only spends time re-scanning live objects.
GC_GEN0_THRESHOLD = 50_000

_MODES = tuple(mode.value for mode in Mode)
#: flag -> its argparse options; every flag that takes a value, bar
#: ``--config`` itself, is also a ``--config`` key, in this order
_FLAGS = {
    "log": {"help": "event log (OCEL 2.0 JSON subset)"},
    "annotations": {"help": "annotation bundle (susmine/1 JSON)"},
    "out": {"help": "output directory"},
    "mode": {"choices": _MODES, "help": "ingest/analysis mode (default strict)"},
    "scopes": {"help": f"scope set override for the bundle: {', '.join(SCOPE_PRESETS)}, or a JSON file"},
    "fu": {"help": "functional unit as <object_type>:<amount>"},
    "seed": {"help": "64-bit unsigned generator seed (required)"},
    "size": {"help": "number of events (default 40)"},
    "literature": {"action": "store_true",
                   "help": "print the shipped literature matrix instead of auditing a bundle"},
    "config": {"help": "JSON file supplying the same keys as flags; flags win"},
}
_CONFIG_KEYS = tuple(flag for flag, options in _FLAGS.items() if flag != "config" and "action" not in options)
#: config keys that may also be JSON integers
_INT_CONFIG_KEYS = ("seed", "size")
_ANALYSIS_FLAGS = ("log", "annotations", "scopes", "out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susmine",
        description="Sustainability analysis of business processes from object-centric event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags, "config"):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    if getattr(args, "config", None):
        config = load_json(Path(args.config).read_bytes())
        if not isinstance(config, dict):
            raise ValueError("--config file must contain a JSON object")
        unknown = [abbreviate(k) for k in sorted(config.keys() - _CONFIG_KEYS)]
        if unknown:
            raise ValueError(f"--config has unknown key(s) {unknown}")
        for key in _CONFIG_KEYS:
            if key not in config:
                continue
            value = config[key]
            if type(value) is not str and not (key in _INT_CONFIG_KEYS and type(value) is int):
                expected = "a string or an integer" if key in _INT_CONFIG_KEYS else "a string"
                raise ValueError(f"--config key '{key}' must be {expected}, got {json.dumps(value)}")
            if key == "mode" and value not in _MODES:
                raise ValueError(f"--config key 'mode' must be 'strict' or 'lenient', got {json.dumps(value)}")
            if getattr(args, key, None) is None and hasattr(args, key):
                setattr(args, key, value)
    return args


def _parse_fu(raw: str) -> FunctionalUnit:
    parts = raw.split(":")
    if len(parts) != 2 or not parts[0]:
        raise ValueError(f"--fu expects <object_type>:<amount>, got '{abbreviate(raw)}'")
    try:
        amount = Decimal(parts[1])
    except InvalidOperation:
        raise ValueError(f"--fu amount '{abbreviate(parts[1])}' is not a number") from None
    if not amount.is_finite() or math.isinf(float(amount)):  # impact arithmetic is in floats
        raise ValueError(f"--fu amount '{abbreviate(parts[1])}' is not a finite number within float range")
    return FunctionalUnit(parts[0], Quantity(amount, "count"))


def _load_scopes_override(raw: str):
    """A preset by name, else the scope set in the JSON file ``raw`` names."""
    return parse_scope_set(raw if raw in SCOPE_PRESETS else load_json(Path(raw).read_bytes()))


def _read(path: str | None, what: str) -> bytes:
    if not path:
        raise FileNotFoundError(f"--{what} is required")
    return Path(path).read_bytes()


def _analyse(args) -> PipelineResult:
    """Load the log and the bundle (empty without ``--annotations``) and
    run the pipeline."""
    if args.scopes and not args.annotations:
        raise ValueError("--scopes requires --annotations")
    mode = Mode(args.mode or "strict")
    fu = _parse_fu(args.fu) if getattr(args, "fu", None) else None
    with stage("load-log"):
        log = parse_ocel(_read(args.log, "log"), strict=(mode is Mode.STRICT))
        if mode is Mode.LENIENT:  # strict ingest has already raised on these
            for violation in validate_log(log):
                print(f"warning: {violation}", file=sys.stderr)
    with stage("parse-annotations"):
        bundle = empty_bundle()
        if args.annotations:
            override = _load_scopes_override(args.scopes) if args.scopes else None
            bundle = parse_annotations(_read(args.annotations, "annotations"), scopes_override=override)
    return run_pipeline(log, bundle, mode, fu)


def _emit(out_dir: str | None, renders: dict) -> None:
    """Write each ``name -> render(stream)`` into ``out_dir`` through
    :func:`write_files` and name the files written; without an output
    directory, stream every render to standard output."""
    with stage("write-outputs"):
        if out_dir:
            for path in write_files(renders, out_dir).values():
                print(f"wrote {path}")
        else:
            for render in renders.values():
                render(sys.stdout)


def _cmd_validate(args) -> int:
    mode = Mode(args.mode or "strict")
    with stage("load-log"):
        log = parse_ocel(_read(args.log, "log"), strict=False)
        violations = validate_log(log)
    if not violations:
        print(f"ok: {len(log.events)} events, {len(log.objects)} objects, no violations")
        return 0
    for v in violations:
        prefix = "warning" if mode is Mode.LENIENT else "violation"
        print(f"{prefix}: {v}")
    if mode is Mode.LENIENT:
        print(f"ok (lenient): {len(violations)} violation(s) demoted to warnings")
        return 0
    return 1


def _cmd_assess(args) -> int:
    result = _analyse(args)
    with stage("write-outputs"):
        written = write_outputs(result, args.out or ".")
    for name in sorted(written):
        print(f"wrote {written[name]}")
    return 0


def _cmd_inventory(args) -> int:
    result = _analyse(args)
    # with a functional unit, the per-FU process inventory is the artifact
    inventory = result.fu_inventory if result.fu else result.inventory
    _emit(args.out, {"inventory.csv": lambda out: inventory_to_csv(inventory, out)})
    return 0


def _cmd_allocate(args) -> int:
    result = _analyse(args)
    _emit(args.out, {"ledger.csv": lambda out: ledger_csv(result, out)})
    for warning in result.ledger.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_dfg(args) -> int:
    # without --annotations the pipeline runs on the empty bundle, whose
    # annotated graph renders exactly as the bare one
    result = _analyse(args)
    _emit(args.out, {"dfg.dot": lambda out: out.write(emit_dot(result.dfg))})
    return 0


def _cmd_audit(args) -> int:
    if args.literature:
        if args.log or args.annotations or args.scopes:
            raise ValueError("--literature takes no --log, --annotations or --scopes")
        matrix = load_literature_matrix()
    else:
        result = _analyse(args)
        name = Path(args.annotations).stem if args.annotations else "bundle"
        matrix = CapabilityMatrix([(name, result.audit_row)])
    with stage("write-outputs"):
        sys.stdout.write(matrix.render_text())
    if args.out:
        _emit(args.out, {"audit.json": lambda out: out.write(matrix.to_json() + "\n")})
    return 0


def _integer(flag: str, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"--{flag} must be an integer, got '{value}'") from None


def _cmd_generate(args) -> int:
    if args.seed is None:
        raise ValueError("generate requires --seed")
    seed = _integer("seed", args.seed)
    size = _integer("size", args.size) if args.size is not None else 40
    bundle = generate_bundle(seed, size)
    _emit(args.out or ".", {
        "log.json": lambda out: out.write(bundle.log_json),
        "annotations.json": lambda out: out.write(bundle.annotations_json),
        "ground_truth.json": lambda out: out.write(bundle.ground_truth_json()),
    })
    return 0


#: command -> (handler, help, its flags bar ``--config``, which every command takes last)
_COMMANDS = {
    "validate": (_cmd_validate, "validate a log", ("log", "mode")),
    "assess": (_cmd_assess, "run the full analysis and write all artifacts", (*_ANALYSIS_FLAGS, "fu", "mode")),
    "inventory": (_cmd_inventory, "emit the flow inventory CSV", (*_ANALYSIS_FLAGS, "fu", "mode")),
    "allocate": (_cmd_allocate, "run allocation and emit the transfer ledger CSV", (*_ANALYSIS_FLAGS, "mode")),
    "dfg": (_cmd_dfg, "emit the directly-follows graph as DOT", (*_ANALYSIS_FLAGS, "mode")),
    "audit": (_cmd_audit, "pattern-coverage capability matrix", (*_ANALYSIS_FLAGS, "literature", "mode")),
    "generate": (_cmd_generate, "generate a seeded synthetic bundle", ("out", "seed", "size")),
}


#: Every character ``str.splitlines`` breaks a line at, as its escape: an
#: input literal quoted in a message cannot split the one error line.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    thresholds = gc.get_threshold()
    gc.set_threshold(GC_GEN0_THRESHOLD, *thresholds[1:])
    try:
        args = _apply_config(args)
        return _COMMANDS[args.command][0](args)
    except (OSError, ValueError, SusmineError) as exc:
        stage_name = getattr(exc, "stage", None)
        prefix = f"error [{stage_name}]" if stage_name else "error"
        malformed = "malformed JSON: " if isinstance(exc, json.JSONDecodeError) else ""
        print(f"{prefix}: {malformed}{str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 1 if isinstance(exc, SusmineError) else 2
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
