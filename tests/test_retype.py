"""Retype sweep: every field of a shipped document, replaced by a value of
the wrong type or range, dropped, or (a list element) duplicated, must make
lenient ``assess`` succeed or fail with a data error (exit 0 or 1), never
crash or exit as a usage error."""

import copy
import json

import pytest

from susmine.cli import main

#: Each replacement value; the long integer is beyond float range.
RETYPES = (None, 0, -1, 2.5, 10**400, "", "x", [], {}, True)


def field_paths(node, prefix=()):
    """The path of every field under ``node``; of each list, only its first element."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = list(enumerate(node[:1]))
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def edited(doc, path, change):
    """A copy of ``doc`` with ``change(parent, key)`` applied to the field at ``path``."""
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    change(node, path[-1])
    return out


def mutations(doc, path):
    """(label, document) for each mutation of the field at ``path``: every
    retype, the field dropped and, for a list element, a copy appended."""
    for value in RETYPES:
        yield f"= {str(value)[:12]}", edited(doc, path, lambda node, key: node.__setitem__(key, value))
    yield "dropped", edited(doc, path, lambda node, key: node.__delitem__(key))
    if isinstance(path[-1], int):
        yield "duplicated", edited(doc, path, lambda node, key: node.append(node[key]))


def machine_variant(machine_bundle_path):
    """The machine_allocation bundle with a mass key and a unit conversion."""
    doc = json.loads(machine_bundle_path.read_text())
    doc["allocations"][0]["key"] = "mass"
    doc["units"] = {"declare": ["t"], "conversions": [{"from": "t", "to": "kg", "factor": "1000"}]}
    return doc


def sweep(tmp_path, log_doc, bundle_doc, retyped):
    """Run lenient ``assess`` once per mutation of each field of the document
    named by ``retyped``; return every case that exited 2 or raised."""
    log, bundle, out = tmp_path / "log.json", tmp_path / "bundle.json", tmp_path / "out"
    log.write_text(json.dumps(log_doc))
    bundle.write_text(json.dumps(bundle_doc))
    target, doc = (log, log_doc) if retyped == "log" else (bundle, bundle_doc)
    argv = ["assess", "--log", str(log), "--annotations", str(bundle), "--out", str(out), "--mode", "lenient"]
    assert main(argv) == 0  # the documents as given assess cleanly
    failures = []
    for path in field_paths(doc):
        for label, mutated in mutations(doc, path):
            target.write_text(json.dumps(mutated))
            case = f"{'.'.join(map(str, path))} {label}"
            try:
                code = main(argv)
            except Exception as exc:  # any exception escaping main is the finding
                failures.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 1):
                failures.append(f"{case}: exit {code}")
    return failures


@pytest.mark.parametrize("retyped", ["log", "bundle"])
def test_retyped_fields_exit_0_or_1(retyped, tmp_path, capsys, demo_log_path, machine_bundle_path):
    log_doc = json.loads(demo_log_path.read_text())
    failures = sweep(tmp_path, log_doc, machine_variant(machine_bundle_path), retyped)
    capsys.readouterr()
    assert failures == []
