"""Report emission: the JSON report plus its CSV and DOT projections.

The JSON document (``"schema": "susmine-report/1"``) is the single
machine-readable artifact; every CSV is a projection of it. All output is
byte-deterministic for identical inputs: keys are sorted, rows come in
the order :class:`PipelineResult` stores them, and nothing time- or
environment-dependent is embedded.

Exact decimal amounts (inventory stage) are serialized as strings to
preserve their digits; impact amounts are JSON numbers. ``report.json``
is written by a one-pass emitter that reproduces
``json.dumps(indent=2, sort_keys=True)`` byte for byte. It walks the
report's dicts and hands every small value to ``json.dumps``. Its bulk
sections, which all sit at the same depth, are written in joined
batches of row texts fixed at that depth, straight from the
:class:`PipelineResult`, rather than through the pure-Python encoder
that ``json`` falls back to for any ``indent``; neither the report dict
nor its text is ever held whole on the way to disk.

:func:`render_report` is the only writer of the document;
:func:`build_report` parses its text. It and the four CSV projections
write onto a text stream ``out``, which they require, and return None.
The tests check the emitter against an independently built dict,
``tests/oracles.report_dict``. The allocation ledger's rows, in the
report and in ``ledger.csv``, build their source, target and weight
texts once per transfer, not once per entry.

The CSV projections share :func:`write_csv`: ``csv``'s excel dialect,
minimal quoting (a field holding a comma, a quote, ``\\r`` or ``\\n`` is
quoted) and ``\\n`` line ends, with the rows that need no quoting joined
into one text per batch.

:func:`write_files` renders into a staging directory in two processes:
the calling process renders the first artifact (``report.json`` for
:func:`write_outputs`), and every other artifact waits in one queue that
both processes take from, one at a time and from the last artifact back,
until it is empty. The forked child reports back only its exit status.
If either side fails, the calling process renders every artifact again
in order, so a failure raises as it would in one process. It renders in
one process alone when ``os.fork`` is missing, another thread is alive,
or there is a single artifact or more than the queue holds.
"""

from __future__ import annotations

import csv
import errno
import functools
import io
import json
import math
import os
import shutil
import sys
import tempfile
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from threading import active_count
from typing import Callable, Iterable, Sequence, TextIO

from . import dfg
from .errors import NonFiniteImpactError
from .allocation import LedgerEntry
from .model import ComponentKind, ComponentRef, Direction, Quantity
from .impact import classify_impacts
from .inventory import Inventory, InvKey
from .pipeline import PipelineResult
from .scoping import ScopedVector, collapse_scopes, unscoped_share

REPORT_SCHEMA_ID = "susmine-report/1"

#: Files written by a full assessment, in a fixed layout: name ->
#: render(result, out). Each render looks its writer up when it runs, so
#: a writer rebound on its module (a tracer's wrapper) is the one called.
_ARTIFACTS = {
    "report.json": lambda result, out: render_report(result, out),
    "inventory.csv": lambda result, out: inventory_to_csv(result.inventory, out),
    "impacts.csv": lambda result, out: impact_csv(result, out),
    "impacts_scoped.csv": lambda result, out: scoped_impact_csv(result, out),
    "ledger.csv": lambda result, out: ledger_csv(result, out),
    "dfg.dot": lambda result, out: out.write(dfg.emit_dot(result.dfg)),
}
OUTPUT_FILES = tuple(_ARTIFACTS)

#: Rows joined into one text and written in one call, by :func:`write_csv`
#: and by a :class:`_Rows` section of the report.
_BATCH = 256

#: Enum values read once, not through the ``Enum`` descriptor on every row.
_KIND_VALUES = {kind: kind.value for kind in ComponentKind}
_KIND_TEXTS = {kind: _quote(kind.value) for kind in ComponentKind}
_DIRECTION_TEXTS = {direction: _quote(direction.value) for direction in Direction}


def _scoped_obj(sv: ScopedVector) -> dict:
    out: dict = {}
    for (category, scope), q in sorted(sv.items()):
        out.setdefault(category, {})[scope] = {"amount": q.amount, "unit": q.unit}
    return out


class _Rows:
    """A bulk list section of the report, kept as an iterable of its row
    texts.

    The emitter writes the row texts in joined batches of :data:`_BATCH`,
    at the one depth every section sits at (see the row texts below), so
    it holds neither a row dict nor the section's text. ``texts`` is
    iterated once."""

    __slots__ = ("texts",)

    def __init__(self, texts: Iterable[str]):
        self.texts = texts

    def emit(self, append) -> None:
        texts = iter(self.texts)
        lead = opening = "[" + _NL3
        separator = "," + _NL3
        while batch := list(islice(texts, _BATCH)):
            append(lead + separator.join(batch))
            lead = separator
        append("[]" if lead is opening else _NL2 + "]")


def _layout(result: PipelineResult) -> dict:
    """The report's one skeleton: its small sections as dicts, each bulk
    list section as a :class:`_Rows`."""
    al = result.al
    totals = result.totals
    category_totals = collapse_scopes(totals)
    by_class = classify_impacts(category_totals, al.table)

    by_scope = _scoped_obj(totals)
    process_totals = {
        category: {
            "class": al.table.categories[category].impact_class.value,
            "total": {"amount": q.amount, "unit": q.unit},
            "by_scope": by_scope[category],
        }
        for category, q in category_totals.items()
    }

    report = {
        "schema": REPORT_SCHEMA_ID,
        "mode": result.mode.value,
        "log": {
            "digest": al.log.digest(),
            "event_count": len(al.log.events),
            "object_count": len(al.log.objects),
            "per_activity": al.log.member_counts(ComponentKind.ACTIVITY_TYPE),
            "per_object_type": al.log.member_counts(ComponentKind.OBJECT_TYPE),
        },
        "scope_set": {"name": al.scope_set.name, "scopes": list(al.scope_set.scopes)},
        "inventory": {
            "entries": _Rows(map(_inventory_text, result.inventory.entries.items())),
            "negative_entries": _Rows(map(_inventory_text, result.inventory.negative_entries())),
        },
        "impacts": {
            "components": _Rows(
                _component_impacts_text(ref, sv) for ref, sv in result.post_allocation.items() if sv
            ),
            "process_totals": process_totals,
            "class_totals": {
                cls.value: {cat: {"amount": q.amount, "unit": q.unit} for cat, q in vec.items()}
                for cls, vec in by_class.items()
            },
        },
        "unscoped_share": unscoped_share(totals),
        "uncharacterized_flows": [
            {"flow": f, "unit": u, "direction": d} for (f, u, d) in result.uncharacterized
        ],
        "allocation": {
            "entries": _Rows(_ledger_texts(result.ledger.entries)),
            "residuals": _Rows(_component_impacts_text(ref, sv) for ref, sv in result.ledger.residuals.items()),
            "warnings": list(result.ledger.warnings),
        },
        "audit": {col: level.value for col, level in result.audit_row.items()},
        "functional_unit": None,
    }

    if result.fu is not None:
        scale = float(result.fu_scale)
        per_fu: ScopedVector = {}
        for (category, scope), q in totals.items():
            amount = q.amount * scale
            if not math.isfinite(amount) or (q.amount and abs(amount) < sys.float_info.min):
                raise NonFiniteImpactError(
                    f"impact per functional unit in category '{category}', scope '{scope}' "
                    f"{'underflows' if math.isfinite(amount) else 'overflows'} a float "
                    f"({q.amount} {q.unit} x scale {result.fu_scale})"
                )
            per_fu[category, scope] = Quantity(amount, q.unit)
        report["functional_unit"] = {
            "object_type": result.fu.object_type,
            "reference": {"amount": str(result.fu.reference.amount), "unit": result.fu.reference.unit},
            "measured_attribute": result.fu.measured_attribute,
            "measured_output": str(result.fu_output),
            "scale_factor": str(result.fu_scale),
            "inventory_per_fu": _Rows(map(_inventory_text, result.fu_inventory.entries.items())),
            "impacts_per_fu": _scoped_obj(per_fu),
        }
    return report


def build_report(result: PipelineResult) -> dict:
    """The report as one dict: :func:`render_report`'s text, parsed. Every
    float round-trips exactly through its ``repr``."""
    text = io.StringIO()
    render_report(result, text)
    return json.loads(text.getvalue())


def _newline(depth: int) -> str:
    return "\n" + "  " * depth


def _float(value: float) -> str:
    if value - value:  # nan for inf and nan
        raise ValueError(f"out of range float {value!r} is not JSON compliant")
    return float.__repr__(value)


def _emit(value, depth: int, append) -> None:
    """Append the JSON text of ``value`` at nesting ``depth`` as
    ``json.dumps(indent=2, sort_keys=True)`` writes it. Non-empty dicts are
    walked here, so that a :class:`_Rows` section inside one streams; any
    other value is ``json.dumps``'s text re-indented, which is safe because
    JSON text holds no raw newline inside a string. A walked dict's key that
    is not a str, or a value ``json`` cannot encode, raises ``TypeError``; a
    non-finite float raises ``ValueError``. The tests check it against
    ``json.dumps`` on arbitrary trees."""
    kind = type(value)
    if kind is dict and value:
        inner = _newline(depth + 1)
        lead, separator = "{" + inner, "," + inner
        for key in sorted(value):
            append(f"{lead}{_quote(key)}: ")  # TypeError for a key that is not a str
            _emit(value[key], depth + 1, append)
            lead = separator
        append(_newline(depth) + "}")
    elif kind is _Rows:
        value.emit(append)
    else:
        text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
        append(text.replace("\n", _newline(depth)))


# -- row texts: one row's JSON object, built directly. Every _Rows section
# is the value of a key in a top-level section of the report, so it sits at
# depth 2: its rows at depth 3, and each row's ref and scoped vector at
# depth 4. _NLd starts a line at depth d.
_NL2, _NL3, _NL4, _NL5, _NL6, _NL7 = (_newline(depth) for depth in range(2, 8))
_SCOPED_CLOSE = f"{_NL5}}}{_NL4}}}"


def _ref_text(ref: ComponentRef) -> str:
    """The text of a ref's ``{"id", "kind"}`` object."""
    ref_id = "null" if ref.id is None else _quote(ref.id)
    return f'{{{_NL5}"id": {ref_id},{_NL5}"kind": {_KIND_TEXTS[ref.kind]}{_NL4}}}'


def _scoped_text(sv: ScopedVector) -> str:
    """The text of :func:`_scoped_obj`: {category: {scope: {amount, unit}}},
    for a vector whose cells are in (category, scope) order."""
    if not sv:
        return "{}"
    parts = []
    current = None
    for (category, scope), (amount, unit) in sv.items():
        if category != current:
            opening = "{" if current is None else _NL5 + "},"
            parts.append(f"{opening}{_NL5}{_quote(category)}: {{{_NL6}")
            current = category
        else:
            parts.append("," + _NL6)
        parts.append(f'{_quote(scope)}: {{{_NL7}"amount": {_float(amount)},'
                     f'{_NL7}"unit": {_quote(unit)}{_NL6}}}')
    parts.append(_SCOPED_CLOSE)
    return "".join(parts)


def _component_impacts_text(ref: ComponentRef, sv: ScopedVector) -> str:
    return f'{{{_NL4}"component": {_ref_text(ref)},{_NL4}"impacts": {_scoped_text(sv)}{_NL3}}}'


def _same_transfer(entries: Iterable[LedgerEntry]):
    """Each entry of ``entries`` with a flag: True when its source, target
    and weight are the same objects as the entry before's, so its
    transfer's texts are theirs too."""
    source = target = weight = None
    for e in entries:
        same = e.source is source and e.target is target and e.weight is weight
        if not same:
            source, target, weight = e.source, e.target, e.weight
        yield e, same


def _ledger_texts(entries: Iterable[LedgerEntry]):
    """Each entry's object text. Its source, target and weight texts are
    built once per transfer, after its amount, category and scope, so a
    value that cannot be written raises where it would row by row."""
    for e, same in _same_transfer(entries):
        head = (f'{{{_NL4}"amount": {_float(e.amount)},{_NL4}"category": {_quote(e.category)},'
                f'{_NL4}"scope": {_quote(e.scope)}')
        if not same:
            tail = (f',{_NL4}"source": {_ref_text(e.source)},{_NL4}"target": {_ref_text(e.target)},'
                    f'{_NL4}"weight": {_float(e.weight)}{_NL3}}}')
        yield head + tail


def _inventory_text(entry: tuple[InvKey, Quantity]) -> str:
    """The text of one inventory entry's object: INVENTORY_COLUMNS as keys,
    in sorted order, with the exact amount as a string."""
    key, q = entry
    ref = key.component
    ref_id = "null" if ref.id is None else _quote(ref.id)
    return (f'{{{_NL4}"amount": {_quote(str(q.amount))},{_NL4}"component_id": {ref_id},'
            f'{_NL4}"component_kind": {_KIND_TEXTS[ref.kind]},'
            f'{_NL4}"direction": {_DIRECTION_TEXTS[key.direction]},{_NL4}"flow": {_quote(key.flow)},'
            f'{_NL4}"scope": {_quote(key.scope)},{_NL4}"unit": {_quote(q.unit)}{_NL3}}}')


def render_report(result: PipelineResult, out: TextIO) -> None:
    """Write ``report.json``'s text onto ``out``."""
    _emit(_layout(result), 0, out.write)
    out.write("\n")


#: Column names of one inventory row, in report.json and inventory.csv alike.
INVENTORY_COLUMNS = ("component_kind", "component_id", "flow", "direction", "scope", "amount", "unit")


def write_csv(out: TextIO, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write ``header`` and then ``rows``, whose cells are ``str``, onto
    ``out`` as CSV lines, each quoted by ``csv.writer``.

    The rows go in batches of :data:`_BATCH`. A batch whose rows are
    all as wide as the header (two columns or more) and whose cells hold
    no comma, ``"``, ``\\r``, ``\\n`` or NUL needs no quoting: its rows are
    joined into one text and written in one call. Any other batch, or one
    whose text the stream cannot encode, goes to ``csv.writer`` row by row
    (to :func:`_write_rows` if it holds a ``\\r``), so ``csv`` alone decides
    what is quoted, and an encoding error is raised at the row that holds
    it, with ``csv.writer``'s message."""
    _write_rows(out, [header])
    writer = csv.writer(out, lineterminator="\n")
    width = len(header)
    rows = iter(rows)
    while batch := list(islice(rows, _BATCH)):
        text = "\n".join(map(",".join, batch)) + "\n"
        if "\r" in text:
            _write_rows(out, batch)
            continue
        if (width > 1 and text.count(",") == (width - 1) * len(batch) and text.count("\n") == len(batch)
                and '"' not in text and "\0" not in text and set(map(len, batch)) == {width}):
            try:
                out.write(text)  # a text stream encodes all of it before it writes any
                continue
            except UnicodeEncodeError:
                pass
        writer.writerows(batch)


def _write_rows(out: TextIO, rows: Iterable[Sequence[str]]) -> None:
    """Write each row onto ``out`` in one call, as ``csv.writer`` writes it
    with ``\\r\\n`` line ends, but ended by ``\\n``. With ``\\r`` in its line
    terminator ``csv`` quotes a field holding one, on every Python version
    (3.13 does so with ``\\n`` alone), so every row reads back whole; on
    rows without a ``\\r`` it writes what ``csv.writer(out,
    lineterminator="\\n")`` writes."""
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\r\n")
    for row in rows:
        line.seek(0)
        line.truncate()
        writer.writerow(row)
        out.write(line.getvalue()[:-2] + "\n")


def inventory_to_csv(inv: Inventory, out: TextIO) -> None:
    """The inventory as CSV rows of INVENTORY_COLUMNS, the exact amount as
    a string."""
    write_csv(out, INVENTORY_COLUMNS, (
        (key.component.kind.value, key.component.id or "", key.flow, key.direction.value,
         key.scope, str(q.amount), q.unit)
        for key, q in inv.entries.items()
    ))


def _class_values(result: PipelineResult) -> dict[str, str]:
    return {category: info.impact_class.value for category, info in result.al.table.categories.items()}


def impact_csv(result: PipelineResult, out: TextIO) -> None:
    """Post-allocation per-component impacts, collapsed over scopes."""
    classes = _class_values(result)
    header = ("component_kind", "component_id", "category", "class", "amount", "impact_unit")
    write_csv(out, header, (
        (_KIND_VALUES[ref.kind], ref.id or "", category, classes[category], repr(amount), unit)
        for ref, sv in result.post_allocation.items()
        for category, (amount, unit) in collapse_scopes(sv).items()
    ))


def scoped_impact_csv(result: PipelineResult, out: TextIO) -> None:
    """As :func:`impact_csv` plus a scope column."""
    classes = _class_values(result)
    header = ("component_kind", "component_id", "category", "class", "scope", "amount", "impact_unit")
    write_csv(out, header, (
        (_KIND_VALUES[ref.kind], ref.id or "", category, classes[category], scope, repr(amount), unit)
        for ref, sv in result.post_allocation.items()
        for (category, scope), (amount, unit) in sv.items()
    ))


def ledger_csv(result: PipelineResult, out: TextIO) -> None:
    """The allocation ledger, one row per entry. Each transfer's ref and
    weight cells are built once."""
    write_csv(out, ("source_kind", "source_id", "target_kind", "target_id",
                    "category", "scope", "amount", "weight"), _ledger_rows(result.ledger.entries))


def _ledger_rows(entries: Iterable[LedgerEntry]):
    """Each entry's ``ledger.csv`` cells."""
    for e, same in _same_transfer(entries):
        if not same:
            source, target = e.source, e.target
            transfer = (_KIND_VALUES[source.kind], source.id or "", _KIND_VALUES[target.kind], target.id or "")
            weight = repr(e.weight)
        yield (*transfer, e.category, e.scope, repr(e.amount), weight)


def _render_into(staging: Path, renders: Iterable[tuple[str, Callable[[TextIO], object]]]) -> None:
    """Stream each ``(name, render)`` into ``staging/name``, in order."""
    for name, render in renders:
        with open(staging / name, "w", encoding="utf-8") as out:
            render(out)


def _render_queued(queue: int, staging: Path, entries: list[tuple[str, Callable[[TextIO], object]]]) -> None:
    """Render ``entries[token]`` into ``staging`` for each one-byte token
    read from the pipe ``queue``, one at a time, until it is empty."""
    while token := os.read(queue, 1):
        _render_into(staging, [entries[token[0]]])


def _render_forked(renders: dict[str, Callable[[TextIO], object]], staging: Path) -> bool:
    """Render every entry into ``staging`` in this process and one forked
    child; True when every file rendered, False when one did not or no
    child was forked.

    This process renders the first entry. Each other entry is a one-byte
    token, its index, in one pipe whose write end is closed before the
    fork; the tokens run from the last entry back. Both processes read
    one token at a time and render its entry until the pipe is empty: the
    child at once, this process once its first entry is written.

    Forks only when there are 2 to 257 renders (256 one-byte tokens fit
    any pipe, so writing them never blocks), ``os.fork`` exists and no
    other thread is alive. The child never returns: it leaves through
    ``os._exit``, with 0 once its files are closed and 1 on any
    exception, so it runs no ``atexit`` handler and flushes no inherited
    buffer. The child is reaped before this returns or raises,
    interrupts included."""
    (first, render), *rest = renders.items()
    if not 0 < len(rest) <= 256 or not hasattr(os, "fork") or active_count() != 1:
        return False
    try:
        queue, tokens = os.pipe()
    except OSError:  # no file descriptors to spare: render here
        return False
    try:
        os.write(tokens, bytes(reversed(range(len(rest)))))
        os.close(tokens)  # an empty read now means no entry is left
        try:
            pid = os.fork()
        except OSError:  # no room for a second process: render here
            return False
        if pid == 0:
            code = 1
            try:
                _render_queued(queue, staging, rest)
                code = 0
            finally:
                os._exit(code)
        try:
            _render_into(staging, [(first, render)])
            _render_queued(queue, staging, rest)
        except Exception:  # rendered again in order, it raises where it would alone
            return False
        finally:
            status = os.waitpid(pid, 0)[1]
    finally:
        os.close(queue)
    return os.waitstatus_to_exitcode(status) == 0


def write_files(renders: dict[str, Callable[[TextIO], object]], outdir: str | Path) -> dict[str, Path]:
    """Write each ``name -> render(stream)`` of ``renders`` as
    ``outdir/name``; return the paths written, in ``renders`` order.

    Each file is streamed into a temporary directory, and all of them are
    moved into ``outdir`` only once every one rendered: a failed render
    leaves no new path behind and an existing ``outdir`` as it was. The
    temporary directory is made in the nearest existing of ``outdir`` and
    its parents, so it is writable whenever the files are and the moves
    stay on one file system; if that path is not a directory,
    ``NotADirectoryError`` names it, and if an ``outdir/name`` is one,
    ``IsADirectoryError`` names that, before anything is written.

    The renders run in two processes: this one renders the first entry,
    and the others wait in one queue, from the last one back, that one
    forked child takes from at once and this process once its first entry
    is written. If a render in this process raises or the child does not
    exit 0, every entry is rendered again here, in order, so the first
    failing render raises as it would alone. Without ``os.fork``, with
    another thread alive, or with one render or more than 257, that
    in-order loop is the only one run."""
    outdir = base = Path(outdir)
    while not base.exists() and base.parent != base:
        base = base.parent
    if not base.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(base))
    for name in renders:
        target = outdir / name
        if target.is_dir() and not target.is_symlink():  # os.replace swaps a link itself
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    staging = Path(tempfile.mkdtemp(prefix=".susmine-", dir=base))
    try:
        if not _render_forked(renders, staging):
            _render_into(staging, renders.items())
        outdir.mkdir(parents=True, exist_ok=True)
        for name in renders:
            os.replace(staging / name, outdir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return {name: outdir / name for name in renders}


def write_outputs(result: PipelineResult, outdir: str | Path) -> dict[str, Path]:
    """Write the full artifact set, :data:`OUTPUT_FILES`, through
    :func:`write_files`; re-running on identical inputs overwrites with
    identical bytes."""
    return write_files({name: functools.partial(render, result) for name, render in _ARTIFACTS.items()}, outdir)
