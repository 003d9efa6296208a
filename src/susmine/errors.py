"""Exception hierarchy shared across the susmine engine.

Every JSON document is decoded by :func:`load_json`, which reports
malformed JSON as ``json.JSONDecodeError``, and its records are checked
by :func:`record`; everything past the byte level raises a
:class:`SusmineError` subclass.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal

#: A field's kind when it must be a non-empty string; the other kinds are
#: ``str``, ``bool``, ``list`` and ``dict``, and None leaves the check to
#: the field's parser.
TEXT = "text"
_KIND_NAMES = {TEXT: "a non-empty string", str: "a string", bool: "a boolean", list: "an array", dict: "an object"}


def abbreviate(literal) -> str:
    """``literal`` as message text: whole up to 40 characters, else its first 24 and its length."""
    text = str(literal)
    if len(text) <= 40:
        return text
    return f"{text[:24]}... ({len(text)} {'digits' if text.isdigit() else 'characters'})"


def literal(value) -> str:
    """A JSON value as message text: a scalar as its JSON literal,
    abbreviated; an array or an object by its kind."""
    if isinstance(value, (list, dict)):
        return _KIND_NAMES[type(value)]
    return abbreviate(value if isinstance(value, Decimal) else json.dumps(value, ensure_ascii=False))


def load_json(document: bytes | str, **hooks):
    """A UTF-8 document decoded with ``json.loads`` and its ``hooks``;
    nesting too deep for the decoder is malformed JSON, not a ``RecursionError``.
    A key or string holding a NUL or a lone surrogate raises :class:`SchemaError`
    (see :func:`_check_text`)."""
    raw_text = isinstance(document, str)
    if not raw_text:
        document = document.decode("utf-8")
    try:
        data = json.loads(document, **hooks)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep to decode", document, 0) from None
    # strict UTF-8 refuses an encoded surrogate and the decoder a raw NUL in
    # a string, so from bytes both can only arrive as \u escapes
    if "\\u" in document or (raw_text and not document.isascii()):
        _check_text(data)
    return data


#: A NUL, which not every ``csv`` writes, and the UTF-16 surrogates, which
#: no UTF-8 output can encode; a surrogate pair escaped in JSON decodes to
#: one character, so a surrogate left in a decoded string is a lone one.
_BAD_TEXT = re.compile("[\x00\ud800-\udfff]")


def _check_text(data) -> None:
    """Raise :class:`SchemaError` at the first key or string in ``data``,
    depth first, that holds a character of :data:`_BAD_TEXT`, naming its
    path and the character as an escape. An object's keys are checked
    before its values, so a path never holds one."""
    stack = [(data, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, str):
            _check_string(node, path, "a string")
        elif isinstance(node, dict):
            for key in node:
                _check_string(key, path, "a key")
            stack.extend((value, (*path, key)) for key, value in reversed(node.items()))
        elif isinstance(node, list):
            stack.extend((value, (*path, i)) for i, value in reversed(list(enumerate(node))))


def _check_string(text: str, path: tuple, what: str) -> None:
    bad = _BAD_TEXT.search(text)
    if bad:
        where = "".join(f"[{step}]" if isinstance(step, int) else f".{abbreviate(step)}" for step in path)
        name = "a NUL" if bad.group() == "\0" else "a lone surrogate"
        raise SchemaError(f"{where.lstrip('.') or 'document'}: {what} holds {name} ('{repr(bad.group())[1:-1]}')")


def record(raw, where: str, fields: dict, required: tuple[str, ...] = (),
           entries: str | None = "entries", schema: str | None = None) -> dict:
    """``raw`` as a record of a JSON grammar: an object whose every key is
    in ``fields`` and of the kind ``fields`` maps it to (null is of no
    kind), and which has every key in ``required``. Keys are checked in
    document order, where an unknown one names every unknown key; then
    the first missing key is named in the tuple's order; then, when
    ``schema`` names a document's identifier, its ``"schema"`` key must
    hold it. ``entries`` names what must be objects when the record is
    an array entry; None words the message for a single record."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{where} must be an object" if entries is None else f"{where}: {entries} must be objects")
    for key, value in raw.items():
        try:
            kind = fields[key]
        except KeyError:
            unknown = [abbreviate(k) for k in sorted(raw.keys() - fields.keys())]
            raise SchemaError(f"{where}: unsupported key(s) {unknown}") from None
        if kind is TEXT:
            if isinstance(value, str) and value:
                continue
        elif kind is None or isinstance(value, kind):
            continue
        raise SchemaError(f"{where}: '{key}' must be {_KIND_NAMES[kind]}, got {literal(value)}")
    for key in required:
        if key not in raw:
            raise SchemaError(f"{where}: missing required key '{key}'")
    if schema is not None and raw.get("schema") != schema:
        raise SchemaError(f'{where} must declare "schema": "{schema}"')
    return raw


class SusmineError(Exception):
    """Base class for all engine errors."""


class SchemaError(SusmineError):
    """A document is valid JSON but does not match its schema."""


class IntegrityError(SusmineError):
    """An event log violates its structural invariants (strict ingest)."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        extra = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"log integrity violations: {lines}{extra}")


class UnknownComponentError(SusmineError):
    """A component reference does not resolve against the log."""


class UnknownScopeError(SusmineError):
    """A scope label is not part of the active scope set."""


class UnknownUnitError(SusmineError):
    """A unit identifier is not declared in the unit registry."""


class NoConversionPathError(SusmineError):
    """No chain of declared conversions links the two units."""


class UnitMismatchError(SusmineError):
    """Quantities in incompatible units met where one unit is required."""


class InexactSumError(SusmineError):
    """An exact inventory sum needs more significant digits than it may keep."""


class UncharacterizedFlowError(SusmineError):
    """Strict characterization hit a flow with no factor table entry."""

    def __init__(self, flow: str, unit: str, direction: str):
        self.flow = flow
        self.unit = unit
        self.direction = direction
        super().__init__(f"no characterization entry for flow '{abbreviate(flow)}' [{abbreviate(unit)}, {direction}]")


class NonFiniteImpactError(SusmineError):
    """An impact product or sum overflowed the float range, or an impact
    per functional unit fell below its normal range."""


class ZeroOutputError(SusmineError):
    """Functional-unit scaling found zero measured output in the log, or
    a scale whose float is 0 or subnormal."""


class NoTargetsError(SusmineError):
    """An allocation rule selected an empty target set."""


class MissingAttributeError(SusmineError):
    """A proportional allocation key names an attribute a target lacks."""


class InvalidAllocationKeyError(SusmineError):
    """Allocation key values are unusable (e.g. negative attribute values)."""


class DuplicateSourceError(SusmineError):
    """Two allocation rules name the same source component."""


class LogMismatchError(SusmineError):
    """Pipeline results were computed on a different log than the graph."""


class MissingFixtureError(SusmineError):
    """A manifest entry points at a fixture file that does not exist."""
