"""The JSON codec shared by every epsim document.

Readers take a decoded value and its location `at` and return it typed, or
raise SchemaError("<json path>: expected <type>, got <value>"). A location
is a label string ("" at a document root) or a (parent location, key) pair;
the path text is built only when an error is raised, so reading a large
document formats nothing. Integer fields take JSON integers only, number
fields take integers and floats, and true/false are never numbers.

The writer, dump_json, memoizes arrays by (id, indent) within one call: an
array met a second time at the same indent keeps its text, and from then on
that text is reused, so a list shared by many entries (a .kjs job name's
phases) is encoded twice rather than once per entry. An array met once
keeps no text, and every array is held until the call returns, so that no
other array can take its id.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
from dataclasses import MISSING, fields
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, NoReturn, TypeVar

from .errors import SchemaError

T = TypeVar("T")
E = TypeVar("E", bound=Enum)
Reader = Callable[[Any, Any], T]  # (value, location) -> typed value


def _path_of(at) -> str:
    """Dotted JSON path of a location, e.g. jobs[3].energy.fixed_kj."""
    if not isinstance(at, tuple):
        return at
    parent, key = at
    head = _path_of(parent)
    if isinstance(key, int):
        return f"{head}[{key}]"
    return f"{head}.{key}" if head else str(key)


def fail(at, expected: str, value) -> NoReturn:
    """Raise the reader error for `value` found at `at`."""
    # the text of json.dumps(value, default=str), encoded lazily and cut past
    # 60 characters, so a huge or deeply nested value costs only what is shown
    shown = ""
    try:
        for chunk in json.JSONEncoder(default=str).iterencode(value):
            shown += chunk
            if len(shown) > 60:
                shown = shown[:57] + "..."
                break
    except ValueError:  # an integer too long for int -> str, or a circular reference
        shown = type(value).__name__
    where = _path_of(at)
    message = f"expected {expected}, got {shown}"
    raise SchemaError(f"{where}: {message}" if where else message)


def obj(v, at) -> dict:
    return v if isinstance(v, dict) else fail(at, "object", v)


def seq(v, at) -> list | tuple:
    return v if isinstance(v, (list, tuple)) else fail(at, "array", v)


def integer(v, at) -> int:
    return v if type(v) is int else fail(at, "integer", v)


def number(v, at) -> float:
    # an integer beyond the float range would make float() raise OverflowError
    if type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max):
        return float(v)
    fail(at, "number", v)


def string(v, at) -> str:
    return v if isinstance(v, str) else fail(at, "string", v)


def boolean(v, at) -> bool:
    return v if v is True or v is False else fail(at, "boolean", v)


def enum_of(cls: type[E]) -> Reader[E]:
    members = {m.value: m for m in cls}
    expected = "one of [" + ", ".join(members) + "]"

    def read(v, at) -> E:
        if isinstance(v, str) and v in members:
            return members[v]
        return v if isinstance(v, cls) else fail(at, expected, v)

    return read


def nullable(read: Reader[T]) -> Reader[T | None]:
    return lambda v, at: None if v is None else read(v, at)


def tuple_of(read: Reader[T]) -> Reader[tuple[T, ...]]:
    return lambda v, at: tuple([read(x, (at, i)) for i, x in enumerate(seq(v, at))])


def dict_of(read_key: Reader, read_value: Reader) -> Reader[dict]:
    """A JSON object's entries, each key and value through its reader."""
    return lambda v, at: {read_key(k, (at, k)): read_value(x, (at, k)) for k, x in obj(v, at).items()}


def _missing(at, key: str) -> NoReturn:
    raise SchemaError(f"{_path_of((at, key))}: required field is missing")


def req(o: dict, key: str, at, read: Reader[T]) -> T:
    """Required field `key` of the object `o` found at `at`."""
    return read(o[key], (at, key)) if key in o else _missing(at, key)


def opt(o: dict, key: str, at, read: Reader[T], default: T) -> T:
    """Optional field `key` of the object `o` found at `at`; absent gives `default`."""
    return read(o[key], (at, key)) if key in o else default


def record(cls: type[T], **readers: Reader) -> Reader[T]:
    """Reader of a JSON object into the dataclass `cls`, given a reader for each field.

    An absent field takes its dataclass default; a field without one is required.
    """
    spec = [(f, readers[f.name]) for f in fields(cls)]

    def read(v, at="") -> T:
        o = obj(v, at)
        args = []
        for f, r in spec:
            if f.name in o:
                args.append(r(o[f.name], (at, f.name)))
            elif f.default is not MISSING:
                args.append(f.default)
            elif f.default_factory is not MISSING:
                args.append(f.default_factory())
            else:
                _missing(at, f.name)
        return cls(*args)

    return read


def load_json(path: str | Path, read: Reader[T]) -> T:
    """Parse a JSON file and decode it with `read`; errors name the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax, bad UTF-8 or nesting too deep
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    try:
        return read(raw, "")
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# The writer: the bytes of json.dumps(doc, indent=2), which runs CPython's
# pure-Python encoder whenever an indent is set. Each container is joined
# into one string; exact scalar types are encoded inline through _SCALARS,
# anything else goes through json.encoder's order of isinstance checks.

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    r = float.__repr__(x)
    return _NON_FINITE.get(r, r)


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _key(k) -> str:
    """An object key as json.dumps turns it into a string, before quoting."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True or k is False or k is None:
        return _SCALARS[type(k)](k)
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _encode(o, nl: str, markers: set, memo: dict, _get=_SCALARS.get, _str=encode_basestring_ascii) -> str:
    """`o` as indent-2 JSON; `nl` is a newline plus the indent of the line `o` starts on."""
    # no type is both a container and a scalar, so containers may go first
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        mark = id(o)
        if mark in markers:
            raise ValueError("Circular reference detected")
        key = (mark, len(nl))
        seen = memo.get(key)  # the list itself after its first sight, then (list, text)
        if seen is not None and seen is not o:
            return seen[1]
        markers.add(mark)
        inner = nl + "  "
        parts = [enc(v) if (enc := _get(type(v))) else _encode(v, inner, markers, memo) for v in o]
        markers.discard(mark)
        text = "[" + inner + ("," + inner).join(parts) + nl + "]"
        # keep the text from the list's second sight at this indent on; holding
        # the list keeps its id from going to another list during this call
        memo[key] = o if seen is None else (o, text)
        return text
    if isinstance(o, dict):
        if not o:
            return "{}"
        mark = id(o)
        if mark in markers:
            raise ValueError("Circular reference detected")
        markers.add(mark)
        inner = nl + "  "
        parts = [
            (_str(k) if type(k) is str else _str(_key(k)))
            + (": " + enc(v) if (enc := _get(type(v))) else ": " + _encode(v, inner, markers, memo))
            for k, v in o.items()
        ]
        markers.discard(mark)
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    enc = _get(type(o))
    if enc is not None:
        return enc(o)
    if isinstance(o, str):
        return _str(o)
    if isinstance(o, int):  # IntEnum and other subclasses print as plain integers
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dump_json(doc) -> str:
    """The one document encoding: the text of json.dumps(doc, indent=2) and a trailing newline."""
    return _encode(doc, "\n", set(), {}) + "\n"
