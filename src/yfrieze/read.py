"""The read side of the pattern and catalog formats, which `verify` and `render` use.

read_patterns streams a catalog file, one entry at a time, and reads any
other file, or one the streamed read fails on, whole with json.load, so
errors read as json.load's.  Both paths share the head and entry checks
of _head and _rows_from_json, which raise ValueError naming the field at
fault, and check no pattern invariant.  Only the reading commands import
this module, so no other command compiles it.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, TextIO

from .core import PatternKind
from .io import CATALOG_SCHEMA, PATTERN_SCHEMA

if TYPE_CHECKING:
    from fractions import Fraction

_CHUNK = 1 << 16  # characters read_patterns reads at a time
_MAX_VALUE = 1 << 22  # characters of one value it holds before it reads the file whole
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # as json counts it


def _value_from_json(x) -> "int | Fraction":
    if type(x) is int:  # JSON true and false load as bool, an int subclass
        return x
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+/[0-9]*[1-9][0-9]*", x):
        from fractions import Fraction
        return Fraction(x)
    raise ValueError(f"pattern entries must be ints or 'p/q' strings, got {x!r}")


def _require(where: str, obj: dict, fields: Sequence[str]) -> None:
    missing = [name for name in fields if name not in obj]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")


def _rows_from_json(pattern, index: Optional[int] = None) -> list:
    """A pattern object's rows: all-int lists as they are (one type scan), else value by value."""
    rows = pattern.get("rows") if type(pattern) is dict else None
    if type(rows) is not list or not set(map(type, rows)) <= {list}:
        where = "pattern" if index is None else f"catalog entry {index}"
        if type(pattern) is not dict:
            raise ValueError(f"{where} is not an object: {pattern!r}")
        _require(where, pattern, ("rows",))
        raise ValueError(f"{where} rows must be a list of lists, got {rows!r}")
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    return [[_value_from_json(v) for v in row] for row in rows]


def _schema_of(obj) -> Optional[str]:
    """The schema a decoded JSON value names: None unless it is an object."""
    return obj.get("schema") if isinstance(obj, dict) else None


def _head(obj) -> tuple[PatternKind, int]:
    """The kind and width of a pattern or catalog document, checked with its
    top-level fields: raises ValueError naming the field at fault."""
    schema = _schema_of(obj)
    if schema not in (PATTERN_SCHEMA, CATALOG_SCHEMA):
        raise ValueError(f"unrecognized schema {schema!r}")
    name, body = ("pattern", "rows") if schema == PATTERN_SCHEMA else ("catalog", "patterns")
    _require(name, obj, ("kind", "width", body))
    kind = PatternKind(obj["kind"])
    width = obj["width"]
    if type(width) is not int:  # JSON true and false load as bool, an int subclass
        raise ValueError(f"width must be an int, got {width!r}")
    if schema == CATALOG_SCHEMA and type(obj["patterns"]) is not list:
        raise ValueError(f"catalog patterns must be a list, got {obj['patterns']!r}")
    return kind, width


def _entries_of_obj(obj) -> Iterator[tuple]:
    """read_patterns' (kind, width, rows, entry) of each pattern of a decoded document."""
    kind, width = _head(obj)
    if _schema_of(obj) == PATTERN_SCHEMA:
        yield kind, width, _rows_from_json(obj), None
    else:
        for i, entry in enumerate(obj["patterns"]):
            yield kind, width, _rows_from_json(entry, i), entry


def raw_patterns_from_obj(obj) -> list[tuple[PatternKind, int, list[list[Fraction]]]]:
    """The kind, width and rows of each pattern of a decoded pattern or catalog document.

    Raises ValueError naming the entry and field at fault, and checks no
    pattern invariant.
    """
    return [raw[:3] for raw in _entries_of_obj(obj)]


class _Unstreamable(Exception):
    """The streamed read stopped short: read the file whole."""


def _streamed(fh: TextIO) -> Iterator[tuple]:
    """read_patterns' entries of a catalog file, read _CHUNK characters at a
    time: the top-level object is walked key by key, and each entry decoded
    when it is reached.  A value that fails to decode, or ends the buffer (a
    number may go on), is decoded again after a read twice the last one, up
    to _MAX_VALUE characters.  Raises _Unstreamable on any error, and unless
    the file is a catalog object with distinct keys whose schema, kind and
    width precede patterns.
    """
    import json
    buf, pos, eof = "", 0, False
    decode = json.JSONDecoder().raw_decode

    def more(size: int) -> None:
        """Append a read of size characters to the unread rest of the buffer.
        The consumed buffer is dropped before the read, and a new chunk after
        nothing unread is taken as it is, so at most the rest, the chunk and
        their join are held at once."""
        nonlocal buf, pos, eof
        rest, buf = buf[pos:], ""
        text = fh.read(size)
        buf, pos, eof = rest + text if rest else text, 0, not text

    def peek() -> str:
        """The next character that is not whitespace, "" at the end of the file."""
        nonlocal pos
        while (pos := _WHITESPACE.match(buf, pos).end()) == len(buf) and not eof:
            more(_CHUNK)
        return buf[pos:pos + 1]

    def take(chars: str) -> str:
        nonlocal pos
        if not peek() or buf[pos] not in chars:
            raise _Unstreamable
        pos += 1
        return buf[pos - 1]

    def value():
        nonlocal pos
        size = _CHUNK
        while True:
            peek()
            try:
                obj, end = decode(buf, pos)
                if end < len(buf) or eof:
                    pos = end
                    return obj
            except json.JSONDecodeError:
                if eof or len(buf) - pos > _MAX_VALUE:  # a syntax error reads no further
                    raise
            more(size)
            size *= 2

    try:
        take("{")
        head: dict = {}
        sep = take("}") if peek() == "}" else ","
        while sep == ",":
            key = value()
            take(":")
            if type(key) is not str or key in head:
                raise _Unstreamable
            if key == "patterns":
                if _schema_of(head) != CATALOG_SCHEMA:
                    raise _Unstreamable
                kind, width = _head({**head, key: []})  # kind or width after it: ValueError
                take("[")
                sep, i = take("]") if peek() == "]" else ",", 0
                while sep == ",":
                    entry = value()
                    yield kind, width, _rows_from_json(entry, i), entry
                    sep, i = take(",]"), i + 1
            head[key] = None if key == "patterns" else value()
            sep = take(",}")
        if peek() or "patterns" not in head:
            raise _Unstreamable
    except (ValueError, RecursionError):  # RecursionError: JSON nested too deep
        raise _Unstreamable from None


def read_patterns(path: str, consume: Callable[[Iterator[tuple]], object]):
    """consume(the (kind, width, rows, entry) of each pattern of the pattern or
    catalog file at path), entry being the catalog entry object or None.

    A catalog is streamed as consume reads it.  Any other file, or one the
    streamed read stops short on, is read whole and consume starts again; a
    malformed file raises what _entries_of_obj(json.load(file)) would: a
    ValueError (json.JSONDecodeError and UnicodeDecodeError included) or a
    RecursionError for JSON nested too deep, and OSError if it cannot be read.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return consume(_streamed(fh))
        except _Unstreamable:
            import json
            fh.seek(0)
            return consume(_entries_of_obj(json.load(fh)))
