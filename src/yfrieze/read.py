"""The streamed reader of pattern and catalog files, which `verify` and `render` use.

read_patterns streams a catalog file, one entry at a time, and reads any
other file, or one the streamed read fails on, whole with json.load, so
errors read as json.load's.  Both paths share io's head and entry checks,
those of io.raw_patterns_from_obj, which raise ValueError naming the field
at fault.  Only the reading commands import this module, so no other
command compiles it.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, TextIO

from .io import CATALOG_SCHEMA, _entries_of_obj, _head, _rows_from_json, _schema_of

_CHUNK = 1 << 16  # characters read_patterns reads at a time
_MAX_VALUE = 1 << 22  # characters of one value it holds before it reads the file whole
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # as json counts it


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
    malformed file raises what io.raw_patterns_from_obj(json.load(file)) would.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return consume(_streamed(fh))
        except _Unstreamable:
            import json
            fh.seek(0)
            return consume(_entries_of_obj(json.load(fh)))
