"""Catalog serialization (JSON, CSV) and staggered ASCII rendering.

Single pattern objects use the schema

    {"schema": "frieze/1", "kind": "y"|"coxeter", "width": n, "rows": [[...]]}

with integer entries as JSON ints and non-integers as "p/q" strings, so no
value ever passes through a float.  A catalog wraps a sorted pattern list
with generation parameters and per-pattern orbit metadata:

    {"schema": "frieze-catalog/1", "kind": ..., "width": ..., "parameters":
     {...}, "patterns": [{"id": ..., "tuple": ..., "orbit_root": ...,
     "orbit_size": ..., "intrinsic_period": ..., "glide_shift": ...,
     "rows": [[...]]}, ...]}

A built catalog holds its patterns as core.OrbitPatterns, one root per
rotation orbit, found once, when the patterns are generated; its entries
are built when they are read.  CSV and table output (through entry_keys)
and the JSON writer read each entry's key and rows off its orbit's root
instead, so they build no entry.  write_catalog_json streams a catalog's
text one entry at a time, and renders each distinct cell value once.

read_patterns streams a catalog file, one entry at a time, and reads any
other file, or one the streamed read fails on, whole with json.load, so
errors read as json.load's.  Both paths share the head and entry checks of
raw_patterns_from_obj; catalog_from_obj adds the catalog-only ones.  These
raise ValueError naming the field at fault.

CSV catalogs carry only the identifying tuples (full entry tuple for Y,
quiddity for Coxeter), one column per letter, in the same order as JSON.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from itertools import chain
from operator import eq
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, TextIO

from .core import (InconsistentDomain, OrbitPatterns, PatternKind, PeriodicPattern, glide_shift,
                   key_of_rows)

if TYPE_CHECKING:
    from fractions import Fraction

PATTERN_SCHEMA = "frieze/1"
CATALOG_SCHEMA = "frieze-catalog/1"
KEY_NAMES = {PatternKind.Y: "tuple", PatternKind.COXETER: "quiddity"}
ORBIT_FIELDS = ("orbit_root", "orbit_size", "intrinsic_period", "glide_shift")
_CHUNK = 1 << 16  # characters read_patterns reads at a time
_MAX_VALUE = 1 << 22  # characters of one value it holds before it reads the file whole
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # as json counts it


def _value_to_json(v: "int | Fraction"):
    return int(v) if v.denominator == 1 else str(v)


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


def pattern_to_obj(p: PeriodicPattern) -> dict:
    return {
        "schema": PATTERN_SCHEMA,
        "kind": p.kind.value,
        "width": p.width,
        "rows": [[_value_to_json(v) for v in row] for row in p.rows],
    }


def raw_pattern_from_obj(obj: dict) -> tuple[PatternKind, int, list[list[Fraction]]]:
    """Decode without validating invariants (the verifier checks them itself)."""
    if _schema_of(obj) != PATTERN_SCHEMA:
        raise ValueError(f"expected schema {PATTERN_SCHEMA!r}, got {_schema_of(obj)!r}")
    return raw_patterns_from_obj(obj)[0]


def _pattern(where: str, kind: PatternKind, width: int, rows) -> PeriodicPattern:
    try:
        return PeriodicPattern(kind, width, rows)
    except InconsistentDomain as exc:
        raise ValueError(f"{where} holds an invalid pattern: {exc}") from None


def pattern_from_obj(obj: dict) -> PeriodicPattern:
    """A pattern document as a PeriodicPattern; raises ValueError for a malformed
    or invalid one."""
    return _pattern("pattern document", *raw_pattern_from_obj(obj))


class CatalogEntry(NamedTuple):
    id: int
    key_tuple: tuple[int, ...]
    pattern: PeriodicPattern
    orbit_root: int
    orbit_size: int
    intrinsic_period: int
    glide_shift: int


class Catalog(NamedTuple):
    kind: PatternKind
    width: int
    parameters: dict
    entries: Sequence[CatalogEntry]  # built: held per rotation orbit; loaded: a tuple


class _OrbitEntries(Sequence):
    """The entries of a built catalog, held as the core.OrbitPatterns of its
    patterns: entry i is built when it is read, from its orbit's root at its
    shift and the orbit's fields, which source(i) reads without building it.
    It compares equal to the tuple of the same entries, and a slice of it is
    that tuple's slice.

    An orbit's root and size are its `heads` row, its size is its intrinsic
    period, and glide_shift is shift-invariant, so it is found once, at the
    orbit's root pattern.
    """

    def __init__(self, patterns: OrbitPatterns):
        self.patterns = patterns
        self._glides = list(map(glide_shift, patterns.roots))

    def __len__(self) -> int:
        return len(self.patterns)

    def source(self, i: int) -> tuple:
        """(i, key, rows, shift, orbit fields) of entry i, whose rows are
        `rows`, its orbit root's, rotated left by `shift`."""
        k, s = self.patterns.locate(i)
        root, (head, size) = self.patterns.roots[k], self.patterns.heads[k]
        return (i, key_of_rows(root.kind, root.width, root.rows, s), root.rows, s,
                (head, size, size, self._glides[k]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i, key, _, _, fields = self.source(range(len(self))[i])
        return CatalogEntry(i, key, self.patterns[i], *fields)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _OrbitEntries)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


def y_catalog(width: int, bounds: Optional[Sequence[int]] = None,
              parallelism: int = 1) -> Catalog:
    """Catalog of all arithmetic Y patterns of a width, sorted by diagonal:
    the re-verified search hits, held as one root per rotation orbit keyed
    by its first row, and each entry built when it is read."""
    from . import search
    patterns = search.y_solutions(width, bounds=bounds, parallelism=parallelism).patterns
    if width in (3, 4) and bounds is None:
        boxes = search.w3_boxes() if width == 3 else search.w4_boxes()
        parameters = {"mode": "proven-boxes", "boxes": [list(b.bounds) for b in boxes]}
    else:
        used = bounds if bounds is not None else search.DEFAULT_GENERIC_BOUNDS[width]
        parameters = {"mode": "generic", "bounds": list(used)}
    held = OrbitPatterns([p.rows[1] for p in patterns], patterns.__getitem__)
    return Catalog(PatternKind.Y, width, parameters, _OrbitEntries(held))


def coxeter_catalog(width: int) -> Catalog:
    """Catalog of all arithmetic Coxeter friezes of a width, one per
    triangulation, keyed by quiddity.  Its entries hold one root pattern
    per rotation orbit and build each entry when it is read."""
    from . import coxeter
    parameters = {"mode": "triangulations", "polygon": width + 3}
    return Catalog(PatternKind.COXETER, width, parameters,
                   _OrbitEntries(coxeter.enumerate_frieze(width)))


def catalog_to_obj(catalog: Catalog) -> dict:
    key_name = KEY_NAMES[catalog.kind]
    patterns = []
    for entry in catalog.entries:
        obj = {"id": entry.id, key_name: list(entry.key_tuple)}
        if catalog.kind is PatternKind.Y:
            obj["diagonal"] = list(entry.key_tuple[:catalog.width])
        obj.update({name: getattr(entry, name) for name in ORBIT_FIELDS})
        obj["rows"] = pattern_to_obj(entry.pattern)["rows"]
        patterns.append(obj)
    return {
        "schema": CATALOG_SCHEMA,
        "kind": catalog.kind.value,
        "width": catalog.width,
        "parameters": catalog.parameters,
        "patterns": patterns,
    }


def catalog_from_obj(obj: dict) -> Catalog:
    """A catalog document as a Catalog; raises ValueError for a malformed one."""
    if _schema_of(obj) != CATALOG_SCHEMA:
        raise ValueError(f"expected schema {CATALOG_SCHEMA!r}, got {_schema_of(obj)!r}")
    raw = list(_entries_of_obj(obj))
    _require("catalog", obj, ("parameters",))
    if type(obj["parameters"]) is not dict:
        raise ValueError(f"catalog parameters must be a dict, got {obj['parameters']!r}")
    kind, width = _head(obj)
    key_name = KEY_NAMES[kind]
    entries = []
    for i, (_, _, rows, pat) in enumerate(raw):
        _require(f"catalog entry {i}", pat, ("id", key_name, *ORBIT_FIELDS))
        if type(pat[key_name]) is not list:
            raise ValueError(f"catalog entry {i} {key_name} must be a list, got {pat[key_name]!r}")
        pattern = _pattern(f"catalog entry {i}", kind, width, rows)
        entries.append(CatalogEntry(pat["id"], tuple(pat[key_name]), pattern,
                                    *[pat[name] for name in ORBIT_FIELDS]))
    return Catalog(kind, width, dict(obj["parameters"]), tuple(entries))


_KEY_SEP = ",\n" + " " * 8
_CELL_SEP = ",\n" + " " * 10
_ROW_SEP = "\n        ],\n        [\n          "


def _key_json(cells: Iterable[str]) -> str:
    """A key tuple, given as the strings of its ints, as it reads in its catalog entry."""
    return "[\n        " + _KEY_SEP.join(cells) + "\n      ]"


class _CellJson(dict):
    """Cell value -> its JSON text, each value rendered once; an int and a
    Fraction that are equal render the same."""

    def __missing__(self, value) -> str:
        self[value] = text = json.dumps(_value_to_json(value))
        return text


def _entry_sources(catalog: Catalog) -> Iterator[tuple]:
    """_OrbitEntries.source of each entry in catalog order, building no entry;
    a loaded catalog's entries are taken as roots at shift 0."""
    entries = catalog.entries
    if isinstance(entries, _OrbitEntries):
        return map(entries.source, range(len(entries)))
    return ((entry.id, entry.key_tuple, entry.pattern.rows, 0, entry[3:])  # [3:]: ORBIT_FIELDS
            for entry in entries)


def _catalog_json_parts(catalog: Catalog) -> Iterator[str]:
    """The text of json.dumps(catalog_to_obj(catalog), indent=2) + "\\n": the
    head, each entry, then the tail.  An entry is written from a fixed
    template, its key and counts as the ints a built catalog holds (with an
    indent, json.dumps runs its pure-Python encoder, several times slower)."""
    head = json.dumps({"schema": CATALOG_SCHEMA, "kind": catalog.kind.value,
                       "width": catalog.width, "parameters": catalog.parameters},
                      indent=2)
    yield head[:-2] + ',\n  "patterns": ['
    is_y = catalog.kind is PatternKind.Y
    key_name = KEY_NAMES[catalog.kind]
    cell = _CellJson().__getitem__
    n = 0
    for n, (i, key, rows, s, (root, size, period, glide)) in enumerate(_entry_sources(catalog), 1):
        diagonal = (f'      "diagonal": {_key_json(map(str, key[:catalog.width]))},\n'
                    if is_y else "")
        cells = _ROW_SEP.join([_CELL_SEP.join(map(cell, row[s:] + row[:s])) for row in rows])
        yield (
            f'{"," if n > 1 else ""}\n    {{\n      "id": {i},\n'
            f'      "{key_name}": {_key_json(map(str, key))},\n{diagonal}'
            f'      "orbit_root": {root},\n'
            f'      "orbit_size": {size},\n'
            f'      "intrinsic_period": {period},\n'
            f'      "glide_shift": {"null" if glide is None else glide},\n'
            f'      "rows": [\n        [\n          {cells}\n        ]\n      ]\n    }}')
    yield "\n  ]\n}\n" if n else "]\n}\n"


def write_catalog_json(catalog: Catalog, fh: TextIO) -> None:
    """Write catalog_to_json(catalog) to the text file fh, each entry as it is formed."""
    fh.writelines(_catalog_json_parts(catalog))


def catalog_to_json(catalog: Catalog) -> str:
    """The text of json.dumps(catalog_to_obj(catalog), indent=2) + "\\n"."""
    return "".join(_catalog_json_parts(catalog))


def catalog_from_json(text: str) -> Catalog:
    return catalog_from_obj(json.loads(text))


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


def raw_patterns_from_obj(obj: dict) -> list[tuple[PatternKind, int, list[list[Fraction]]]]:
    """The kind, width and rows of each pattern of a pattern or catalog document.

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
    buf, pos, eof = "", 0, False
    decode = json.JSONDecoder().raw_decode

    def more(size: int) -> None:
        nonlocal buf, pos, eof
        text = fh.read(size)
        buf, pos, eof = buf[pos:] + text, 0, not text

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
    malformed file raises what raw_patterns_from_obj(json.load(file)) would.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return consume(_streamed(fh))
        except _Unstreamable:
            fh.seek(0)
            return consume(_entries_of_obj(json.load(fh)))


def tuple_header(kind: PatternKind, width: int) -> tuple[str, ...]:
    """CSV column names: entry letters for Y, q0..q{n+2} for Coxeter."""
    if kind is PatternKind.COXETER:
        return tuple(f"q{i}" for i in range(width + 3))
    count = width * (width + 3) // 2
    if count <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:count])
    return tuple(f"v{i:02d}" for i in range(count))


def entry_keys(catalog: Catalog) -> Iterator[tuple]:
    """The key of each entry in catalog order, building no entry: a built
    catalog's read off its orbit roots, a loaded one's as its file states it."""
    return (source[1] for source in _entry_sources(catalog))


def catalog_to_csv(catalog: Catalog) -> str:
    header = tuple_header(catalog.kind, catalog.width)
    lines = [",".join(header)]
    lines += [",".join(map(str, key)) for key in entry_keys(catalog)]
    return "\n".join(lines) + "\n"


def tuples_from_csv(text: str) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    lines = [line for line in text.split("\n") if line]
    if not lines:
        raise ValueError("CSV text has no header line")
    header = tuple(lines[0].split(","))
    rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row {row} does not match header width {len(header)}")
    return header, rows


def render_ascii(pattern: PeriodicPattern) -> str:
    """Staggered text layout: row m shifted right by m half-cells, two
    copies of each row so the glide repetition is visible."""
    total = 2 * pattern.period
    texts = [[str(row[k % pattern.period]) for k in range(total)]
             for row in pattern.rows]
    cell = max(len(t) for row in texts for t in row) + 1
    cell += cell % 2
    lines = []
    for m, row in enumerate(texts):
        line = " " * (m * cell // 2)
        line += "".join(t.ljust(cell) for t in row)
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"
