"""Catalogs, their serialization (JSON, CSV) and staggered ASCII rendering.

Single pattern objects use the schema

    {"schema": "frieze/1", "kind": "y"|"coxeter", "width": n, "rows": [[...]]}

with integer entries as JSON ints and non-integers as "p/q" strings, so no
value ever passes through a float.  A catalog wraps a sorted pattern list
with generation parameters and per-pattern orbit metadata:

    {"schema": "frieze-catalog/1", "kind": ..., "width": ..., "parameters":
     {...}, "patterns": [{"id": ..., "tuple": ..., "orbit_root": ...,
     "orbit_size": ..., "intrinsic_period": ..., "glide_shift": ...,
     "rows": [[...]]}, ...]}

A catalog is built, never loaded: it holds its patterns as
core.OrbitPatterns, one root per rotation orbit, found once, when the
patterns are generated; its entries are built when they are read.  CSV and
table output (through entry_keys) and the JSON writer read each entry's key
and rows off its orbit's root instead, so they build no entry.
write_catalog_json streams a catalog's text one entry at a time, and holds
each orbit root's cells as JSON text.

This module writes the formats; `read` reads them and holds their checks.
Only the JSON writer imports json, so CSV and table output load none.

CSV catalogs carry only the identifying tuples (full entry tuple for Y,
quiddity for Coxeter), one column per letter, in the same order as JSON.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from operator import eq
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, TextIO

from .core import OrbitPatterns, PatternKind, PeriodicPattern, glide_shift, key_of_rows

if TYPE_CHECKING:
    from fractions import Fraction

PATTERN_SCHEMA = "frieze/1"
CATALOG_SCHEMA = "frieze-catalog/1"
KEY_NAMES = {PatternKind.Y: "tuple", PatternKind.COXETER: "quiddity"}
ORBIT_FIELDS = ("orbit_root", "orbit_size", "intrinsic_period", "glide_shift")


def _value_to_json(v: "int | Fraction"):
    return int(v) if v.denominator == 1 else str(v)


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
    entries: _OrbitEntries


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
        """(i, key, rows, shift, orbit, orbit fields) of entry i, whose rows
        are `rows`, those of root `orbit`, rotated left by `shift`."""
        k, s = self.patterns.locate(i)
        root, (head, size) = self.patterns.roots[k], self.patterns.heads[k]
        return (i, key_of_rows(root.kind, root.width, root.rows, s), root.rows, s, k,
                (head, size, size, self._glides[k]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i, key, *_, fields = self.source(range(len(self))[i])
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
        import json
        self[value] = text = json.dumps(_value_to_json(value))
        return text


def _entry_sources(catalog: Catalog) -> Iterator[tuple]:
    """_OrbitEntries.source of each entry in catalog order, building no entry."""
    return map(catalog.entries.source, range(len(catalog.entries)))


def _catalog_json_parts(catalog: Catalog) -> Iterator[str]:
    """The catalog's JSON text, as json.dumps of its document with indent=2
    and a newline would write it: the head, each entry, then the tail.  An
    entry is written from a fixed template, its key and counts as the ints
    the catalog holds (with an indent, json.dumps runs its pure-Python
    encoder, several times slower).
    The boundary rows are joined once, and each orbit root's interior cells
    rendered once, into a flat tuple whose slices, rotated to a member's
    shift, are joined into its rows."""
    import json
    head = json.dumps({"schema": CATALOG_SCHEMA, "kind": catalog.kind.value,
                       "width": catalog.width, "parameters": catalog.parameters},
                      indent=2)
    yield head[:-2] + ',\n  "patterns": ['
    is_y = catalog.kind is PatternKind.Y
    key_name = KEY_NAMES[catalog.kind]
    cell = _CellJson().__getitem__
    cols = catalog.width + 3
    zeros, ones = (_CELL_SEP.join(map(cell, [v] * cols)) for v in (0, 1))
    top, bottom = ([zeros], [zeros]) if is_y else ([zeros, ones], [ones, zeros])
    interiors: dict = {}  # orbit -> its root's interior cells, row by row in one tuple
    n = 0
    for n, (i, key, rows, s, k, (root, size, period, glide)) in enumerate(
            _entry_sources(catalog), 1):
        diagonal = (f'      "diagonal": {_key_json(map(str, key[:catalog.width]))},\n'
                    if is_y else "")
        flat = interiors.get(k)
        if flat is None:
            flat = interiors[k] = tuple(map(cell, chain.from_iterable(rows[len(top):-len(top)])))
        cells = _ROW_SEP.join(top + [_CELL_SEP.join(flat[j + s:j + cols] + flat[j:j + s])
                                     for j in range(0, len(flat), cols)] + bottom)
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
    """The catalog's JSON text, joined from the parts write_catalog_json writes."""
    return "".join(_catalog_json_parts(catalog))


def raw_patterns_from_obj(obj) -> list:
    """read.raw_patterns_from_obj, kept under this name only because
    bench/tracing.py traces it here; nothing in the package calls it."""
    from . import read
    return read.raw_patterns_from_obj(obj)


def tuple_header(kind: PatternKind, width: int) -> tuple[str, ...]:
    """CSV column names: entry letters for Y, q0..q{n+2} for Coxeter."""
    if kind is PatternKind.COXETER:
        return tuple(f"q{i}" for i in range(width + 3))
    count = width * (width + 3) // 2
    if count <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:count])
    return tuple(f"v{i:02d}" for i in range(count))


def entry_keys(catalog: Catalog) -> Iterator[tuple]:
    """The key of each entry in catalog order, read off its orbit's root,
    building no entry."""
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
