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
patterns are generated.  CSV and table output (through entry_keys) and the
JSON writer read each entry's key and rows off its orbit's root at its
shift, so they build no pattern.  The JSON writer writes an orbit's `heads`
row as each member's orbit_root and orbit_size, the size again as its
intrinsic_period, and core.orbit_glide of the size as its glide_shift, a
theorem (see core), so it searches for no glide.
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
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO

from .core import OrbitPatterns, PatternKind, PeriodicPattern, key_of_rows, orbit_glide

PATTERN_SCHEMA = "frieze/1"
CATALOG_SCHEMA = "frieze-catalog/1"
KEY_NAMES = {PatternKind.Y: "tuple", PatternKind.COXETER: "quiddity"}
ORBIT_FIELDS = ("orbit_root", "orbit_size", "intrinsic_period", "glide_shift")


class Catalog(NamedTuple):
    """A built catalog: its generation parameters and its patterns, held as
    one root per rotation orbit, found once, when they were generated."""

    kind: PatternKind
    width: int
    parameters: dict
    patterns: OrbitPatterns


def y_catalog(width: int, bounds: Optional[Sequence[int]] = None,
              parallelism: int = 1) -> Catalog:
    """Catalog of all arithmetic Y patterns of a width, sorted by diagonal,
    with the parameters of its search.y_plan: the re-verified search hits,
    held as one root per rotation orbit keyed by its first row."""
    from . import search
    parameters, _ = search.y_plan(width, bounds)
    patterns = search.y_solutions(width, bounds, parallelism)
    held = OrbitPatterns([p.rows[1] for p in patterns], patterns.__getitem__)
    return Catalog(PatternKind.Y, width, parameters, held)


def coxeter_catalog(width: int) -> Catalog:
    """Catalog of all arithmetic Coxeter friezes of a width, one per
    triangulation, keyed by quiddity, held as one root per rotation orbit."""
    from . import coxeter
    parameters = {"mode": "triangulations", "polygon": width + 3}
    return Catalog(PatternKind.COXETER, width, parameters,
                   coxeter.enumerate_frieze(width))


_KEY_SEP = ",\n" + " " * 8
_CELL_SEP = ",\n" + " " * 10
_ROW_SEP = "\n        ],\n        [\n          "


def _key_json(cells: Iterable[str]) -> str:
    """A key tuple, given as the strings of its ints, as it reads in its catalog entry."""
    return "[\n        " + _KEY_SEP.join(cells) + "\n      ]"


class _CellJson(dict):
    """Cell value -> its JSON text, each value rendered once.  A built
    catalog holds only ints, whose JSON text is their str."""

    def __missing__(self, value: int) -> str:
        self[value] = text = str(value)
        return text


def _catalog_json_parts(catalog: Catalog) -> Iterator[str]:
    """The catalog's JSON text, as json.dumps of its document with indent=2
    and a newline would write it: the head, each entry, then the tail.  An
    entry is written from a fixed template, its key and counts as the ints
    the catalog holds (with an indent, json.dumps runs its pure-Python
    encoder, several times slower).
    The boundary rows are joined once.  The first time an orbit is met, its
    root's interior cells are rendered into a flat tuple, whose slices,
    rotated to a member's shift, are joined into its rows."""
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
    held = catalog.patterns
    orbits: dict = {}  # orbit -> its root's interior cells, row by row in one tuple
    for i in range(len(held)):
        k, s = held.locate(i)
        root = held.roots[k]
        key = key_of_rows(catalog.kind, catalog.width, root.rows, s)
        diagonal = (f'      "diagonal": {_key_json(map(str, key[:catalog.width]))},\n'
                    if is_y else "")
        if k not in orbits:
            orbits[k] = tuple(map(cell, chain.from_iterable(root.rows[len(top):-len(top)])))
        flat, (head, size) = orbits[k], held.heads[k]
        cells = _ROW_SEP.join(top + [_CELL_SEP.join(flat[j + s:j + cols] + flat[j:j + s])
                                     for j in range(0, len(flat), cols)] + bottom)
        yield (
            f'{"," if i else ""}\n    {{\n      "id": {i},\n'
            f'      "{key_name}": {_key_json(map(str, key))},\n{diagonal}'
            f'      "orbit_root": {head},\n'
            f'      "orbit_size": {size},\n'
            f'      "intrinsic_period": {size},\n'
            f'      "glide_shift": {orbit_glide(catalog.kind, size)},\n'
            f'      "rows": [\n        [\n          {cells}\n        ]\n      ]\n    }}')
    yield "\n  ]\n}\n" if held else "]\n}\n"


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
    """The key of each entry in catalog order, read off its orbit's root at
    its shift, building no pattern."""
    held = catalog.patterns
    return (key_of_rows(catalog.kind, catalog.width, held.roots[k].rows, s)
            for k, s in map(held.locate, range(len(held))))


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
