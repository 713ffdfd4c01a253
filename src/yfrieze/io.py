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

One decoder, raw_patterns_from_obj, checks the structure of both documents;
catalog_from_obj adds only the checks that belong to catalogs.  Both raise
only ValueError, naming the entry and field at fault.

CSV catalogs carry only the identifying tuples (full entry tuple for Y,
quiddity for Coxeter), one column per letter, in the same order as JSON.
"""

from __future__ import annotations

import json
import re
import string
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Optional, Sequence

from .core import (InconsistentDomain, PatternKind, PeriodicPattern, glide_shift,
                   intrinsic_period)

PATTERN_SCHEMA = "frieze/1"
CATALOG_SCHEMA = "frieze-catalog/1"
KEY_NAMES = {PatternKind.Y: "tuple", PatternKind.COXETER: "quiddity"}
ORBIT_FIELDS = ("orbit_root", "orbit_size", "intrinsic_period", "glide_shift")


def _value_to_json(v: "int | Fraction"):
    return int(v) if v.denominator == 1 else str(v)


def _value_from_json(x) -> "int | Fraction":
    if type(x) is int:  # JSON true and false load as bool, an int subclass
        return x
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+/[0-9]*[1-9][0-9]*", x):
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


def pattern_from_obj(obj: dict) -> PeriodicPattern:
    kind, width, rows = raw_pattern_from_obj(obj)
    return PeriodicPattern(kind, width, tuple(tuple(r) for r in rows))


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
    entries: tuple[CatalogEntry, ...]


def _with_orbits(kind: PatternKind, width: int, parameters: dict,
                 keys: Sequence[tuple[int, ...]],
                 patterns: Sequence[PeriodicPattern]) -> Catalog:
    from . import ymap
    # intrinsic_period and glide_shift are invariant under cyclic shifts,
    # so each orbit's are computed once, at its root.
    fields = {}
    for orbit in ymap.orbit_decomposition(patterns):
        root = patterns[orbit[0]]
        shared = (orbit[0], len(orbit), intrinsic_period(root), glide_shift(root))
        fields.update(dict.fromkeys(orbit, shared))
    entries = tuple(
        CatalogEntry(i, tuple(keys[i]), patterns[i], *fields[i])
        for i in range(len(patterns)))
    return Catalog(kind, width, parameters, entries)


def y_catalog(width: int, bounds: Optional[Sequence[int]] = None,
              parallelism: int = 1) -> Catalog:
    """Catalog of all arithmetic Y patterns of a width, sorted by diagonal."""
    from . import search
    sols = search.y_solutions(width, bounds=bounds, parallelism=parallelism)
    patterns = search.patterns_of(sols)
    if width in (3, 4) and bounds is None:
        boxes = search.w3_boxes() if width == 3 else search.w4_boxes()
        parameters = {"mode": "proven-boxes", "boxes": [list(b.bounds) for b in boxes]}
    else:
        used = bounds if bounds is not None else search.DEFAULT_GENERIC_BOUNDS[width]
        parameters = {"mode": "generic", "bounds": list(used)}
    return _with_orbits(PatternKind.Y, width, parameters, sols.full_tuples, patterns)


def coxeter_catalog(width: int) -> Catalog:
    """Catalog of all arithmetic Coxeter friezes of a width, one per
    triangulation, keyed by quiddity."""
    from . import coxeter
    patterns = coxeter.enumerate_frieze(width)
    keys = [p.rows[2] for p in patterns]
    parameters = {"mode": "triangulations", "polygon": width + 3}
    return _with_orbits(PatternKind.COXETER, width, parameters, keys, patterns)


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
    raw = raw_patterns_from_obj(obj)
    _require("catalog", obj, ("parameters",))
    if type(obj["parameters"]) is not dict:
        raise ValueError(f"catalog parameters must be a dict, got {obj['parameters']!r}")
    kind, width = PatternKind(obj["kind"]), obj["width"]  # checked by raw_patterns_from_obj
    key_name = KEY_NAMES[kind]
    entries = []
    for i, (pat, (_, _, rows)) in enumerate(zip(obj["patterns"], raw)):
        _require(f"catalog entry {i}", pat, ("id", key_name, *ORBIT_FIELDS))
        if type(pat[key_name]) is not list:
            raise ValueError(f"catalog entry {i} {key_name} must be a list, got {pat[key_name]!r}")
        try:
            pattern = PeriodicPattern(kind, width, rows)
        except InconsistentDomain as exc:
            raise ValueError(f"catalog entry {i} holds an invalid pattern: {exc}") from None
        entries.append(CatalogEntry(pat["id"], tuple(pat[key_name]), pattern,
                                    *[pat[name] for name in ORBIT_FIELDS]))
    return Catalog(kind, width, dict(obj["parameters"]), tuple(entries))


def _key_json(key: Sequence[int]) -> str:
    """A key tuple of ints as it reads in its catalog entry."""
    return "[\n        " + ",\n        ".join(map(str, key)) + "\n      ]"


_CELL_SEP = ",\n" + " " * 10
_ROW_SEP = "\n        ],\n        [\n          "


def _rows_json(rows: Sequence[Sequence]) -> str:
    """A pattern's rows of ints and Fractions as they read in its catalog entry."""
    cells = _ROW_SEP.join([_CELL_SEP.join(map(str, row)) for row in rows])
    if "/" in cells:  # a non-integral Fraction, written as a "p/q" string
        cells = _ROW_SEP.join([_CELL_SEP.join(json.dumps(_value_to_json(v)) for v in row)
                               for row in rows])
    return "[\n        [\n          " + cells + "\n        ]\n      ]"


def catalog_to_json(catalog: Catalog) -> str:
    """The text of json.dumps(catalog_to_obj(catalog), indent=2) + "\\n".

    Each entry is written from a fixed template, its key and counts as the
    ints a built catalog holds: with an indent, json.dumps runs its
    pure-Python encoder, several times slower on large catalogs.
    """
    head = json.dumps({"schema": CATALOG_SCHEMA, "kind": catalog.kind.value,
                       "width": catalog.width, "parameters": catalog.parameters},
                      indent=2)
    is_y = catalog.kind is PatternKind.Y
    key_name = KEY_NAMES[catalog.kind]
    entries = []
    for entry in catalog.entries:
        diagonal = (f'      "diagonal": {_key_json(entry.key_tuple[:catalog.width])},\n'
                    if is_y else "")
        entries.append(
            f'    {{\n      "id": {entry.id},\n'
            f'      "{key_name}": {_key_json(entry.key_tuple)},\n{diagonal}'
            f'      "orbit_root": {entry.orbit_root},\n'
            f'      "orbit_size": {entry.orbit_size},\n'
            f'      "intrinsic_period": {entry.intrinsic_period},\n'
            f'      "glide_shift": {"null" if entry.glide_shift is None else entry.glide_shift},\n'
            f'      "rows": {_rows_json(entry.pattern.rows)}\n    }}')
    patterns = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    return head[:-2] + f',\n  "patterns": {patterns}\n}}\n'


def catalog_from_json(text: str) -> Catalog:
    return catalog_from_obj(json.loads(text))


def raw_patterns_from_obj(obj: dict) -> list[tuple[PatternKind, int, list[list[Fraction]]]]:
    """The kind, width and rows of each pattern of a pattern or catalog document.

    The one structural check of both documents: raises ValueError naming
    the entry and field at fault, and checks no pattern invariant.
    """
    schema = _schema_of(obj)
    if schema not in (PATTERN_SCHEMA, CATALOG_SCHEMA):
        raise ValueError(f"unrecognized schema {schema!r}")
    name, body = ("pattern", "rows") if schema == PATTERN_SCHEMA else ("catalog", "patterns")
    _require(name, obj, ("kind", "width", body))
    kind = PatternKind(obj["kind"])
    width = obj["width"]
    if type(width) is not int:  # JSON true and false load as bool, an int subclass
        raise ValueError(f"width must be an int, got {width!r}")
    if schema == PATTERN_SCHEMA:
        return [(kind, width, _rows_from_json(obj))]
    if type(obj["patterns"]) is not list:
        raise ValueError(f"catalog patterns must be a list, got {obj['patterns']!r}")
    return [(kind, width, _rows_from_json(pat, i)) for i, pat in enumerate(obj["patterns"])]


def tuple_header(kind: PatternKind, width: int) -> tuple[str, ...]:
    """CSV column names: entry letters for Y, q0..q{n+2} for Coxeter."""
    if kind is PatternKind.COXETER:
        return tuple(f"q{i}" for i in range(width + 3))
    count = width * (width + 3) // 2
    if count <= 26:
        return tuple(string.ascii_lowercase[:count])
    return tuple(f"v{i:02d}" for i in range(count))


def catalog_to_csv(catalog: Catalog) -> str:
    header = tuple_header(catalog.kind, catalog.width)
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in entry.key_tuple) for entry in catalog.entries]
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
