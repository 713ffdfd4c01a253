"""Oracles the tests check the library against, and the width-3/4 proof layer.

No command runs these; each is a second, independent statement of what a
`yfrieze` function computes:

  * y_south, coxeter_east   the diamond rules solved for one cell, cell by cell;
  * FundamentalDomain       one glide domain of a Y pattern, with
                            expand_domain, domain_of and first_diagonal_of;
  * w3/w4_system_holds      the defining diamond systems, checked exactly;
  * the product-ratio and quadratic steps of the proof of the search boxes;
  * w3_domain, w4_domain    a closed-form domain, its entry tuple read back;
  * one_cell_scan           the Y search's DFS solving one cell at a time;
  * entry_parts             the closed form of every domain entry, at any width;
  * CatalogEntry, entries_of, loaded
                            a built catalog's entries, each field computed
                            from its own pattern;
  * pattern_to_obj, catalog_to_obj
                            the JSON documents the writer's text must equal
                            under json.dumps, and catalog_from_json, which
                            loads a catalog back for the round-trip tests;
  * per_frieze_fibers       ymap.fiber_analysis as a pass over every frieze.

Tests import them as `from oracles import ...` (pyproject puts tests/ on
the path).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, prod
from typing import Iterable, NamedTuple, Sequence

from yfrieze.closedform import W3Entries, W4Entries, _check_diagonal, w3_entries, w4_entries
from yfrieze.core import (PatternKind, PeriodicPattern, _div, _frac, _frac_rows, glide_shift,
                          intrinsic_period, key_of_rows)
from yfrieze.io import CATALOG_SCHEMA, KEY_NAMES, ORBIT_FIELDS, PATTERN_SCHEMA, Catalog
from yfrieze.read import raw_patterns_from_obj
from yfrieze.search import SearchBox
from yfrieze.ymap import CorrespondenceRecord, FiberReport, MapFailure, apply_p


def y_south(w, e, n_val) -> "int | Fraction":
    """Solve the Y rule for the bottom cell: S = W*E/(1+N) - 1.

    Raises ZeroDivisionError when 1 + N == 0.
    """
    return _div(_frac(w) * _frac(e), 1 + _frac(n_val)) - 1


def coxeter_east(w, n_val, s) -> "int | Fraction":
    """Solve the unimodular rule for the right cell: E = (1 + N*S)/W.

    Raises ZeroDivisionError when W == 0.
    """
    return _div(1 + _frac(n_val) * _frac(s), _frac(w))


class FundamentalDomain(NamedTuple("FundamentalDomain", [
        ("width", int), ("rows", "tuple[tuple[Fraction, ...], ...]")])):
    """One glide-symmetry domain: triangular array with n(n+3)/2 entries.

    Row m (1-based, m = 1..width) holds width + 2 - m entries; these are
    the leading entries of the pattern's interior row m.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, width: int, rows: Iterable[Sequence]):
        rows = _frac_rows(rows)
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if len(rows) != width:
            raise ValueError(f"expected {width} domain rows, got {len(rows)}")
        for m, row in enumerate(rows, start=1):
            if len(row) != width + 2 - m:
                raise ValueError(f"domain row {m} must have {width + 2 - m} "
                                 f"entries, got {len(row)}")
        return tuple.__new__(cls, (width, rows))

    def first_diagonal(self) -> tuple[Fraction, ...]:
        return tuple(row[0] for row in self.rows)

    def entry_tuple(self) -> tuple[Fraction, ...]:
        """Entries flattened diagonal-major: column 0 top-down, column 1, ..."""
        # domain row m holds the leading entries of pattern row m; row 0 is never read
        return key_of_rows(PatternKind.Y, self.width, ((),) + self.rows)

    @classmethod
    def from_entry_tuple(cls, width: int, values: Sequence) -> "FundamentalDomain":
        vals = list(values)
        if len(vals) != width * (width + 3) // 2:
            raise ValueError(f"expected {width * (width + 3) // 2} entries for "
                             f"width {width}, got {len(vals)}")
        # the row of each entry; the entries of one row come in column order
        row = key_of_rows(PatternKind.Y, width, [[m] * (width + 3) for m in range(width + 1)])
        return cls(width, [[v for m, v in zip(row, vals) if m == r] for r in range(1, width + 1)])


def expand_domain(dom: FundamentalDomain) -> PeriodicPattern:
    """Unfold a fundamental domain to a full Y pattern over one period.

    Interior row m over the period is D_m followed by D_{n+1-m}, between
    two zero rows.  Raises InconsistentDomain when the unfolded grid
    violates a diamond relation.
    """
    n = dom.width
    interior = [dom.rows[m - 1] + dom.rows[n - m] for m in range(1, n + 1)]
    zeros = (0,) * (n + 3)
    return PeriodicPattern(PatternKind.Y, n, (zeros, *interior, zeros))


def domain_of(pattern: PeriodicPattern) -> FundamentalDomain:
    """Read one fundamental domain back off a pattern (inverse of expand)."""
    n = pattern.width
    rows = tuple(row[:n + 2 - m] for m, row in enumerate(pattern.rows[1:-1], start=1))
    return FundamentalDomain(n, rows)


def first_diagonal_of(pattern: PeriodicPattern) -> tuple[Fraction, ...]:
    """Column 0 of the interior rows, read top-down."""
    return tuple(row[0] for row in pattern.rows[1:-1])


def w3_system_holds(diag: Sequence[int], ent: W3Entries) -> bool:
    """Exact check of the six defining relations for width 3."""
    a, b, c = (Fraction(v) for v in diag)
    d, e, f, g, h, i = ent
    return (a * d == 1 + b
            and b * e == (1 + d) * (1 + c)
            and c * f == 1 + e
            and d * g == 1 + e
            and e * h == (1 + g) * (1 + f)
            and g * i == 1 + h)


def w4_system_holds(diag: Sequence[int], ent: W4Entries) -> bool:
    """Exact check of the ten defining relations for width 4."""
    a, b, c, d = (Fraction(v) for v in diag)
    e, f, g, h, i, j, k, l, m, n = ent
    return (a * e == 1 + b
            and b * f == (1 + e) * (1 + c)
            and c * g == (1 + f) * (1 + d)
            and d * h == 1 + g
            and e * i == 1 + f
            and f * j == (1 + i) * (1 + g)
            and g * k == (1 + j) * (1 + h)
            and i * l == 1 + j
            and j * m == (1 + l) * (1 + k)
            and l * n == 1 + m)


def w3_product_ratio_at_least_2(diag: Sequence[int]) -> bool:
    """(a+1)(b+1)(c+1) >= 2abc; equivalent form of width-3 inequality (iii)."""
    a, b, c = _check_diagonal(diag, 3)
    return (a + 1) * (b + 1) * (c + 1) >= 2 * a * b * c


def w4_product_ratio_at_least_2(diag: Sequence[int]) -> bool:
    """(a+1)(b+1)(c+1)(d+1) >= 2abcd; equivalent form of width-4 inequality (iv)."""
    a, b, c, d = _check_diagonal(diag, 4)
    return (a + 1) * (b + 1) * (c + 1) * (d + 1) >= 2 * a * b * c * d


def w3_b_quadratic_nonpositive(b: int) -> bool:
    """b^2 - 15b - 60 <= 0: the step bounding b <= 18 once a <= 4, c <= 11."""
    return b * b - 15 * b - 60 <= 0


def w4_bc_quadratic_nonpositive(x: int) -> bool:
    """x^2 - 143x - 4326 <= 0: bounds b or c by 168 once d <= 41 and the other <= 102."""
    return x * x - 143 * x - 4326 <= 0


def w3_domain(diag: Sequence[int]) -> FundamentalDomain:
    """The width-3 domain of a diagonal: its entry tuple read back."""
    return FundamentalDomain.from_entry_tuple(3, (*_check_diagonal(diag, 3), *w3_entries(diag)))


def w4_domain(diag: Sequence[int]) -> FundamentalDomain:
    """The width-4 domain of a diagonal: its entry tuple read back."""
    return FundamentalDomain.from_entry_tuple(4, (*_check_diagonal(diag, 4), *w4_entries(diag)))


def one_cell_scan(boxes: Sequence[SearchBox], firsts: Iterable[int]) -> list[tuple[int, ...]]:
    """search._scan as it was before it solved two cells per node: the first
    rows of the closed arithmetic patterns whose first diagonal
    starts with a value in `firsts` and lies in one of the boxes.

    The DFS walks the boxes' coordinatewise maximum.  It solves
    anti-diagonal k of the column triangle, the cells (m, j) with m + j = k
    listed bottom-up, from anti-diagonal k - 1: each cell is
    (1 + N)(1 + S) / W.  Its lowest cell is x_{k+1}, chosen within the
    bound, or for k >= n the zero row below the pattern.  Quotients of
    positive integers are positive, so a branch ends at the first
    non-integral cell.  Anti-diagonal n + 2 completes the first row, which is
    kept if its diagonal lies in a box.
    """
    bounds = [max(column) for column in zip(*(box.bounds for box in boxes))]
    n = len(bounds)
    period = n + 3
    rows = []

    def descend(antis: list[list[int]]) -> None:
        k = len(antis)
        if k == period:
            if any(tuple(anti[0] for anti in antis[:n]) in box for box in boxes):
                rows.append(tuple(anti[-1] for anti in antis))
            return
        prev = antis[-1]
        if k < n:
            # The lowest solved cell is integral iff x = -1 mod W / gcd(W, 1 + N).
            step = prev[0] // gcd(prev[0], 1 + (prev[1] if k > 1 else 0))
            choices = range(max(step - 1, 1), bounds[k] + 1, step)
        else:
            choices = (0,)
        for x in choices:
            cur = [x] if k < n else []
            south = x
            for i, west in enumerate(prev):
                north = prev[i + 1] if i + 1 < len(prev) else 0
                south, r = divmod((1 + north) * (1 + south), west)
                if r:
                    break
                cur.append(south)
            else:
                antis.append(cur)
                descend(antis)
                antis.pop()

    for first in firsts:
        descend([[first]])
    return rows


def entry_parts(diag: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(numerator, denominator) of each domain entry a first diagonal x_1..x_n
    fixes, unreduced, column j = 1..n left to right and row m top-down in
    it (closedform's W3Entries and W4Entries order):

        P(j, j+m-1) * P(j-1, j+m) / prod(x_l * (1 + x_l), l = j..j+m-1),

    where P(i, k) = prod(1 + x_l) - prod(x_l) over l = i..k, and
    x_0 = x_{n+1} = 0.
    """
    n = len(diag)
    x = (0, *diag, 0)

    def p(i: int, k: int) -> int:
        return prod(1 + v for v in x[i:k + 1]) - prod(x[i:k + 1])

    return tuple((p(j, j + m - 1) * p(j - 1, j + m), prod(v * (1 + v) for v in x[j:j + m]))
                 for j in range(1, n + 1) for m in range(1, n + 2 - j))


class CatalogEntry(NamedTuple):
    id: int
    key_tuple: tuple[int, ...]
    pattern: PeriodicPattern
    orbit_root: int
    orbit_size: int
    intrinsic_period: int
    glide_shift: int


class LoadedCatalog(NamedTuple):
    kind: PatternKind
    width: int
    parameters: dict
    entries: tuple[CatalogEntry, ...]


def entries_of(catalog: Catalog) -> tuple[CatalogEntry, ...]:
    """The entries of a built catalog: each key read off its pattern, its
    orbit root and size the `heads` row of its orbit, and its intrinsic
    period and glide shift computed from the pattern itself."""
    held = catalog.patterns
    entries = []
    for i, p in enumerate(held):
        root, size = held.heads[held.locate(i)[0]]
        entries.append(CatalogEntry(i, key_of_rows(p.kind, p.width, p.rows), p, root, size,
                                    intrinsic_period(p), glide_shift(p)))
    return tuple(entries)


def loaded(catalog: Catalog) -> LoadedCatalog:
    """What catalog_from_json must load back from the built catalog's text."""
    return LoadedCatalog(catalog.kind, catalog.width, catalog.parameters, entries_of(catalog))


def _value_to_json(v: "int | Fraction"):
    return int(v) if v.denominator == 1 else str(v)


def pattern_to_obj(p: PeriodicPattern) -> dict:
    return {
        "schema": PATTERN_SCHEMA,
        "kind": p.kind.value,
        "width": p.width,
        "rows": [[_value_to_json(v) for v in row] for row in p.rows],
    }


def catalog_to_obj(catalog: Catalog) -> dict:
    """The document whose json.dumps(..., indent=2) + "\\n" io.catalog_to_json must write."""
    key_name = KEY_NAMES[catalog.kind]
    patterns = []
    for entry in entries_of(catalog):
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


def catalog_from_json(text: str) -> LoadedCatalog:
    """A catalog's text loaded back, which compares equal to the `loaded`
    record of the catalog it was written from: the rows decoded by
    read.raw_patterns_from_obj, every other field taken as it stands."""
    obj = json.loads(text)
    kind, width = PatternKind(obj["kind"]), obj["width"]
    entries = tuple(
        CatalogEntry(entry["id"], tuple(entry[KEY_NAMES[kind]]), PeriodicPattern(*raw),
                     *(entry[name] for name in ORBIT_FIELDS))
        for raw, entry in zip(raw_patterns_from_obj(obj), obj["patterns"]))
    return LoadedCatalog(kind, width, obj["parameters"], entries)


def per_frieze_fibers(friezes: Catalog, ypatterns: Catalog) -> FiberReport:
    """The fiber report of the transfer map, from every frieze built and
    mapped by apply_p, and its image found among every Y pattern built;
    each frieze orbit's record names the Y orbit of its root's image."""
    ys = list(ypatterns.patterns)
    index = {p: j for j, p in enumerate(ys)}
    image_of = []
    for frieze in friezes.patterns:
        image = apply_p(frieze)
        if image not in index:
            raise MapFailure("frieze image is not among the enumerated Y patterns")
        image_of.append(index[image])
    sizes = [0] * len(ys)
    for j in image_of:
        sizes[j] += 1
    held, records = ypatterns.patterns, []
    for root, size in friezes.patterns.heads:
        target, target_size = held.heads[held.locate(image_of[root])[0]]
        records.append(CorrespondenceRecord(root, target, size, target_size))
    image_size = sum(1 for n in sizes if n)
    return FiberReport(friezes.width, tuple(sizes), image_size, image_size == len(ys),
                       all(n <= 1 for n in sizes), tuple(records))
