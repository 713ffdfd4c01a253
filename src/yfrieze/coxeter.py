"""Coxeter frieze patterns of width n from triangulations of an (n+3)-gon.

Every maximal set of non-crossing diagonals of a convex polygon yields a
quiddity (per-vertex incident-triangle counts), and the quiddity is the
first interior row of a closed arithmetic frieze under the unimodular rule
(Conway and Coxeter, Math. Gazette 57, 1973), propagated in plain ints.
Distinct triangulations give distinct friezes, so the width-n count is the
Catalan number C_{n+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .core import FriezeError, PatternKind, PeriodicPattern, _div, _frac

# Widths above this make the Catalan-sized generation pointless to run eagerly.
MAX_ENUM_WIDTH = 9


class NotClosed(FriezeError):
    """A quiddity whose frieze fails to return to the all-ones row."""


class NonPositive(FriezeError):
    """A quiddity whose frieze develops a non-positive interior entry."""


def _is_polygon_edge(i: int, j: int, v: int) -> bool:
    return (j - i) % v in (1, v - 1)


@dataclass(frozen=True)
class Triangulation:
    """v-3 pairwise non-crossing diagonals of a convex v-gon."""

    n_gon: int
    diagonals: frozenset[tuple[int, int]]

    def __post_init__(self):
        v = self.n_gon
        if v < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {v}")
        if len(self.diagonals) != v - 3:
            raise ValueError(f"a triangulation of a {v}-gon has {v - 3} diagonals, "
                             f"got {len(self.diagonals)}")
        for i, j in self.diagonals:
            if not (0 <= i < j < v) or _is_polygon_edge(i, j, v):
                raise ValueError(f"({i}, {j}) is not a diagonal of a {v}-gon")
        for (a, b), (c, d) in combinations(self.diagonals, 2):
            if (a < c < b < d) or (c < a < d < b):
                raise ValueError(f"diagonals ({a},{b}) and ({c},{d}) cross")

    def triangles(self) -> list[tuple[int, int, int]]:
        """The v-2 triangular faces.

        In a convex polygon any 3-cycle of non-crossing chords has empty
        interior, so the faces are exactly the fully connected triples.
        """
        v = self.n_gon
        connected = set(self.diagonals)
        connected.update((i, (i + 1) % v) if i + 1 < v else (0, i)
                         for i in range(v))
        connected = {(min(i, j), max(i, j)) for i, j in connected}
        faces = [t for t in combinations(range(v), 3)
                 if all(pair in connected for pair in combinations(t, 2))]
        assert len(faces) == v - 2
        return faces

    def sort_key(self) -> tuple:
        return tuple(sorted(self.diagonals))


def _ear_splits(vs: tuple[int, ...]) -> list[list[tuple[int, int, int]]]:
    # All triangle lists for the polygon on the (cyclic) vertex tuple vs,
    # keyed on the apex of the triangle containing edge (vs[0], vs[1]).
    if len(vs) < 3:
        return [[]]
    if len(vs) == 3:
        return [[tuple(sorted(vs))]]
    out = []
    for k in range(2, len(vs)):
        ear = tuple(sorted((vs[0], vs[1], vs[k])))
        for left in _ear_splits(vs[1:k + 1]):
            for right in _ear_splits(vs[k:] + (vs[0],)):
                out.append([ear, *left, *right])
    return out


def all_triangulations(v: int) -> list[Triangulation]:
    """All C_{v-2} triangulations of a convex v-gon, ordered by diagonal set."""
    if v < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {v}")
    result = []
    for triangles in _ear_splits(tuple(range(v))):
        diagonals = set()
        for tri in triangles:
            for i, j in combinations(tri, 2):
                if not _is_polygon_edge(i, j, v):
                    diagonals.add((i, j))
        result.append(Triangulation(v, frozenset(diagonals)))
    result.sort(key=Triangulation.sort_key)
    return result


def quiddity_of(t: Triangulation) -> tuple[int, ...]:
    """Incident-triangle count of every vertex: one more than its diagonals."""
    counts = [1] * t.n_gon
    for i, j in t.diagonals:
        counts[i] += 1
        counts[j] += 1
    return tuple(counts)


def frieze_from_quiddity(quiddity: Sequence[int]) -> PeriodicPattern:
    """Build the closed frieze whose first interior row is the quiddity.

    Interior rows are filled downward by solving each diamond for its south
    cell; raises NonPositive when an interior entry is <= 0 and NotClosed
    when the row after the interior is not the all-ones row.  Quiddities of
    polygon triangulations always succeed.
    """
    period = len(quiddity)
    if period < 4:
        raise ValueError(f"quiddity must have at least 4 entries, got {period}")
    n = period - 3
    zeros = (0,) * period
    ones = (1,) * period
    rows = [zeros, ones, tuple(_frac(v) for v in quiddity)]
    for k, v in enumerate(rows[2]):
        if v <= 0:
            raise NonPositive(f"quiddity entry {v} at col {k} is not positive")
    for m in range(2, n + 2):
        cur = rows[m]
        above = rows[m - 1]
        interior = m + 1 <= n + 1  # row n+2 is the closing ones-row, not interior
        nxt = []
        for k in range(period):
            south = _div(cur[k] * cur[(k + 1) % period] - 1, above[(k + 1) % period])
            if interior and south <= 0:
                raise NonPositive(f"entry {south} at row {m + 1}, col {k} is not positive")
            nxt.append(south)
        rows.append(tuple(nxt))
    for k, v in enumerate(rows[n + 2]):
        if v != 1:
            raise NotClosed(f"row {n + 2} should be all ones, got {v} at col {k}")
    rows.append(zeros)
    return PeriodicPattern(PatternKind.COXETER, n, tuple(rows))


def enumerate_frieze(n: int, max_width: int = MAX_ENUM_WIDTH) -> list[PeriodicPattern]:
    """All arithmetic friezes of width n, one per triangulation of the (n+3)-gon."""
    if not 1 <= n <= max_width:
        raise ValueError(f"width must be in 1..{max_width}, got {n}")
    return [frieze_from_quiddity(quiddity_of(t)) for t in all_triangulations(n + 3)]
