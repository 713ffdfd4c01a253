"""Coxeter frieze patterns of width n from triangulations of an (n+3)-gon.

Every maximal set of non-crossing diagonals of a convex polygon yields a
quiddity (per-vertex incident-triangle counts), and the quiddity is the
first interior row of a closed arithmetic frieze under the unimodular rule
(Conway and Coxeter, Math. Gazette 57, 1973), propagated in plain ints.
Distinct triangulations give distinct friezes, so the width-n count is the
Catalan number C_{n+1}.  Rotating the polygon rotates its quiddity and its
frieze, so the frieze is propagated once per rotation orbit, and only the
orbit roots are held.  Triangulations and quiddities are generated as
bytes, one small object each, and the quiddity bytes key the orbits.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Sequence
from itertools import combinations, repeat
from operator import mul, sub
from typing import NamedTuple

from .core import FriezeError, OrbitPatterns, PatternKind, PeriodicPattern, _div, _frac

# Each width multiplies the JSON catalog about fourfold: width 10 is 58,786
# friezes in 176 MB, width 11 would be 208,012 friezes in 709 MB.  The byte
# encoding of _diagonal_codes would hold up to width 13 (a 16-gon).
MAX_ENUM_WIDTH = 10


class NotClosed(FriezeError):
    """A quiddity whose frieze fails to return to the all-ones row."""


class NonPositive(FriezeError):
    """A quiddity whose frieze develops a non-positive interior entry."""


def _is_polygon_edge(i: int, j: int, v: int) -> bool:
    return (j - i) % v in (1, v - 1)


class Triangulation(NamedTuple("Triangulation", [
        ("n_gon", int), ("diagonals", frozenset[tuple[int, int]])])):
    """v-3 pairwise non-crossing diagonals of a convex v-gon."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, n_gon: int, diagonals: frozenset[tuple[int, int]]):
        v = n_gon
        if v < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {v}")
        if len(diagonals) != v - 3:
            raise ValueError(f"a triangulation of a {v}-gon has {v - 3} diagonals, "
                             f"got {len(diagonals)}")
        for i, j in diagonals:
            if not (0 <= i < j < v) or _is_polygon_edge(i, j, v):
                raise ValueError(f"({i}, {j}) is not a diagonal of a {v}-gon")
        for (a, b), (c, d) in combinations(diagonals, 2):
            if (a < c < b < d) or (c < a < d < b):
                raise ValueError(f"diagonals ({a},{b}) and ({c},{d}) cross")
        return tuple.__new__(cls, (n_gon, diagonals))

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


def _diagonal_codes(v: int) -> list[bytes]:
    """Every triangulation of the convex v-gon as the bytes of its sorted
    diagonal codes i*v + j (i < j), in Triangulation.sort_key order: the codes
    order as the diagonals do, so the bytes compare as the diagonal tuples.

    The triangle on edge (i, j) of the sub-polygon i..j has apex k, and the
    sub-polygons i..k and k..j are split the same way, smallest first, each
    once.  In a triangulation of i..k the diagonals from i come before the
    chord (i, j) and the others after it, and all of them before any diagonal
    of k..j, so one insertion keeps each combination sorted.
    """
    assert v <= 16, "a diagonal code must fit in a byte"
    splits = {(i, i + 1): [b""] for i in range(v - 1)}
    for d in range(2, v):
        for i in range(v - d):
            j = i + d
            code = i * v + j
            chord = bytes([code]) if d < v - 1 else b""  # (0, v - 1) is a polygon edge
            combined = splits[i, j] = []
            for k in range(i + 1, j):
                for left in splits[i, k]:
                    at = bisect(left, code)
                    head = left[:at] + chord + left[at:]
                    combined += [head + right for right in splits[k, j]]
    return sorted(splits[0, v - 1])


def _quiddities(v: int) -> list[bytes]:
    """The quiddity of every triangulation of the convex v-gon, in
    Triangulation.sort_key order, as bytes: one more than the diagonals at
    each vertex.  Vertex i's count is byte i of an int, to which a diagonal
    code i*v + j adds 256**i + 256**j."""
    weight = [256 ** i + 256 ** j for i in range(v) for j in range(v)].__getitem__
    ones = int.from_bytes(bytes([1]) * v, "little")
    return [(ones + sum(map(weight, codes))).to_bytes(v, "little")
            for codes in _diagonal_codes(v)]


def all_triangulations(v: int) -> list[Triangulation]:
    """All C_{v-2} triangulations of a convex v-gon, ordered by diagonal set."""
    if v < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {v}")
    return [Triangulation(v, frozenset(divmod(code, v) for code in codes))
            for codes in _diagonal_codes(v)]


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
    zeros, ones = (0,) * period, (1,) * period
    rows = [zeros, ones, tuple(map(_frac, quiddity))]
    for k, v in enumerate(rows[2]):
        if v <= 0:
            raise NonPositive(f"quiddity entry {v} at col {k} is not positive")
    for m in range(2, n + 2):
        # S = (W*E - 1) / N over the whole row; N is the row above, positive
        cur, above = rows[m], rows[m - 1]
        nxt = tuple(map(_div, map(sub, map(mul, cur, cur[1:] + cur[:1]), repeat(1)),
                        above[1:] + above[:1]))
        if m <= n and min(nxt) <= 0:  # row n + 2 is the closing ones-row, not interior
            k, south = next((k, v) for k, v in enumerate(nxt) if v <= 0)
            raise NonPositive(f"entry {south} at row {m + 1}, col {k} is not positive")
        rows.append(nxt)
    closing = rows.pop()  # row n + 2, held as the ones-row it must equal
    if closing != ones:
        k, v = next((k, v) for k, v in enumerate(closing) if v != 1)
        raise NotClosed(f"row {n + 2} should be all ones, got {v} at col {k}")
    rows += [ones, zeros]
    return PeriodicPattern(PatternKind.COXETER, n, tuple(rows))


def enumerate_frieze(n: int) -> OrbitPatterns:
    """All arithmetic friezes of width n, one per triangulation of the (n+3)-gon.

    Rotating the quiddity rotates the frieze, so each rotation orbit of the
    quiddities is propagated and validated once, at its root, and only the
    roots are kept, in a core.OrbitPatterns keyed by the quiddity bytes:
    every other member is the root's rows rotated, built when it is read.
    """
    if not 1 <= n <= MAX_ENUM_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_ENUM_WIDTH}, got {n}")
    quiddities = _quiddities(n + 3)
    return OrbitPatterns(quiddities, lambda i: frieze_from_quiddity(quiddities[i]))
