"""Exhaustive enumeration of arithmetic Y-frieze patterns.

One engine, a depth-first search over the first diagonal (see _scan),
serves every width:

  * enumerate_w3, enumerate_w4  search the proven boxes, so they are complete
  * enumerate_generic           searches a caller-supplied box, with no
                                completeness claim
  * oracle_box_check            unpruned brute force over a width-3 cube, the
                                reference showing that the boxes and the
                                pruning lose nothing

y_plan alone decides, checks and names (as catalog parameters) the boxes of
a width's search; y_solutions runs it.  Each search returns a SolutionSet,
the tuple of its re-verified patterns sorted by entry tuple.

One DFS walks the boxes' coordinatewise maximum and keeps a first row if its
diagonal lies in a box, so overlapping boxes are searched once.  propagate_y
rebuilds each hit's pattern, the one closure check, to read its entry tuple.

With parallelism N > 1 the values of x_1 are dealt into N shares in snake
order (see _deal): this process scans one, and N - 1 children started with
os.fork scan the others and send their first rows back through a pipe.  A
child runs only the scan and the write, so it needs no lock that another
thread of the parent might hold.  Without os.fork the search is serial.
"""

from __future__ import annotations

import marshal
import os
import sys
from itertools import chain
from math import gcd, prod
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .core import (FriezeError, PatternKind, PeriodicPattern, candidate_ceiling, is_arithmetic,
                   key_of_rows, propagate_y)

# Default diagonal boxes for the widths whose solution sets are small enough
# to find without proven bounds.
DEFAULT_GENERIC_BOUNDS = {1: (10,), 2: (30, 30)}


class BoxTooLarge(FriezeError):
    """The requested search box exceeds the candidate-count ceiling."""


class SearchBox(NamedTuple("SearchBox", [("bounds", tuple[int, ...])])):
    """Per-variable inclusive upper bounds; every lower bound is 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, bounds: Iterable[int]):
        bounds = tuple(bounds)  # a list or generator too, so boxes hash and compare alike
        if not bounds or any(type(b) is not int or b < 1 for b in bounds):
            raise ValueError(f"bounds must be a nonempty tuple of ints >= 1, got {bounds}")
        return tuple.__new__(cls, (bounds,))

    def __contains__(self, point: Sequence[int]) -> bool:
        return (len(point) == len(self.bounds)
                and all(1 <= v <= b for v, b in zip(point, self.bounds)))

    def volume(self) -> int:
        return prod(self.bounds)


def w3_boxes() -> tuple[SearchBox, SearchBox]:
    """The two proven width-3 boxes: a<=4, b<=18, c<=11 and its a/c swap."""
    return (SearchBox((4, 18, 11)), SearchBox((11, 18, 4)))


def w4_boxes() -> tuple[SearchBox, SearchBox, SearchBox, SearchBox]:
    """The four proven width-4 boxes (a<=5 or d<=5, with b/c in 102/168 either way)."""
    return (
        SearchBox((5, 102, 168, 41)),
        SearchBox((5, 168, 102, 41)),
        SearchBox((41, 102, 168, 5)),
        SearchBox((41, 168, 102, 5)),
    )


class SolutionSet(tuple[PeriodicPattern, ...]):
    """All arithmetic solutions of one width: the tuple of their re-verified
    patterns, sorted by entry tuple.  `full_tuples[i]` (the
    fundamental-domain entry tuple, diagonal-major) and `diagonals[i]` (its
    first `width` values) are read off pattern i."""

    __slots__ = ()

    @property
    def full_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(key_of_rows(PatternKind.Y, p.width, p.rows) for p in self)

    @property
    def diagonals(self) -> tuple[tuple[int, ...], ...]:
        return tuple(full[:p.width] for p, full in zip(self, self.full_tuples))


def _scan(boxes: Sequence[SearchBox], firsts: Iterable[int]) -> list[tuple[int, ...]]:
    """First rows of the closed arithmetic patterns whose first diagonal
    starts with a value in `firsts` and lies in one of the boxes.

    The DFS walks the boxes' coordinatewise maximum.  It solves
    anti-diagonal k of the column triangle, the cells (m, j) with m + j = k
    listed bottom-up, from anti-diagonal k - 1: each cell is
    (1 + N)(1 + S) / W.  Its lowest cell is x_{k+1}, chosen within the
    bound, or for k >= n the zero row below the pattern.  Quotients of
    positive integers are positive, so a branch ends at the first
    non-integral cell.  Anti-diagonal n + 2 completes the first row, which is
    kept if its diagonal lies in a box; closure is left to _solution_set.

    For k < n the first two cells above x are solved for x as congruences,
    so only the x that make both integral are tried: with W, N the lowest
    cells of anti-diagonal k - 1, x = -1 mod step = W / g, g = gcd(W, 1 + N),
    and x = step u - 1 makes the first cell d u, d = (1 + N) / g.  The
    second, (1 + N')(1 + d u) / W', is integral iff m = W' / gcd(W', 1 + N')
    divides 1 + d u.  W' is N, so d divides 1 + W' and m divides W': they
    are coprime, and exactly one class of u mod m works.
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
        west, north = prev[0], prev[1] if len(prev) > 1 else 0
        if k >= n:
            if (1 + north) % west:  # x = 0: the first cell is (1 + N) / W
                return
            choices = (0,)
        else:
            g = gcd(west, 1 + north)
            step, d = west // g, (1 + north) // g
            m = prev[1] // gcd(prev[1], 1 + (prev[2] if k > 2 else 0)) if k > 1 else 1
            stride = step * m
            x0 = step * (-pow(d, -1, m) % m) - 1
            choices = range((x0 - 1) % stride + 1, bounds[k] + 1, stride)
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


def _fork_scan(boxes: Sequence[SearchBox],
               firsts: Sequence[int]) -> Callable[[], Optional[list[tuple[int, ...]]]]:
    """Run _scan(boxes, firsts) in a child started with os.fork.

    Returns a function that reads the child's first rows from its pipe,
    reaps the child, and returns the rows, or None if the child failed.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child, which never returns
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                marshal.dump(_scan(boxes, firsts), pipe)
            status = 0
        except BaseException:
            sys.excepthook(*sys.exc_info())  # the parent raises FriezeError
            sys.stderr.flush()
            raise
        finally:
            os._exit(status)
    os.close(write_fd)

    def join() -> Optional[list[tuple[int, ...]]]:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
        return marshal.loads(data) if os.waitpid(pid, 0)[1] == 0 else None

    return join


def _solution_set(width: int, first_rows: Iterable[tuple[int, ...]]) -> SolutionSet:
    """Re-verify every hit by propagate_y, the one closure check; sort by entry tuple."""
    patterns = []
    for row in first_rows:
        pattern = propagate_y(row, width)
        if not is_arithmetic(pattern):
            raise FriezeError(f"first row {row} fails re-verification")
        patterns.append(pattern)
    patterns.sort(key=lambda p: key_of_rows(PatternKind.Y, width, p.rows))
    return SolutionSet(patterns)


def _deal(firsts: Sequence[int], workers: int) -> list[list[int]]:
    """The values of `firsts` dealt into `workers` shares in snake order:
    round r gives one value to each share, forward when r is even and
    backward when it is odd (1, 4, 5, 8, ... and 2, 3, 6, 7, ... for two).
    The DFS under an odd x_1 mostly takes longer than under its even
    neighbours: dealt round-robin, the first of two shares would get every
    odd value, nearly two thirds of the scan of the proven width-4 boxes."""
    shares: list[list[int]] = [[] for _ in range(workers)]
    for i, first in enumerate(firsts):
        r, s = divmod(i, workers)
        shares[workers - 1 - s if r % 2 else s].append(first)
    return shares


def _search(width: int, boxes: Sequence[SearchBox], parallelism: int = 1) -> SolutionSet:
    """Run one DFS over the boxes.  The x_1 values are dealt into
    min(parallelism, CPU count, x_1 values) shares (see _deal): this process
    scans the first and a forked child each other one.  The hits are merged
    and sorted, so the output does not depend on the split."""
    if type(parallelism) is not int or parallelism < 1:
        raise ValueError(f"parallelism must be an int >= 1, got {parallelism!r}")
    firsts = range(1, max(box.bounds[0] for box in boxes) + 1)
    workers = min(parallelism, os.cpu_count() or 1, len(firsts)) if hasattr(os, "fork") else 1
    shares = _deal(firsts, workers)
    joins = []
    try:
        for share in shares[1:]:
            joins.append(_fork_scan(boxes, share))
        rows = _scan(boxes, shares[0])
    finally:
        found = [join() for join in joins]
    if None in found:
        raise FriezeError(f"{found.count(None)} of {len(joins)} search worker processes failed")
    return _solution_set(width, chain(rows, *found))


def enumerate_w3() -> SolutionSet:
    """All width-3 diagonals whose six solved entries are positive integers."""
    return _search(3, w3_boxes())


def enumerate_w4(parallelism: int = 1) -> SolutionSet:
    """All width-4 diagonals whose ten solved entries are positive integers.

    Searches the four proven boxes in one DFS, whose 41 values of x_1 are
    shared by min(parallelism, CPU count, 41) processes (see _search).
    """
    return _search(4, w4_boxes(), parallelism)


def oracle_box_check(width: int, bound: int) -> SolutionSet:
    """Unpruned brute force over the full cube [1, bound]^3.

    Independent of the proven boxes: visits every triple and tests the six
    integrality conditions directly.  Meaningful as a box-completeness
    check only for bound >= 18; smaller bounds just truncate the cube.
    """
    if width != 3:
        raise ValueError(f"oracle check is defined for width 3, got {width}")
    if type(bound) is not int or bound < 1:
        raise ValueError(f"bound must be an int >= 1, got {bound!r}")
    found = []
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            for c in range(1, bound + 1):
                if (b + 1) % a:
                    continue
                if ((c + 1) * (a + b + 1)) % (a * b):
                    continue
                p3 = a * b + a * c + b * c + a + b + c + 1
                if p3 % (a * b * c):
                    continue
                if p3 % (b * (b + 1)):
                    continue
                if ((a + 1) * (b + c + 1)) % (b * c):
                    continue
                if (b + 1) % c:
                    continue
                # Row 1 of the pattern: (a, d, g, i) then (c, f).
                found.append((a, (b + 1) // a, p3 // (b * (b + 1)), (b + 1) // c,
                              c, p3 // (a * b * c)))
    return _solution_set(3, found)


def enumerate_generic(width: int, box: SearchBox, parallelism: int = 1) -> SolutionSet:
    """Search every diagonal in `box`, checked as y_plan checks it, for
    closed arithmetic patterns.  Works at any width; no completeness claim
    unless the box is proven to contain all solutions.  The x_1 values are
    shared by min(parallelism, CPU count, x_1 bound) processes (see _search).
    """
    return _search(width, y_plan(width, box.bounds)[1], parallelism)


def y_plan(width: int,
           bounds: Optional[Sequence[int]] = None) -> tuple[dict, tuple[SearchBox, ...]]:
    """The Y search of a width: the catalog parameters that name it, and its boxes.

    Widths 3 and 4 without bounds search their proven boxes, so the result
    is complete; any other search covers one box, `bounds` or the width's
    DEFAULT_GENERIC_BOUNDS, with no completeness claim.  Raises ValueError
    on a width below 1 or with no box, or on bounds of another arity, and
    BoxTooLarge when that box's volume exceeds candidate_ceiling().
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if bounds is None and width in (3, 4):
        boxes = w3_boxes() if width == 3 else w4_boxes()
        return {"mode": "proven-boxes", "boxes": [list(b.bounds) for b in boxes]}, boxes
    if bounds is None:
        if width not in DEFAULT_GENERIC_BOUNDS:
            raise ValueError(f"width {width} has no proven boxes; pass --bounds")
        bounds = DEFAULT_GENERIC_BOUNDS[width]
    box = SearchBox(bounds)
    if len(box.bounds) != width:
        raise ValueError(f"box must bound {width} diagonal values, got {len(box.bounds)}")
    ceiling = candidate_ceiling()
    if box.volume() > ceiling:
        raise BoxTooLarge(f"box volume {box.volume()} exceeds ceiling {ceiling}")
    return {"mode": "generic", "bounds": list(box.bounds)}, (box,)


def y_solutions(width: int, bounds: Optional[Sequence[int]] = None,
                parallelism: int = 1) -> SolutionSet:
    """The solution set over y_plan(width, bounds)'s boxes.  The proven
    width-4 search runs through enumerate_w4, which bench/tracing.py times."""
    _, boxes = y_plan(width, bounds)
    if width == 4 and bounds is None:
        return enumerate_w4(parallelism)
    return _search(width, boxes, parallelism)
