"""Exhaustive enumeration of arithmetic Y-frieze patterns.

One engine, a depth-first search over the first diagonal (see _scan),
serves every width:

  * enumerate_w3, enumerate_w4  search the proven boxes, so they are complete
  * enumerate_generic           searches a caller-supplied box, with no
                                completeness claim
  * oracle_box_check            unpruned brute force over a width-3 cube, the
                                reference showing that the boxes and the
                                pruning lose nothing

One DFS walks the coordinatewise maximum of the boxes and keeps a closed
pattern only if its diagonal lies in one of them, so overlapping boxes are
searched once.  Every hit is re-verified by propagate_y, which rebuilds its
pattern row by row, and its full entry tuple is read off that pattern.

With parallelism N > 1 the values of x_1 are dealt into N interleaved
shares: this process scans one, and N - 1 children started with os.fork
scan the others and send their first rows back through a pipe.  A child
runs only the scan and the write, so it needs no lock that another thread
of the parent might hold.  Without os.fork the search is serial.
"""

from __future__ import annotations

import marshal
import os
import sys
from itertools import chain
from math import gcd, prod
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .core import PeriodicPattern, FriezeError, is_arithmetic, propagate_y

DEFAULT_MAX_CANDIDATES = 10 ** 9
MAX_CANDIDATES_ENV = "FRIEZE_MAX_CANDIDATES"

# Default diagonal boxes for the widths whose solution sets are small enough
# to find without proven bounds.
DEFAULT_GENERIC_BOUNDS = {1: (10,), 2: (30, 30)}


class BoxTooLarge(FriezeError):
    """The requested search box exceeds the candidate-count ceiling."""


class SearchBox(NamedTuple("SearchBox", [("bounds", tuple[int, ...])])):
    """Per-variable inclusive upper bounds; every lower bound is 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, bounds: tuple[int, ...]):
        if any(b < 1 for b in bounds):
            raise ValueError(f"bounds must be >= 1, got {bounds}")
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


class SolutionSet:
    """All arithmetic solutions of one width, lexicographically sorted.

    `full_tuples[i]` is the complete fundamental-domain entry tuple
    (diagonal-major order) of `diagonals[i]`, and `patterns[i]` the
    re-verified pattern it was read off.  Equality leaves out `patterns`,
    which the other fields determine.
    """

    __slots__ = ("width", "diagonals", "full_tuples", "patterns")

    def __init__(self, width: int, diagonals: tuple[tuple[int, ...], ...],
                 full_tuples: tuple[tuple[int, ...], ...],
                 patterns: tuple[PeriodicPattern, ...]):
        for name, value in zip(self.__slots__, (width, diagonals, full_tuples, patterns)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a SolutionSet")

    def __eq__(self, other) -> bool:
        if type(other) is not SolutionSet:
            return NotImplemented
        return (self.width, self.diagonals, self.full_tuples) == (
            other.width, other.diagonals, other.full_tuples)

    def __hash__(self) -> int:
        return hash((self.width, self.diagonals, self.full_tuples))

    def __repr__(self) -> str:
        return (f"SolutionSet(width={self.width!r}, diagonals={self.diagonals!r}, "
                f"full_tuples={self.full_tuples!r})")

    def __len__(self) -> int:
        return len(self.diagonals)


def _scan(boxes: Sequence[SearchBox], firsts: Iterable[int]) -> list[tuple[int, ...]]:
    """First rows of the closed arithmetic patterns whose first diagonal
    starts with a value in `firsts` and lies in one of the boxes.

    The DFS walks the boxes' coordinatewise maximum.  It solves
    anti-diagonal k of the column triangle, the cells (m, j) with m + j = k
    listed bottom-up, from anti-diagonal k - 1: each cell is
    (1 + N)(1 + S) / W.  Its lowest cell is x_{k+1}, chosen within the
    bound, or for k >= n the zero row below the pattern.  Quotients of
    positive integers are positive, so a branch ends at the first
    non-integral cell.  The pattern closes when anti-diagonal n - 1 comes
    back one period on, and is kept if its diagonal lies in a box.
    """
    bounds = [max(column) for column in zip(*(box.bounds for box in boxes))]
    n = len(bounds)
    period = n + 3
    rows = []

    def descend(antis: list[list[int]]) -> None:
        k = len(antis)
        if k == n + period:
            if (antis[-1] == antis[n - 1]
                    and any(tuple(anti[0] for anti in antis[:n]) in box for box in boxes)):
                rows.append(tuple(anti[-1] for anti in antis[:period]))
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


def _fork_scan(boxes: Sequence[SearchBox],
               firsts: range) -> Callable[[], Optional[list[tuple[int, ...]]]]:
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
    """Re-verify every hit by row propagation; sort the hits by diagonal."""
    found = {}
    for row in first_rows:
        pattern = propagate_y(row, width)
        if not is_arithmetic(pattern):
            raise FriezeError(f"first row {row} fails re-verification")
        # The domain's entries, diagonal-major: row m holds columns 0..width + 1 - m.
        full = tuple(pattern.rows[m][j] for j in range(width + 1)
                     for m in range(1, min(width, width + 1 - j) + 1))
        found[full[:width]] = full, pattern
    diags = tuple(sorted(found))
    return SolutionSet(width, diags, tuple(found[d][0] for d in diags),
                       tuple(found[d][1] for d in diags))


def _search(width: int, boxes: Iterable[SearchBox], parallelism: int = 1) -> SolutionSet:
    """Run one DFS over the boxes.  The x_1 values are dealt into
    min(parallelism, CPU count, x_1 values) interleaved shares: this process
    scans the first and a forked child each other one.  The hits are merged
    and sorted, so the output does not depend on the split."""
    boxes = tuple(boxes)
    firsts = range(1, max(box.bounds[0] for box in boxes) + 1)
    workers = min(parallelism, os.cpu_count() or 1, len(firsts)) if hasattr(os, "fork") else 1
    joins = []
    try:
        for share in range(1, workers):
            joins.append(_fork_scan(boxes, firsts[share::workers]))
        rows = _scan(boxes, firsts[::workers])
    finally:
        shares = [join() for join in joins]
    if None in shares:
        raise FriezeError(f"{shares.count(None)} of {len(joins)} search worker processes failed")
    return _solution_set(width, chain(rows, *shares))


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
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
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


def candidate_ceiling() -> int:
    """The generic search's volume ceiling: the FRIEZE_MAX_CANDIDATES
    environment variable, else 10^9.

    Raises ValueError when the environment value is not a positive integer.
    """
    env = os.environ.get(MAX_CANDIDATES_ENV)
    if not env:
        return DEFAULT_MAX_CANDIDATES
    if not (env.strip().isdecimal() and int(env) > 0):
        raise ValueError(f"{MAX_CANDIDATES_ENV} must be a positive integer, got {env!r}")
    return int(env)


def enumerate_generic(width: int, box: SearchBox, parallelism: int = 1) -> SolutionSet:
    """Search every diagonal in `box` for closed arithmetic patterns.

    Works at any width; no completeness claim unless the box is proven to
    contain all solutions.  Raises BoxTooLarge when the box volume exceeds
    the ceiling (see candidate_ceiling).  The x_1 values are shared by
    min(parallelism, CPU count, x_1 bound) processes (see _search).
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if len(box.bounds) != width:
        raise ValueError(f"box must bound {width} diagonal values, got {len(box.bounds)}")
    ceiling = candidate_ceiling()
    if box.volume() > ceiling:
        raise BoxTooLarge(f"box volume {box.volume()} exceeds ceiling {ceiling}")
    return _search(width, [box], parallelism)


def patterns_of(sols: SolutionSet) -> list[PeriodicPattern]:
    """Every solution as a full Y pattern, in catalog order."""
    return list(sols.patterns)


def y_solutions(width: int, bounds: Optional[Sequence[int]] = None,
                parallelism: int = 1) -> SolutionSet:
    """Solution set for a width: proven boxes for 3 and 4, generic otherwise.

    Widths 1 and 2 fall back to built-in default boxes; other widths need
    explicit bounds.
    """
    if width == 3 and bounds is None:
        return enumerate_w3()
    if width == 4 and bounds is None:
        return enumerate_w4(parallelism=parallelism)
    if bounds is None:
        if width not in DEFAULT_GENERIC_BOUNDS:
            raise ValueError(f"width {width} needs explicit diagonal bounds")
        bounds = DEFAULT_GENERIC_BOUNDS[width]
    return enumerate_generic(width, SearchBox(tuple(bounds)), parallelism=parallelism)
