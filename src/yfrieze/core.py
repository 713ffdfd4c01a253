"""Exact-arithmetic kernel for closed frieze patterns on a staggered grid.

Two local recurrences share one periodic storage model:

  Y rule        W*E == (1 + N)*(1 + S)    bounded by rows of 0
  Coxeter rule  W*E - N*S == 1            bounded by rows of 1 (and 0 outside)

A closed pattern of width n is stored as full rows over one column period
n + 3.  The diamond anchored at (m, k) reads

  W = (m, k),  E = (m, k+1),  N = (m-1, k+1),  S = (m+1, k)

with column indices mod the period; this is the alignment induced by
drawing row m shifted right by half a cell per row index.

Entries are plain ints where a pattern is arithmetic and `fractions.Fraction`
otherwise, and `fractions` is imported only when a value that is not an int
turns up; every operation is exact and every value is immutable after
construction, so everything here is safe to share across threads.  A pattern
is validated once, when it is built: `check_rows` checks the shape, the
boundary and closure rows and each diamond.  Positivity is checked by
`coxeter.frieze_from_quiddity` as it builds a frieze, and otherwise by
`positivity_violation`, which `is_arithmetic` and `verify` call.  Each check
reads all columns alike, mod the period, so a rotation of a valid pattern is
valid, and a cyclic shift of a built pattern is made by rotating its rows
without checking them again.

No output searches for a glide: `orbit_glide` gives it, by the theorem that
README's "The glide" proves in this alignment.  glide_shift,
glide_shift_of_rows and intrinsic_period stay here as the tests' oracles.
"""

from __future__ import annotations

import os
from enum import Enum
from itertools import chain, repeat
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


DEFAULT_MAX_CANDIDATES = 10 ** 9
MAX_CANDIDATES_ENV = "FRIEZE_MAX_CANDIDATES"


class PatternKind(Enum):
    Y = "y"
    COXETER = "coxeter"


class FriezeError(Exception):
    """Base class for all pattern construction and verification errors."""


class ClosureFailure(FriezeError):
    """Row propagation did not close the pattern.

    Reports the first offending cell in row-major order: either the last
    row came out nonzero at (row, col) = its value, or the division needed
    to fill (row, col) had denominator 1 + N == 0 (value is None then).
    A pattern that closes early reports the int 0.
    """

    def __init__(self, row: int, col: int, value: Optional[Fraction], reason: str):
        super().__init__(f"{reason} at row {row}, col {col}"
                         + (f" (value {value})" if value is not None else ""))
        self.row = row
        self.col = col
        self.value = value
        self.reason = reason


class InconsistentDomain(FriezeError):
    """A fully materialized grid violates a pattern invariant."""

    def __init__(self, violation: "Violation"):
        super().__init__(str(violation))
        self.violation = violation


class NotShiftClosed(FriezeError, ValueError):
    """A pattern set lacks a cyclic shift of one of its members, as when a
    search box cuts a shift orbit in two."""


class Violation(NamedTuple):
    """First failed structural check of a raw grid, with coordinates."""

    check: str  # shape | boundary | closure | diamond | positivity | id | key | orbit | distinct
    row: int
    col: int
    detail: str

    def __str__(self) -> str:
        return f"{self.check} violation at row {self.row}, col {self.col}: {self.detail}"


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


def _frac(value) -> "int | Fraction":
    """Ints (not bools) and Fractions as they are, anything else as a Fraction."""
    if type(value) is int:
        return value
    from fractions import Fraction
    return value if isinstance(value, Fraction) else Fraction(value)


def _frac_rows(rows: Iterable[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    # An all-int row is kept as it is; a row with a bool or a non-int goes
    # through _frac cell by cell.
    return tuple(row if set(map(type, row)) <= {int} else tuple(map(_frac, row))
                 for row in map(tuple, rows))


def _div(num, den) -> "int | Fraction":
    """Exact num / den: an int if both are ints and den divides num, else a Fraction."""
    if type(num) is int and type(den) is int:
        quotient, remainder = divmod(num, den)
        if not remainder:
            return quotient
    from fractions import Fraction
    return Fraction(num) / den


def _shown(value) -> str:
    """str(value), or its size in bits if it is too long for str."""
    try:
        return str(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        n, d = value.numerator.bit_length(), value.denominator.bit_length()
        return f"<int of {n} bits>" if d == 1 else f"<fraction of {n}/{d} bits>"


def check_rows(kind: PatternKind, width: int,
               rows: Sequence[Sequence[Fraction]]) -> Optional[Violation]:
    """Validate shape, boundary rows, closure and every diamond of a raw grid.

    Returns the first violation in that order, row-major within a check, or
    None.  Boundary and closure rows are tested by counting their constant,
    and all diamonds are compared in one pass over the row-major flattened
    grid; the first failing cell is looked up only when a check fails.
    """
    period = width + 3
    nrows = width + 2 if kind is PatternKind.Y else width + 4
    if width < 1:
        return Violation("shape", -1, -1, f"width must be >= 1, got {width}")
    if len(rows) != nrows:
        return Violation("shape", len(rows), -1,
                         f"expected {nrows} rows for width {width}, got {len(rows)}")
    for m, row in enumerate(rows):
        if len(row) != period:
            return Violation("shape", m, len(row),
                             f"row {m} has {len(row)} entries, expected {period}")

    constant_rows = [(0, 0), (nrows - 1, 0)]
    if kind is PatternKind.COXETER:
        constant_rows += [(1, 1), (nrows - 2, 1)]
    for m, expected in constant_rows:
        if rows[m].count(expected) != period:
            k, v = next((k, v) for k, v in enumerate(rows[m]) if v != expected)
            return Violation("boundary", m, k, f"expected constant {expected}, got {_shown(v)}")

    # An interior row equal to the closing boundary row means the pattern
    # already closed at a smaller width.
    sentinel = 0 if kind is PatternKind.Y else 1
    first_interior = 1 if kind is PatternKind.Y else 2
    for m in range(first_interior, first_interior + width):
        if rows[m].count(sentinel) == period:
            return Violation("closure", m, 0,
                             f"interior row {m} is identically {sentinel}; "
                             f"the pattern closes before width {width}")

    # Index i is the diamond anchored at row 1 + i // period, column
    # i % period; E and N are read off the rows rotated left by one.
    flat = list(chain.from_iterable(rows))
    rotated = list(chain.from_iterable(row[1:] + row[:1] for row in rows))
    north, south = rotated[:-2 * period], flat[2 * period:]
    we = list(map(mul, flat[period:-period], rotated[period:-period]))
    if kind is PatternKind.Y:
        north_south = list(map(mul, map(add, north, repeat(1)), map(add, south, repeat(1))))
    else:
        north_south = list(map(add, map(mul, north, south), repeat(1)))
    if we != north_south:
        i = next(i for i, (a, b) in enumerate(zip(we, north_south)) if a != b)
        if kind is PatternKind.Y:
            detail = f"W*E = {_shown(we[i])} but (1+N)(1+S) = {_shown(north_south[i])}"
        else:
            detail = f"W*E - N*S = {_shown(we[i] - north_south[i] + 1)}, expected 1"
        return Violation("diamond", 1 + i // period, i % period, detail)
    return None


class PeriodicPattern(NamedTuple("PeriodicPattern", [
        ("kind", PatternKind), ("width", int), ("rows", "tuple[tuple[Fraction, ...], ...]")])):
    """A closed pattern of width `width`, stored at column period width + 3.

    Y kind holds rows 0..width+1 (zero rows at both ends); Coxeter kind
    holds rows 0..width+3 (zero, one, ..., one, zero).  Construction
    validates every invariant; equality and hashing are column-exact, so
    cyclic shifts of a pattern are distinct patterns.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, kind: PatternKind, width: int, rows: Iterable[Sequence]):
        rows = _frac_rows(rows)
        violation = check_rows(kind, width, rows)
        if violation is not None:
            raise InconsistentDomain(violation)
        return tuple.__new__(cls, (kind, width, rows))

    @property
    def period(self) -> int:
        return self.width + 3


def propagate_y(first_row: Sequence, width: int) -> PeriodicPattern:
    """Build a closed Y pattern from its first row by the Y rule solved for S,
    S = W*E/(1+N) - 1.

    Rows 2..width+1 are filled row-major; the pattern closes iff the last
    row computes to identically zero.  Raises ClosureFailure at the first
    offending cell, ValueError on a wrong-length first row.
    """
    n = width
    period = n + 3
    first = tuple(_frac(v) for v in first_row)
    if n < 1:
        raise ValueError(f"width must be >= 1, got {n}")
    if len(first) != period:
        raise ValueError(f"first row must have {period} entries, got {len(first)}")

    rows = [(0,) * period, first]
    for m in range(1, n + 1):
        cur = rows[m]
        above = rows[m - 1]
        nxt = []
        for k in range(period):
            den = 1 + above[(k + 1) % period]
            if den == 0:
                raise ClosureFailure(m + 1, k, None, "division by zero (1 + N = 0)")
            nxt.append(_div(cur[k] * cur[(k + 1) % period], den) - 1)
        if m < n and all(v == 0 for v in nxt):
            # a zero row this early means the pattern closed at width m.
            raise ClosureFailure(m + 1, 0, 0,
                                 f"pattern closes at width {m}, not {n}")
        rows.append(tuple(nxt))
    for k, v in enumerate(rows[n + 1]):
        if v != 0:
            raise ClosureFailure(n + 1, k, v, "pattern does not close, last row nonzero")
    return PeriodicPattern(PatternKind.Y, n, tuple(rows))


def key_of_rows(kind: PatternKind, width: int, rows: Sequence[Sequence], shift: int = 0) -> tuple:
    """A catalog entry's key, read off a pattern's rows rotated left by shift: a Coxeter
    frieze's row 2, or a Y pattern's rows 1..width read diagonal-major (column 0 top-down, ...)."""
    period = width + 3
    if kind is PatternKind.COXETER:
        return tuple(rows[2][shift % period:]) + tuple(rows[2][:shift % period])
    return tuple(rows[m][(j + shift) % period]
                 for j in range(width + 1) for m in range(1, min(width, width + 1 - j) + 1))


def positivity_violation(kind: PatternKind, width: int,
                         rows: Sequence[Sequence[Fraction]]) -> Optional[Violation]:
    """The first interior entry, row-major, of rows that pass check_rows
    that is not a positive integer, as a positivity Violation, or None."""
    first = 1 if kind is PatternKind.Y else 2
    return next((Violation("positivity", m, k, f"interior entry {v} is not a positive integer")
                 for m in range(first, first + width) for k, v in enumerate(rows[m])
                 if v <= 0 or v.denominator != 1), None)


def is_arithmetic(pattern: PeriodicPattern) -> bool:
    """True iff every interior entry is a positive integer."""
    return positivity_violation(pattern.kind, pattern.width, pattern.rows) is None


def _rotate_rows(rows: Sequence[tuple], s: int) -> tuple[tuple, ...]:
    """Every row rotated left by s columns, 0 <= s < its length."""
    return tuple(row[s:] + row[:s] for row in rows)


def _rotated(pattern: PeriodicPattern, s: int) -> PeriodicPattern:
    """The pattern with every row rotated left by s columns, not checked again.

    It takes a built pattern, which its constructor validated, and every
    invariant is rotation-invariant (see the module docstring).
    """
    return tuple.__new__(PeriodicPattern,
                         (pattern.kind, pattern.width, _rotate_rows(pattern.rows, s)))


def cyclic_shift(pattern: PeriodicPattern, s: int) -> PeriodicPattern:
    """Rotate every row left by s columns (s reduced mod the period)."""
    s %= pattern.period
    return _rotated(pattern, s) if s else pattern


def rotation_orbits(keys: Sequence[Sequence]) -> list[list[int]]:
    """Partition the indices of distinct keys into rotation orbits.

    A key is any hashable sequence that rotates by slicing, as a tuple or
    a bytes object does; key[s:] + key[:s] is the key rotated left by s.

    orbit[s] is the index of orbit[0]'s key rotated left by s, and orbit[0]
    is the smallest; orbits are sorted by size descending, then root.
    Raises ValueError on a repeated key, NotShiftClosed on a missing rotation.
    """
    index = {key: i for i, key in enumerate(keys)}
    if len(index) != len(keys):
        raise ValueError("keys must be distinct")
    seen: set[int] = set()
    orbits = []
    for i, key in enumerate(keys):
        if i in seen:
            continue
        orbit = [i]
        for s in range(1, len(key)):
            j = index.get(key[s:] + key[:s])
            if j is None:
                raise NotShiftClosed(f"pattern set not closed under shifts "
                                     f"(shift {s} of pattern {i} is missing)")
            if j == i:  # s is the orbit's size
                break
            orbit.append(j)
        seen.update(orbit)
        orbits.append(orbit)
    orbits.sort(key=lambda orbit: (-len(orbit), orbit[0]))
    return orbits


class OrbitPatterns(Sequence):
    """A rotation-closed list of patterns, held as one root per rotation
    orbit: every other pattern is built when it is read.

    The pattern at index i has key keys[i], which fixes it and rotates with
    it: a tuple, or any hashable sequence that rotates by slicing, such as
    the bytes of a quiddity.  The rotation_orbits of the keys are held as
    one table, in their order: orbit k's root pattern `roots[k]`, its
    smallest index and size `heads[k]`, and for each index i the orbit k and
    shift s that `locate(i)` reads.  `orbits` lists each orbit's members sorted.
    """

    def __init__(self, keys: Sequence[Sequence], build: Callable[[int], PeriodicPattern]):
        from array import array
        self._orbit, self._shift = array("l", [0]) * len(keys), array("l", [0]) * len(keys)
        self.heads, self.roots = [], []
        for k, orbit in enumerate(rotation_orbits(keys)):
            for s, i in enumerate(orbit):
                self._orbit[i], self._shift[i] = k, s
            self.heads.append((orbit[0], len(orbit)))
            self.roots.append(build(orbit[0]))

    def locate(self, i: int) -> tuple[int, int]:
        """(k, s) such that the pattern at index i is roots[k] rotated left by s."""
        return self._orbit[i], self._shift[i]

    def __len__(self) -> int:
        return len(self._orbit)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        k, s = self.locate(i)
        return _rotated(self.roots[k], s) if s else self.roots[k]

    @property
    def orbits(self) -> list[list[int]]:
        orbits: list[list[int]] = [[] for _ in self.roots]
        for i, k in enumerate(self._orbit):
            orbits[k].append(i)
        return orbits


def orbit_glide(kind: PatternKind, size: int) -> int:
    """glide_shift_of_rows(rows, width + 3) of every pattern of this kind
    whose rows pass check_rows, with a positive interior, and whose orbit
    size is `size`: 0 for a Coxeter frieze, 1 % size for a Y pattern."""
    return 1 % size if kind is PatternKind.Y else 0


def glide_shift_of_rows(rows: Sequence[Sequence[Fraction]], period: int) -> Optional[int]:
    """Smallest s such that rows[R-m][(k+m+s) % period] == rows[m][k] everywhere.

    This is row reversal with the per-row stagger re-alignment (reversing
    row m moves its cells sideways by m half-cells); the residual uniform
    column shift s is the recorded glide offset.  Returns None when no s
    in 0..period-1 works.  Every row holds `period` cells, as a pattern's do.

    Row R-m rotated left by j is joined from two slices of the row, so no
    tuple longer than a row is built: CPython 3.11 keeps each freed tuple
    of 20 items (a doubled row at width 7) on a free list that it never
    allocates from, until a full collection clears it.
    """
    rows = [tuple(row) for row in rows]
    top = len(rows) - 1
    for s in range(period):
        for m, row in enumerate(rows):
            other, j = rows[top - m], (m + s) % period
            if other[j:] + other[:j] != row:
                break
        else:
            return s
    return None


def glide_shift(pattern: PeriodicPattern) -> Optional[int]:
    """Glide offset of a pattern (None only for grids lacking the symmetry)."""
    return glide_shift_of_rows(pattern.rows, pattern.period)


def intrinsic_period(pattern: PeriodicPattern) -> int:
    """Smallest divisor q of the storage period with all rows q-periodic."""
    period = pattern.period  # q = period always qualifies, so next finds one
    return next(q for q in range(1, period + 1)
                if period % q == 0 and all(row[q:] + row[:q] == row for row in pattern.rows))
