"""Closed-form solutions of the width-3 and width-4 diamond systems.

Fixing the first diagonal (the leading column of the fundamental domain)
determines every other domain entry.  For width 3 with diagonal (a, b, c)
the domain is

    a d g i
     b e h
      c f

and the diamond relations reduce to ad = 1+b, be = (1+d)(1+c), cf = 1+e,
dg = 1+e, eh = (1+g)(1+f), gi = 1+h, solved below in closed form.  Width 4
with diagonal (a, b, c, d) is analogous with entries e..n.

Each solved entry is written once, as an int (numerator, denominator) pair
in `_w3_parts`/`_w4_parts`.  The entries are those pairs as Fractions, and
only building them imports `fractions`; each integrality inequality says
that one entry is >= 1 (numerator >= denominator, compared as ints, never
as floats).  The finite search boxes the inequalities imply (SearchBox,
w3_boxes, w4_boxes) live in `search`, which does not load this module, and
are re-exported here.
"""

from __future__ import annotations

from itertools import starmap
from operator import ge
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .search import SearchBox, w3_boxes, w4_boxes  # noqa: F401  (re-exported)

if TYPE_CHECKING:
    from fractions import Fraction


class W3Entries(NamedTuple("W3Entries", [(name, "Fraction") for name in "defghi"])):
    __slots__ = ()

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(self)


class W4Entries(NamedTuple("W4Entries", [(name, "Fraction") for name in "efghijklmn"])):
    __slots__ = ()

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(self)


def _check_diagonal(diag: Sequence[int], width: int) -> tuple[int, ...]:
    vals = tuple(diag)
    if len(vals) != width:
        raise ValueError(f"expected a diagonal of {width} values, got {len(vals)}")
    if set(map(type, vals)) <= {int} and min(vals) >= 1:  # the usual case, checked in C
        return vals
    if any(v < 1 or int(v) != v for v in vals):
        raise ValueError(f"diagonal values must be positive integers, got {vals}")
    return tuple(int(v) for v in vals)


def _w3_parts(diag: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(numerator, denominator) of each solved width-3 entry, in W3Entries order."""
    a, b, c = _check_diagonal(diag, 3)
    p3 = a * b + a * c + b * c + a + b + c + 1
    return ((b + 1, a),                                 # d
            ((c + 1) * (a + b + 1), a * b),             # e
            (p3, a * b * c),                            # f
            (p3, b * (b + 1)),                          # g
            ((a + 1) * (b + c + 1), b * c),             # h
            (b + 1, c))                                 # i


def _w4_parts(diag: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(numerator, denominator) of each solved width-4 entry, in W4Entries order."""
    a, b, c, d = _check_diagonal(diag, 4)
    p3 = a * b + a * c + b * c + a + b + c + 1
    big = (d + 1) * p3 + a * b * c  # = sum of all squarefree monomials in a,b,c,d
    q = b * c + b * d + c * d + b + c + d + 1
    return ((b + 1, a),                                 # e
            ((c + 1) * (a + b + 1), a * b),             # f
            ((d + 1) * p3, a * b * c),                  # g
            (big, a * b * c * d),                       # h
            (p3, b * (b + 1)),                          # i
            ((b + c + 1) * big, b * (b + 1) * c * (c + 1)),  # j
            ((a + 1) * q, b * c * d),                   # k
            (q, c * (c + 1)),                           # l
            ((b + 1) * (c + d + 1), c * d),             # m
            (c + 1, d))                                 # n


def w3_entries(diag: Sequence[int]) -> W3Entries:
    """Solve the width-3 system for diagonal (a, b, c) >= 1 componentwise."""
    from fractions import Fraction
    return W3Entries._make(starmap(Fraction, _w3_parts(diag)))


def w4_entries(diag: Sequence[int]) -> W4Entries:
    """Solve the width-4 system for diagonal (a, b, c, d) >= 1 componentwise."""
    from fractions import Fraction
    return W4Entries._make(starmap(Fraction, _w4_parts(diag)))


def w3_inequalities(diag: Sequence[int]) -> tuple[bool, ...]:
    """Whether each solved width-3 entry d..i is >= 1, in order (i)..(vi)."""
    return tuple(starmap(ge, _w3_parts(diag)))


def w4_inequalities(diag: Sequence[int]) -> tuple[bool, ...]:
    """Whether each solved width-4 entry e..n is >= 1, in order (i)..(x)."""
    return tuple(starmap(ge, _w4_parts(diag)))
