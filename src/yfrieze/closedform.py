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
in `_w3_parts`/`_w4_parts`.  The entries are those pairs as Fractions; each
integrality inequality says that one entry is >= 1 (numerator >=
denominator, compared as ints, never as floats); each domain is the entry
tuple read back.  The finite search boxes the inequalities imply (SearchBox,
w3_boxes, w4_boxes) live in `search`, which does not load this module, and
are re-exported here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import starmap
from operator import ge
from typing import NamedTuple, Sequence

from .core import FundamentalDomain
from .search import SearchBox, w3_boxes, w4_boxes  # noqa: F401  (re-exported)


class W3Entries(NamedTuple("W3Entries", [(name, Fraction) for name in "defghi"])):
    __slots__ = ()

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(self)


class W4Entries(NamedTuple("W4Entries", [(name, Fraction) for name in "efghijklmn"])):
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
    return W3Entries._make(starmap(Fraction, _w3_parts(diag)))


def w4_entries(diag: Sequence[int]) -> W4Entries:
    """Solve the width-4 system for diagonal (a, b, c, d) >= 1 componentwise."""
    return W4Entries._make(starmap(Fraction, _w4_parts(diag)))


def w3_system_holds(diag: Sequence[int], ent: W3Entries) -> bool:
    """Exact check of the six defining relations for width 3."""
    a, b, c = (Fraction(v) for v in diag)
    d, e, f, g, h, i = ent.as_tuple()
    return (a * d == 1 + b
            and b * e == (1 + d) * (1 + c)
            and c * f == 1 + e
            and d * g == 1 + e
            and e * h == (1 + g) * (1 + f)
            and g * i == 1 + h)


def w4_system_holds(diag: Sequence[int], ent: W4Entries) -> bool:
    """Exact check of the ten defining relations for width 4."""
    a, b, c, d = (Fraction(v) for v in diag)
    e, f, g, h, i, j, k, l, m, n = ent.as_tuple()
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


def w3_inequalities(diag: Sequence[int]) -> tuple[bool, ...]:
    """Whether each solved width-3 entry d..i is >= 1, in order (i)..(vi)."""
    return tuple(starmap(ge, _w3_parts(diag)))


def w4_inequalities(diag: Sequence[int]) -> tuple[bool, ...]:
    """Whether each solved width-4 entry e..n is >= 1, in order (i)..(x)."""
    return tuple(starmap(ge, _w4_parts(diag)))


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
