"""The checks of `verify`: each pattern of a file, and each catalog entry's fields.

_verify_all takes read.read_patterns' (kind, width, rows, entry) of each
pattern and gives each pattern's first violation, or None.  It searches
for no glide (see core.orbit_glide), and names a repeated entry.  Only
`verify` imports this module, so no other command compiles it.
"""

from __future__ import annotations

from typing import Optional

from .core import PatternKind, Violation, check_rows, key_of_rows, orbit_glide
from .io import KEY_NAMES, ORBIT_FIELDS

# The (check, field) pairs of a catalog entry of each kind, in the order checked.
_FIELDS = {kind: (("id", "id"), ("key", KEY_NAMES[kind]),
                  *((("key", "diagonal"),) if kind is PatternKind.Y else ()),
                  *(("orbit", name) for name in ORBIT_FIELDS))
           for kind in PatternKind}


def _verify_one(kind: PatternKind, width: int, rows) -> Optional[Violation]:
    """The rows' first violation: core.check_rows', else the first interior
    entry that is not a positive integer, else None."""
    violation = check_rows(kind, width, rows)
    if violation is not None:
        return violation
    interior_start = 1 if kind is PatternKind.Y else 2
    for m in range(interior_start, interior_start + width):
        for k, v in enumerate(rows[m]):
            if v <= 0 or v.denominator != 1:
                return Violation("positivity", m, k,
                                 f"interior entry {v} is not a positive integer")
    return None


def _entry_violation(i: int, kind: PatternKind, width: int, rows, entry: dict,
                     orbit: Optional[tuple]) -> Optional[Violation]:
    """The first field of catalog entry i, whose rows are valid, that is
    missing, of another type or unequal to the value worked out for it: the
    id i, the key core.key_of_rows reads off the rows, and the orbit tuple
    (orbit_root, orbit_size, intrinsic_period, glide_shift), None when the
    entry names no root that it is a rotation of.  A bool is no int, and a
    key holds ints only."""
    key = list(map(int, key_of_rows(kind, width, rows)))
    values = (i, key, key[:width]) if kind is PatternKind.Y else (i, key)
    for (check, name), expected in zip(_FIELDS[kind], values + (orbit or (None,))):
        value = entry.get(name)
        if (expected is None or type(value) is not type(expected) or value != expected
                or (type(value) is list and not all(type(v) is int for v in value))):
            detail = (f"is not {expected}" if expected is not None
                      else "names no root that the pattern is a rotation of")
            return Violation(check, -1, -1, f"{name} {value!r} {detail}")
    return None


def _shift(columns: tuple, root: tuple) -> Optional[int]:
    """The s with `columns` equal to the `root` columns rotated left by s,
    s where columns[0] first occurs in them, or None.  When the root is a
    valid pattern's, no later occurrence gives another rotation: by the
    diamond rule each of its columns fixes the next one."""
    for s, column in enumerate(root):
        if column == columns[0]:
            return s if root[s:] + root[:s] == columns else None
    return None


def _verify_all(entries) -> list[Optional[Violation]]:
    """_verify_one of every (kind, width, rows, entry), then _entry_violation
    of each passing catalog entry against its orbit tuple.

    Every check of _verify_one is rotation-invariant, so a rotation of a
    passing entry passes too.  The table holds one row per rotation orbit,
    keyed by its columns at their least rotation: those columns, the orbit
    tuple (r, s, s, core.orbit_glide(kind, s)), s the smallest shift that
    maps the columns onto themselves, and a bit mask of the shifts of the
    entries that passed through it.  A row is made by the first passing
    entry r that names itself as its orbit_root, or that names an earlier
    entry r with a violation and no row, which stands in for it; if its key
    is held, `roots[r]` aliases that row instead.  Another entry's
    orbit_root is only a hint: the entry passes through the row its root
    holds if it has its kind's number of rows, each with one cell per column
    (zip drops the rest of a longer row, so only then do the columns fix the
    rows), and its columns are the row's rotated by some shift.  Every other
    entry gets the full check, and has no orbit tuple unless it makes a row.
    An entry whose shift is already set in its row's mask repeats an earlier
    one and gets a `distinct` violation.  After the last entry, a root with
    no violation whose mask does not count s shifts gets an orbit violation.
    """
    roots: dict[int, list] = {}  # entry index -> its table row
    held: dict[tuple, list] = {}  # least rotation of a row's columns -> the row
    violations = []
    for i, (kind, width, rows, entry) in enumerate(entries):
        hint = entry.get("orbit_root") if entry is not None else None
        if type(hint) is not int:  # only an int, not a bool, names an entry
            hint = -1
        root, shift, violation = roots.get(hint), None, None
        if (root is not None and len(rows) == width + (2 if kind is PatternKind.Y else 4)
                and all(len(row) == width + 3 for row in rows)):
            shift = _shift(tuple(zip(*rows)), root[0])
        if shift is None:
            violation = _verify_one(kind, width, rows)
            if violation is None and (hint == i or (root is None and 0 <= hint < i
                                                    and violations[hint] is not None)):
                columns = tuple(zip(*rows))
                size = next(s for s in range(1, width + 4) if columns[s:] + columns[:s] == columns)
                least = min(columns[s:] + columns[:s] for s in range(size))
                root = roots[hint] = held.setdefault(
                    least, [least, (hint, size, size, orbit_glide(kind, size)), 0])
                shift = _shift(columns, least)
        if shift is not None:
            if root[2] >> shift & 1:
                violation = Violation("distinct", -1, -1, "its rows repeat an earlier "
                                      f"entry's, in the orbit of entry {root[1][0]}")
            root[2] |= 1 << shift
        if violation is None and entry is not None:
            violation = _entry_violation(i, kind, width, rows, entry,
                                         None if shift is None else root[1])
        violations.append(violation)
    for i, (_, (_, size, _, _), mask) in roots.items():
        if violations[i] is None and mask.bit_count() != size:
            violations[i] = Violation("orbit", -1, -1, f"orbit_size {size} is not "
                                      f"{mask.bit_count()}, the number of its rotations "
                                      "naming it as orbit_root")
    return violations
