"""The checks of `verify`: each pattern of a file, and each catalog entry's fields.

_verify_all takes read.read_patterns' (kind, width, rows, entry) of each
pattern and gives each pattern's first violation, or None.  It searches
for no glide (see core.orbit_glide), and names a repeated entry.  Only
`verify` imports this module, so no other command compiles it.
"""

from __future__ import annotations

from typing import Optional

from .core import (PatternKind, Violation, check_rows, key_of_rows, orbit_glide,
                   positivity_violation)
from .io import KEY_NAMES, ORBIT_FIELDS

# The (check, field) pairs of a catalog entry of each kind, in the order checked.
_FIELDS = {kind: (("id", "id"), ("key", KEY_NAMES[kind]),
                  *((("key", "diagonal"),) if kind is PatternKind.Y else ()),
                  *(("orbit", name) for name in ORBIT_FIELDS))
           for kind in PatternKind}


def _verify_one(kind: PatternKind, width: int, rows) -> Optional[Violation]:
    """The rows' first violation: core.check_rows', else
    core.positivity_violation's, else None."""
    return check_rows(kind, width, rows) or positivity_violation(kind, width, rows)


def _entry_violation(i: int, kind: PatternKind, width: int, rows, entry: dict,
                     orbit: tuple) -> Optional[Violation]:
    """The first field of catalog entry i, whose rows are valid, that is
    missing, of another type or unequal to the value worked out for it: the
    id i, the key core.key_of_rows reads off the rows, and the orbit tuple
    (orbit_root, orbit_size, intrinsic_period, glide_shift).  A bool is no
    int, and a key holds ints only."""
    key = list(map(int, key_of_rows(kind, width, rows)))
    values = (i, key, key[:width]) if kind is PatternKind.Y else (i, key)
    for (check, name), expected in zip(_FIELDS[kind], values + orbit):
        value = entry.get(name)
        if (type(value) is not type(expected) or value != expected
                or (type(value) is list and not all(type(v) is int for v in value))):
            return Violation(check, -1, -1, f"{name} {value!r} is not {expected}")
    return None


def _verify_all(entries) -> list[Optional[Violation]]:
    """_verify_one of every (kind, width, rows, entry), then _entry_violation
    of each passing catalog entry against its orbit tuple.

    Every check of _verify_one is rotation-invariant, so a rotation of a
    passing entry passes too.  The table holds one row per rotation orbit,
    keyed by its columns rotated to start where their least column first
    occurs (by the diamond rule each column of a valid pattern fixes the
    next, so it occurs once in each period): the orbit tuple (r, s, s,
    core.orbit_glide(kind, s)), r the first catalog entry whose rows pass and
    s the smallest shift that maps its columns onto themselves, and a bit
    mask of the shifts of the entries that passed through the row.  A catalog
    entry whose key is held passes through its row unchecked, if it has its
    kind's number of rows, each with one cell per column (zip drops the rest
    of a longer row, so only then do the columns fix the rows).  Every other
    entry gets the full check.  An entry whose shift is already set repeats
    an earlier one and gets a `distinct` violation.  After the last entry, a
    root with no violation whose mask does not count s shifts gets an orbit
    violation.
    """
    held: dict[tuple, list] = {}  # least rotation of an orbit's columns -> its row
    violations = []
    for i, (kind, width, rows, entry) in enumerate(entries):
        row = None
        if (entry is not None and width > 0
                and len(rows) == width + (2 if kind is PatternKind.Y else 4)
                and all(len(cells) == width + 3 for cells in rows)):
            columns = tuple(zip(*rows))
            shift = columns.index(min(columns))
            least = columns[shift:] + columns[:shift]
            row = held.get(least)
        violation = _verify_one(kind, width, rows) if row is None else None
        if violation is None and entry is not None:
            if row is None:
                size = next(s for s in range(1, width + 4) if least[s:] + least[:s] == least)
                row = held[least] = [(i, size, size, orbit_glide(kind, size)), 0]
            if row[1] >> shift & 1:
                violation = Violation("distinct", -1, -1, "its rows repeat an earlier "
                                      f"entry's, in the orbit of entry {row[0][0]}")
            row[1] |= 1 << shift
            violation = violation or _entry_violation(i, kind, width, rows, entry, row[0])
        violations.append(violation)
    for (r, size, _, _), mask in held.values():
        if violations[r] is None and mask.bit_count() != size:
            violations[r] = Violation("orbit", -1, -1, f"orbit_size {size} is not "
                                      f"{mask.bit_count()}, the number of its rotations "
                                      "in the file")
    return violations
