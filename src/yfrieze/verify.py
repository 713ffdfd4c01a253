"""The checks of `verify`: each pattern of a file, and each catalog entry's fields.

_verify_all takes read.read_patterns' (kind, width, rows, entry) of each
pattern and gives each pattern's first violation, or None.  Only `verify`
imports this module, so no other command compiles it.
"""

from __future__ import annotations

from typing import Optional, Union

from .core import PatternKind, Violation, check_rows, glide_shift_of_rows, key_of_rows
from .io import KEY_NAMES, ORBIT_FIELDS

# The (check, field) pairs of a catalog entry of each kind, in the order checked.
_FIELDS = {kind: (("id", "id"), ("key", KEY_NAMES[kind]),
                  *((("key", "diagonal"),) if kind is PatternKind.Y else ()),
                  *(("orbit", name) for name in ORBIT_FIELDS))
           for kind in PatternKind}


def _glide_or_violation(kind: PatternKind, width: int, rows) -> Union[int, Violation]:
    """The rows' first violation, or, if they have none, their glide shift."""
    violation = check_rows(kind, width, rows)
    if violation is not None:
        return violation
    interior_start = 1 if kind is PatternKind.Y else 2
    for m in range(interior_start, interior_start + width):
        for k, v in enumerate(rows[m]):
            if v <= 0 or v.denominator != 1:
                return Violation("positivity", m, k,
                                 f"interior entry {v} is not a positive integer")
    glide = glide_shift_of_rows(rows, width + 3)
    if glide is None:
        return Violation("glide", -1, -1, "no reflection-shift maps the pattern to itself")
    return glide


def _verify_one(kind: PatternKind, width: int, rows) -> Optional[Violation]:
    checked = _glide_or_violation(kind, width, rows)
    return checked if isinstance(checked, Violation) else None


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


def _is_rotation(columns: tuple, root: tuple) -> bool:
    """True iff `columns` are the `root` columns rotated left to where
    columns[0] first occurs in them.  When the root is a valid pattern's,
    no later occurrence gives another rotation: by the diamond rule each of
    its columns fixes the next one."""
    for s, column in enumerate(root):
        if column == columns[0]:
            return root[s:] + root[:s] == columns
    return False


def _verify_all(entries) -> list[Optional[Violation]]:
    """_verify_one of every (kind, width, rows, entry), then _entry_violation
    of each passing catalog entry against its orbit tuple.

    Every check of _verify_one is rotation-invariant, so a rotation of a
    passing entry passes too, with the same glide.  `roots` holds one row per
    rotation orbit: for each entry that passed and names itself as its
    orbit_root, its columns, its tuple (i, s, s, glide), s the smallest shift
    that maps the columns onto themselves, and the count of entries that
    pass through it, itself included.  Another entry's orbit_root is only a
    hint: the entry passes through the root it names, with its tuple, if it
    has its kind's number of rows, each with one cell per column (zip drops
    the rest of a longer row, so only then do the columns fix the rows), and
    _is_rotation of the columns holds.  Every other entry gets the full
    check.  If it passes and names an earlier entry with a violation and no
    table row, a root that cannot be checked, its tuple is (hint, s, s,
    glide) from its own rows; else it has none.  After the last entry, a
    root with no violation whose count is not its s gets an orbit violation.
    """
    roots: dict[int, list] = {}
    violations = []
    for i, (kind, width, rows, entry) in enumerate(entries):
        hint = entry.get("orbit_root") if entry is not None else None
        if type(hint) is not int:  # only an int, not a bool, names an entry
            hint = -1
        root = roots.get(hint)
        if (root is not None and len(rows) == width + (2 if kind is PatternKind.Y else 4)
                and all(len(row) == width + 3 for row in rows)
                and _is_rotation(tuple(zip(*rows)), root[0])):
            violation, orbit = None, root[1]
            root[2] += 1
        else:
            glide = _glide_or_violation(kind, width, rows)
            violation = glide if isinstance(glide, Violation) else None
            orbit = None
            if violation is None and (hint == i or (root is None and 0 <= hint < i
                                                    and violations[hint] is not None)):
                columns = tuple(zip(*rows))
                size = next(s for s in range(1, width + 4) if columns[s:] + columns[:s] == columns)
                orbit = (hint, size, size, glide)
                if hint == i:
                    roots[i] = [columns, orbit, 1]
        if violation is None and entry is not None:
            violation = _entry_violation(i, kind, width, rows, entry, orbit)
        violations.append(violation)
    for i, (_, (_, size, _, _), count) in roots.items():
        if violations[i] is None and count != size:
            violations[i] = Violation("orbit", -1, -1, f"orbit_size {size} is not {count}, "
                                      "the number of its rotations naming it as orbit_root")
    return violations
