"""The checks of `verify`: each pattern of a file, and each catalog entry's fields.

_verify_all takes read.read_patterns' (kind, width, rows, entry) of each
pattern and gives each pattern's first violation, or None.  Only `verify`
imports this module, so no other command compiles it.
"""

from __future__ import annotations

from typing import Optional

from .core import PatternKind, Violation, check_rows, glide_shift_of_rows, key_of_rows
from .io import KEY_NAMES, ORBIT_FIELDS


def _verify_one(kind: PatternKind, width: int, rows) -> Optional[Violation]:
    violation = check_rows(kind, width, rows)
    if violation is not None:
        return violation
    interior_start = 1 if kind is PatternKind.Y else 2
    for m in range(interior_start, interior_start + width):
        for k, v in enumerate(rows[m]):
            if v <= 0 or v.denominator != 1:
                return Violation("positivity", m, k,
                                 f"interior entry {v} is not a positive integer")
    if glide_shift_of_rows(rows, width + 3) is None:
        return Violation("glide", -1, -1, "no reflection-shift maps the pattern to itself")
    return None


def _entry_violation(i: int, kind: PatternKind, width: int, rows,
                     entry: dict) -> Optional[Violation]:
    """The id, key or orbit field of catalog entry i that disagrees with its
    place or its valid rows: the id must be i, the key the one
    core.key_of_rows reads off, and each orbit field an int."""
    if type(entry.get("id")) is not int or entry["id"] != i:
        return Violation("id", -1, -1, f"id {entry.get('id')!r} is not the entry's index {i}")
    key = list(map(int, key_of_rows(kind, width, rows)))
    fields = [(KEY_NAMES[kind], key)]
    if kind is PatternKind.Y:
        fields.append(("diagonal", key[:width]))
    for name, expected in fields:
        value = entry.get(name)
        if type(value) is not list or value != expected or not all(type(v) is int for v in value):
            return Violation("key", -1, -1,
                             f"{name} {value!r} is not {expected}, read off the rows")
    for name in ORBIT_FIELDS:
        if type(entry.get(name)) is not int:  # JSON true and false load as bool, an int subclass
            return Violation("orbit", -1, -1, f"{name} {entry.get(name)!r} is not an int")
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
    of each passing catalog entry, holding one table row per rotation orbit.

    Every check of _verify_one is rotation-invariant, so an entry whose rows
    are a rotation of an entry that passed passes too.  `roots` maps the
    index of each entry that passed and names itself as its orbit_root to
    its columns.  Another entry's orbit_root is only a hint.  The entry
    passes if the hint is an int naming such a root, the entry has its
    kind's number of rows, each with one cell per column (zip truncates a
    longer row, so only then do the columns fix the rows), and _is_rotation
    of its columns and the root's holds.  Equal columns then imply an equal
    kind and width.  Every other entry gets the full check, so each verdict
    is the one _verify_one gives.
    """
    roots: dict[int, tuple] = {}
    violations = []
    for i, (kind, width, rows, entry) in enumerate(entries):
        hint = entry.get("orbit_root") if entry is not None else None
        if type(hint) is not int:  # only an int, not a bool, names an entry
            hint = None
        root = roots.get(hint)
        if (root is not None and len(rows) == width + (2 if kind is PatternKind.Y else 4)
                and all(len(row) == width + 3 for row in rows)
                and _is_rotation(tuple(zip(*rows)), root)):
            violation = None
        else:
            violation = _verify_one(kind, width, rows)
            if violation is None and hint == i:
                roots[i] = tuple(zip(*rows))
        if violation is None and entry is not None:
            violation = _entry_violation(i, kind, width, rows, entry)
        violations.append(violation)
    return violations
