"""The row-transfer map from Coxeter friezes to Y patterns, with fiber and
orbit bookkeeping.

The map sends a width-n frieze f (n >= 2) to the Y pattern whose row m is
f[m+1][k]*f[m+1][k+1] - 1, the product rule; its first row, which fixes it,
comes from the frieze's second interior row.  README proves that an arithmetic
frieze has an arithmetic image.  The map commutes with cyclic column shifts,
so it descends to the rotation orbits core.OrbitPatterns holds (an orbit's
size is its patterns' intrinsic period).  The fiber report records how far
the map is from being a bijection at each width.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .core import (FriezeError, InconsistentDomain, NotShiftClosed, PatternKind,
                   PeriodicPattern, is_arithmetic, rotation_orbits)
from .io import Catalog


class MapFailure(FriezeError):
    """A frieze's image is not an arithmetic Y pattern (so the frieze is not
    arithmetic), or is missing from a Y enumeration."""


class CorrespondenceRecord(NamedTuple):
    """One frieze shift-orbit and the Y orbit it lands on (sizes s and t)."""

    frieze_id: int
    yfrieze_id: int
    frieze_orbit_size: int
    y_orbit_size: int


class FiberReport(NamedTuple):
    """Preimage sizes of every width-n Y pattern under the transfer map, and
    one record per frieze orbit, in the order of the frieze catalog's heads."""

    width: int
    fiber_sizes: tuple[int, ...]
    image_size: int
    surjective: bool
    injective: bool
    records: tuple[CorrespondenceRecord, ...]


def apply_p(frieze: PeriodicPattern) -> PeriodicPattern:
    """Map a width >= 2 Coxeter frieze to the Y pattern seeded by its second
    interior row: frieze rows 1..n+2 times their left rotations, less 1, are
    its rows 0..n+1.  Raises MapFailure if the image is not an arithmetic
    Y pattern."""
    if frieze.kind is not PatternKind.COXETER:
        raise ValueError("apply_p takes a Coxeter-kind pattern")
    if frieze.width < 2:
        raise ValueError("the transfer map needs a second interior row; "
                         "width-1 friezes are outside its domain")
    try:
        image = PeriodicPattern(PatternKind.Y, frieze.width,
                                (tuple(a * b - 1 for a, b in zip(row, row[1:] + row[:1]))
                                 for row in frieze.rows[1:-1]))
    except InconsistentDomain as exc:  # as from a frieze with an entry <= 0
        raise MapFailure(f"image of frieze is not a Y pattern: {exc}") from None
    if not is_arithmetic(image):
        raise MapFailure("image of frieze is not arithmetic")
    return image


def orbit_decomposition(patterns: Sequence[PeriodicPattern]) -> list[list[int]]:
    """core.rotation_orbits of the patterns, each orbit sorted.  A pattern's
    key is its columns, which fix its kind and width and rotate with it."""
    return [sorted(orbit) for orbit in rotation_orbits([tuple(zip(*p.rows)) for p in patterns])]


def fiber_analysis(friezes: Catalog, ypatterns: Catalog) -> FiberReport:
    """Push a width's Coxeter friezes through the map, one orbit at a time.

    The map commutes with rotation, so apply_p runs once per frieze orbit
    root, to check the image's diamonds and that it is arithmetic, and the
    member at shift s maps to the image rotated by s.  An image is fixed by
    its first row, looked up among the Y patterns' first rows, each read off
    its orbit root at the pattern's shift, so no rotated pattern is built.
    Each frieze orbit's record names the Y orbit of its root's image.
    `ypatterns` must hold every Y pattern the friezes map to; MapFailure is
    raised otherwise.
    """
    held = ypatterns.patterns
    index = {}
    for j in range(len(held)):
        k, s = held.locate(j)
        row = held.roots[k].rows[1]
        index[row[s:] + row[:s]] = j
    sizes = [0] * len(held)
    records = []
    for root, (i, size) in zip(friezes.patterns.roots, friezes.patterns.heads):
        row = apply_p(root).rows[1]
        for s in range(size):
            j = index.get(row[s:] + row[:s])
            if j is None:
                raise MapFailure("frieze image is not among the enumerated Y patterns; "
                                 "the supplied Y enumeration is incomplete")
            sizes[j] += 1
        target, target_size = held.heads[held.locate(index[row])[0]]
        records.append(CorrespondenceRecord(i, target, size, target_size))
    image_size = sum(1 for s in sizes if s)
    return FiberReport(width=friezes.width, fiber_sizes=tuple(sizes), image_size=image_size,
                       surjective=image_size == len(held),
                       injective=all(s <= 1 for s in sizes), records=tuple(records))
