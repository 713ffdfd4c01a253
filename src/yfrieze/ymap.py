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
    the map itself: image_of[i] is the index in ypatterns of frieze i's image."""

    width: int
    fiber_sizes: tuple[int, ...]
    image_size: int
    surjective: bool
    injective: bool
    image_of: tuple[int, ...]


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


def fiber_analysis(width: int, friezes: Sequence[PeriodicPattern],
                   ypatterns: Sequence[PeriodicPattern]) -> FiberReport:
    """Push every width-n frieze through the map and count hits per Y pattern.

    A frieze's row 3 is its image's first row, which fixes a Y pattern, so
    the image is looked up by that row.  The image depends only on row 3 and
    rotates with it, so apply_p runs once per rotation orbit of row 3, to
    check the image's diamonds and that it is arithmetic.  `ypatterns` must hold
    every width-n Y pattern the friezes map to; MapFailure is raised otherwise.
    """
    index = {p.rows[1]: i for i, p in enumerate(ypatterns)}
    mapped: set[tuple] = set()  # every rotation of each row 3 that apply_p took
    image_of = []
    for frieze in friezes:
        row = frieze.rows[3] if frieze.kind is PatternKind.COXETER else None
        if row not in mapped:
            apply_p(frieze)  # raises ValueError if row is None
            mapped.update(row[s:] + row[:s] for s in range(len(row)))
        if row not in index:
            raise MapFailure("frieze image is not among the enumerated Y patterns; "
                             "the supplied Y enumeration is incomplete")
        image_of.append(index[row])
    sizes = [0] * len(ypatterns)
    for j in image_of:
        sizes[j] += 1
    image_size = sum(1 for s in sizes if s)
    return FiberReport(width=width, fiber_sizes=tuple(sizes), image_size=image_size,
                       surjective=image_size == len(ypatterns),
                       injective=all(s <= 1 for s in sizes), image_of=tuple(image_of))


def correspondence_table(friezes: Catalog, ypatterns: Catalog,
                         report: FiberReport) -> list[CorrespondenceRecord]:
    """One record per frieze orbit: its size s and its image orbit's size t.

    Takes the built Coxeter and Y catalogs of one width and the
    fiber_analysis of their `patterns`.  Both sides' orbits are the `heads`
    that generation found, and each frieze root's image is read off
    report.image_of.  Equivariance with cyclic shifts makes the image orbit
    well defined by any representative.
    """
    held = ypatterns.patterns
    records = []
    for root, size in friezes.patterns.heads:
        target, target_size = held.heads[held.locate(report.image_of[root])[0]]
        records.append(CorrespondenceRecord(frieze_id=root, yfrieze_id=target,
                                            frieze_orbit_size=size, y_orbit_size=target_size))
    return records
