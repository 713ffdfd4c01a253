"""The row-transfer map from Coxeter friezes to Y patterns, with fiber and
orbit bookkeeping.

The map sends a width-n frieze (n >= 2) to the Y pattern whose first row is
the frieze's second interior row.  It commutes with cyclic column shifts,
so it descends to shift orbits (found by core.rotation_orbits; an orbit's
size is its patterns' intrinsic period).  The fiber report records how far
the map is from being a bijection at each width.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .core import (ClosureFailure, FriezeError, NotShiftClosed, PatternKind,
                   PeriodicPattern, _rotated, is_arithmetic, propagate_y, rotation_orbits)
from .io import Catalog


class MapFailure(FriezeError):
    """The image of a valid frieze failed to close or to be arithmetic.

    Cannot happen for genuine closed arithmetic friezes; raising it
    signals a corrupted input or an implementation bug.
    """


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
    interior row."""
    if frieze.kind is not PatternKind.COXETER:
        raise ValueError("apply_p takes a Coxeter-kind pattern")
    if frieze.width < 2:
        raise ValueError("the transfer map needs a second interior row; "
                         "width-1 friezes are outside its domain")
    second = frieze.rows[3]
    try:
        image = propagate_y(second, frieze.width)
    except ClosureFailure as exc:
        raise MapFailure(f"image of frieze did not close: {exc}") from exc
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

    The map commutes with cyclic shifts, so apply_p runs once per rotation
    orbit: a rotation of a frieze already mapped gets that image rotated.
    `ypatterns` must hold every width-n Y pattern the friezes map to;
    MapFailure is raised otherwise.
    """
    index = {p: i for i, p in enumerate(ypatterns)}
    images: dict[PeriodicPattern, PeriodicPattern] = {}  # rotations of mapped friezes
    image_of = []
    for frieze in friezes:
        image = images.get(frieze)
        if image is None:
            image = apply_p(frieze)
            images.update((_rotated(frieze, s), _rotated(image, s)) for s in range(frieze.period))
        if image not in index:
            raise MapFailure("frieze image is not among the enumerated Y patterns; "
                             "the supplied Y enumeration is incomplete")
        image_of.append(index[image])
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
    fiber_analysis of their patterns.  Both sides' orbits are the ones
    generation found, and each frieze root's image is read off
    report.image_of.  Equivariance with cyclic shifts makes the image orbit
    well defined by any representative.
    """
    held = ypatterns.entries.patterns
    records = []
    for orbit in friezes.entries.orbits:
        target = held.shift_orbits[held.locate(report.image_of[orbit[0]])[0]]
        records.append(CorrespondenceRecord(frieze_id=orbit[0], yfrieze_id=target[0],
                                            frieze_orbit_size=len(orbit),
                                            y_orbit_size=len(target)))
    return records
