"""The frieze-to-Y transfer map: images, fibers, orbits, correspondence."""

from collections import Counter
from fractions import Fraction as F

import pytest

import yfrieze as yf
from yfrieze import io, ymap
from yfrieze.core import NotShiftClosed, rotation_orbits


# ----------------------------------------------------------------- apply_p

def test_apply_p_known_quiddities():
    assert yf.apply_p(yf.frieze_from_quiddity((2, 1, 3, 2, 1, 3))).rows[1] \
        == (1, 2, 5, 1, 2, 5)
    assert yf.apply_p(yf.frieze_from_quiddity((1, 4, 1, 2, 2, 2))).rows[1] \
        == (3, 3, 1, 3, 3, 1)
    assert yf.apply_p(yf.frieze_from_quiddity((3, 1, 3, 1, 3, 1))).rows[1] \
        == (2, 2, 2, 2, 2, 2)


def test_apply_p_rejects_width_1_and_wrong_kind(y3_patterns):
    width1 = yf.frieze_from_quiddity((2, 1, 2, 1))
    with pytest.raises(ValueError):
        yf.apply_p(width1)
    with pytest.raises(ValueError):
        yf.apply_p(y3_patterns[0])


def test_apply_p_flags_nonarithmetic_image():
    fractional = yf.frieze_from_quiddity((2, F(3, 2), F(3, 2), 2, F(5, 4)))
    with pytest.raises(yf.MapFailure):
        yf.apply_p(fractional)


def test_apply_p_images_are_enumerated_solutions(frieze3, y3_patterns):
    targets = set(y3_patterns)
    assert {yf.apply_p(f) for f in frieze3} == targets


# ------------------------------------------------------------------ fibers

def test_fiber_analysis_width_3(frieze3, y3_patterns):
    report = yf.fiber_analysis(3, friezes=frieze3, ypatterns=y3_patterns)
    assert report.image_size == 10
    assert report.surjective and not report.injective
    assert sorted(report.fiber_sizes, reverse=True) == [2, 2, 2, 2, 1, 1, 1, 1, 1, 1]
    assert max(report.fiber_sizes) == 2
    assert sum(report.fiber_sizes) == len(frieze3)


def test_fiber_analysis_width_4(frieze4, y4_patterns):
    report = yf.fiber_analysis(4, friezes=frieze4, ypatterns=y4_patterns)
    assert report.surjective and report.injective
    assert report.image_size == 42 == len(frieze4) == len(y4_patterns)
    assert set(report.fiber_sizes) == {1}


def test_fiber_analysis_width_2():
    report = yf.fiber_analysis(2, yf.enumerate_frieze(2), yf.y_solutions(2).patterns)
    assert report.surjective and report.injective
    assert report.image_size == 5


def test_fiber_analysis_rotates_no_pattern(frieze4, y4_patterns, monkeypatch):
    # images are looked up by each frieze's row 3, so no rotated pattern is built
    from yfrieze import core
    friezes = list(frieze4)
    calls = []
    rotated = core._rotated

    def counting_rotated(*args):
        calls.append(args)
        return rotated(*args)

    monkeypatch.setattr(core, "_rotated", counting_rotated)
    monkeypatch.setattr(ymap, "_rotated", counting_rotated, raising=False)
    report = yf.fiber_analysis(4, friezes, y4_patterns)
    assert report.injective and report.surjective
    assert calls == []


def test_fiber_analysis_rejects_patterns_outside_its_domain(y3_patterns):
    with pytest.raises(ValueError):
        yf.fiber_analysis(3, [y3_patterns[0]], y3_patterns)
    with pytest.raises(ValueError):
        yf.fiber_analysis(1, list(yf.enumerate_frieze(1)), [])


def test_fiber_analysis_detects_incomplete_y_enumeration(frieze3, y3_patterns):
    with pytest.raises(yf.MapFailure):
        yf.fiber_analysis(3, friezes=frieze3, ypatterns=y3_patterns[:5])


# ------------------------------------------------------------------ orbits

def test_orbit_decomposition_sizes(frieze3, y3_patterns):
    assert sorted(map(len, yf.orbit_decomposition(frieze3)), reverse=True) \
        == [6, 3, 3, 2]
    assert sorted(map(len, yf.orbit_decomposition(y3_patterns)), reverse=True) \
        == [3, 3, 3, 1]


def test_orbit_of_constant_pattern_is_a_singleton():
    constant = yf.expand_domain(yf.w3_domain((2, 3, 2)))
    assert yf.orbit_decomposition([constant]) == [[0]]


def test_orbit_decomposition_width_4(frieze4, y4_patterns):
    assert [len(o) for o in yf.orbit_decomposition(frieze4)] == [7] * 6
    assert [len(o) for o in yf.orbit_decomposition(y4_patterns)] == [7] * 6


def reference_orbit_decomposition(patterns):
    """Orbits found by building every cyclic_shift pattern."""
    index = {p: i for i, p in enumerate(patterns)}
    orbits = []
    for i, p in enumerate(patterns):
        members = sorted({index[yf.cyclic_shift(p, s)] for s in range(p.period)})
        if members[0] == i:
            orbits.append(members)
    return sorted(orbits, key=lambda orbit: (-len(orbit), orbit[0]))


def test_orbit_decomposition_matches_cyclic_shift_reference(monkeypatch):
    from yfrieze import io
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", str(64 ** 5))
    half = yf.PeriodicPattern(yf.PatternKind.Y, 1,
                              ((0, 0, 0, 0), (2, F(1, 2), 2, F(1, 2)), (0, 0, 0, 0)))
    y_catalogs = [*(io.y_catalog(w) for w in range(1, 5)), io.y_catalog(5, bounds=(64,) * 5)]
    pattern_sets = [*(yf.enumerate_frieze(w) for w in range(1, 9)),
                    *([entry.pattern for entry in c.entries] for c in y_catalogs),
                    [half, yf.cyclic_shift(half, 1)]]
    for patterns in pattern_sets:
        reference = reference_orbit_decomposition(patterns)
        assert yf.orbit_decomposition(patterns) == reference
        # rotation_orbits on the key rows (quiddities, Y first rows) lists
        # each orbit in shift order from its smallest index
        keys = [p.rows[2 if p.kind is yf.PatternKind.COXETER else 1] for p in patterns]
        orbits = rotation_orbits(keys)
        assert [sorted(orbit) for orbit in orbits] == reference
        for orbit in orbits:
            root = keys[orbit[0]]
            assert orbit[0] == min(orbit)
            assert [keys[i] for i in orbit] == [root[s:] + root[:s] for s in range(len(orbit))]


def test_orbit_decomposition_requires_shift_closure(y3_patterns):
    with pytest.raises(NotShiftClosed):
        yf.orbit_decomposition(y3_patterns[:4])
    assert ymap.NotShiftClosed is NotShiftClosed  # the class cli catches
    quiddities = [f.rows[2] for f in yf.enumerate_frieze(2)]  # one orbit of five
    with pytest.raises(NotShiftClosed):
        rotation_orbits(quiddities[1:])
    with pytest.raises(ValueError, match="distinct"):
        rotation_orbits([*quiddities, quiddities[0]])


# --------------------------------------------------------------- equivariance

def test_apply_p_commutes_with_shifts(frieze3, frieze4):
    for friezes in (frieze3, frieze4):
        for f in friezes:
            image = yf.apply_p(f)
            for s in range(f.period):
                assert yf.apply_p(yf.cyclic_shift(f, s)) == yf.cyclic_shift(image, s)


# ----------------------------------------------------------- correspondence

def _records(width):
    friezes, ypatterns = io.coxeter_catalog(width), io.y_catalog(width)
    report = yf.fiber_analysis(width, [e.pattern for e in friezes.entries],
                               [e.pattern for e in ypatterns.entries])
    return yf.correspondence_table(friezes, ypatterns, report)


def test_correspondence_width_3():
    records = _records(3)
    pairs = Counter((r.frieze_orbit_size, r.y_orbit_size) for r in records)
    assert pairs == Counter({(3, 3): 2, (6, 3): 1, (2, 1): 1})
    assert sum(r.frieze_orbit_size for r in records) == 14
    assert sum(r.y_orbit_size for r in records) == 10
    # checked, not assumed: ratios stay in {1, 2}
    assert all(r.frieze_orbit_size / r.y_orbit_size in (1.0, 2.0) for r in records)


def test_correspondence_width_4():
    records = _records(4)
    assert len(records) == 6
    assert all(r.frieze_orbit_size == r.y_orbit_size == 7 for r in records)
    # bijectivity forces every Y orbit to be hit exactly once
    assert len({r.yfrieze_id for r in records}) == 6


def test_correspondence_width_2():
    records = _records(2)
    assert [(r.frieze_orbit_size, r.y_orbit_size) for r in records] == [(5, 5)]
