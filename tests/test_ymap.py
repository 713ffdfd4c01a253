"""The frieze-to-Y transfer map: images, fibers, orbits, correspondence."""

from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import yfrieze as yf
from yfrieze import io, ymap
from yfrieze.core import NotShiftClosed, OrbitPatterns, rotation_orbits
from conftest import IMAGE_BOXES
from oracles import expand_domain, first_diagonal_of, per_frieze_fibers, w3_domain


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


def test_apply_p_flags_an_image_that_is_no_y_pattern():
    # A Coxeter pattern with a non-positive interior can pass check_rows;
    # here its image's row 1 is identically 0, a closure violation.
    frieze = yf.PeriodicPattern(yf.PatternKind.COXETER, 2,
                                [(0,) * 5, (1,) * 5, (-1,) * 5, (0,) * 5, (1,) * 5, (0,) * 5])
    with pytest.raises(yf.MapFailure) as exc:
        yf.apply_p(frieze)
    assert "closure violation at row 1" in str(exc.value) and "\n" not in str(exc.value)


def test_apply_p_images_are_enumerated_solutions(frieze3, y3_patterns):
    targets = set(y3_patterns)
    assert {yf.apply_p(f) for f in frieze3} == targets


# ------------------------------------------------------------------ fibers

def test_fiber_analysis_width_3(frieze3):
    report = yf.fiber_analysis(io.coxeter_catalog(3), io.y_catalog(3))
    assert report.image_size == 10
    assert report.surjective and not report.injective
    assert sorted(report.fiber_sizes, reverse=True) == [2, 2, 2, 2, 1, 1, 1, 1, 1, 1]
    assert max(report.fiber_sizes) == 2
    assert sum(report.fiber_sizes) == len(frieze3)


def test_fiber_analysis_width_4(frieze4, y4_patterns):
    report = yf.fiber_analysis(io.coxeter_catalog(4), io.y_catalog(4))
    assert report.surjective and report.injective
    assert report.image_size == 42 == len(frieze4) == len(y4_patterns)
    assert set(report.fiber_sizes) == {1}


def test_fiber_analysis_width_2():
    report = yf.fiber_analysis(io.coxeter_catalog(2), io.y_catalog(2))
    assert report.surjective and report.injective
    assert report.image_size == 5


def test_fiber_analysis_rotates_no_pattern(monkeypatch):
    # each member's image is looked up by its root image's first row rotated
    # to the member's shift, so no rotated pattern is built
    from yfrieze import core
    friezes, ypatterns = io.coxeter_catalog(4), io.y_catalog(4)
    calls = []
    rotated = core._rotated

    def counting_rotated(*args):
        calls.append(args)
        return rotated(*args)

    monkeypatch.setattr(core, "_rotated", counting_rotated)
    monkeypatch.setattr(ymap, "_rotated", counting_rotated, raising=False)
    report = yf.fiber_analysis(friezes, ypatterns)
    assert report.injective and report.surjective
    assert calls == []


def test_fiber_analysis_rejects_patterns_outside_its_domain():
    with pytest.raises(ValueError):
        yf.fiber_analysis(io.y_catalog(3), io.y_catalog(3))
    with pytest.raises(ValueError):
        yf.fiber_analysis(io.coxeter_catalog(1), io.y_catalog(1))


def test_fiber_analysis_detects_incomplete_y_enumeration():
    # the width-3 Y catalog with its first rotation orbit left out
    ypatterns = io.y_catalog(3)
    held = ypatterns.patterns
    kept = [p for i, p in enumerate(held) if held.locate(i)[0] != 0]
    assert 0 < len(kept) < len(held)
    partial = ypatterns._replace(patterns=OrbitPatterns([p.rows[1] for p in kept],
                                                        kept.__getitem__))
    with pytest.raises(yf.MapFailure):
        yf.fiber_analysis(io.coxeter_catalog(3), partial)


@pytest.mark.parametrize("width, doubled", [(2, 0), (3, 4), (4, 0), (5, 12), (6, 0), (7, 60)])
def test_orbit_pass_equals_the_per_frieze_pass(width, doubled, monkeypatch):
    # one apply_p per frieze orbit root gives the fibers and records that
    # mapping every frieze gives; widths 5-7 search their image boxes
    monkeypatch.setenv(yf.core.MAX_CANDIDATES_ENV, str(10 ** 15))
    friezes = io.coxeter_catalog(width)
    ypatterns = io.y_catalog(width, bounds=IMAGE_BOXES.get(width))
    report = yf.fiber_analysis(friezes, ypatterns)
    assert report == per_frieze_fibers(friezes, ypatterns)
    assert report.surjective and sum(report.fiber_sizes) == len(friezes.patterns)
    sizes = Counter(report.fiber_sizes)
    assert (sizes[2], set(sizes)) == (doubled, {1, 2} if doubled else {1})


# ------------------------------------------------------------------ orbits

def test_orbit_decomposition_sizes(frieze3, y3_patterns):
    assert sorted(map(len, yf.orbit_decomposition(frieze3)), reverse=True) \
        == [6, 3, 3, 2]
    assert sorted(map(len, yf.orbit_decomposition(y3_patterns)), reverse=True) \
        == [3, 3, 3, 1]


def test_orbit_of_constant_pattern_is_a_singleton():
    constant = expand_domain(w3_domain((2, 3, 2)))
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
                    *(list(c.patterns) for c in y_catalogs),
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
    return yf.fiber_analysis(friezes, ypatterns).records


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


# ------------------------------------------------- the map read off row 3

def _rows_2_and_3(width):
    """Each frieze's quiddity and row 3, read off its orbit root at its shift."""
    friezes = yf.enumerate_frieze(width)
    for i in range(len(friezes)):
        k, s = friezes.locate(i)
        rows = friezes.roots[k].rows
        yield rows[2][s:] + rows[2][:s], rows[3][s:] + rows[3][:s]


def push_forward(frieze):
    """The image as propagate_y builds it from row 3, the oracle for apply_p."""
    image = yf.propagate_y(frieze.rows[3], frieze.width)
    if not yf.is_arithmetic(image):
        raise yf.MapFailure("image of frieze is not arithmetic")
    return image


def diamond_form(frieze):
    """Rows 1..n of the image as y[m][k] = f[m][k+1]*f[m+2][k], the product
    rule f[m+1][k]*f[m+1][k+1] - 1 rewritten by the frieze's diamond."""
    f, period = frieze.rows, frieze.period
    return tuple(tuple(f[m][(k + 1) % period] * f[m + 2][k] for k in range(period))
                 for m in range(1, frieze.width + 1))


@pytest.mark.parametrize("width", range(2, 9))
def test_row_3_is_the_quiddity_products_less_one(width):
    # row 3 is the image's row 1, the case m = 1 of the product rule; every
    # image row is checked, and the image against the push-forward of row 3
    period = width + 3
    for q, r in _rows_2_and_3(width):
        assert r == tuple(q[k] * q[(k + 1) % period] - 1 for k in range(period))
    for frieze in yf.enumerate_frieze(width):
        image = push_forward(frieze)
        assert yf.apply_p(frieze) == image
        assert image.rows[1:-1] == diamond_form(frieze)
        assert all(row[k] * row[(k + 1) % period] - 1 == image.rows[m][k]
                   for m, row in enumerate(frieze.rows[1:-1]) for k in range(period))


@st.composite
def rational_friezes(draw):
    """A closed frieze of width 2..7 with positive rational entries.

    Its first interior diagonal (storage column 0, rows 2..n+1) is drawn at
    random; each next column is filled top-down by the unimodular rule
    E = (1 + N*S)/W, and row 2 of the filled columns is the quiddity.
    """
    width = draw(st.integers(2, 7))
    entries = st.builds(F, st.integers(1, 9), st.sampled_from([1, 1, 2, 3, 4]))
    column = [1, *draw(st.lists(entries, min_size=width, max_size=width)), 1]
    quiddity = [column[1]]
    for _ in range(width + 2):
        east = [1]
        for m in range(1, width + 1):
            east.append((1 + east[m - 1] * column[m + 1]) / column[m])
        column = east + [1]
        quiddity.append(column[1])
    return yf.frieze_from_quiddity(quiddity)


@settings(max_examples=150, deadline=None)
@given(frieze=rational_friezes())
def test_apply_p_agrees_with_the_push_forward_on_rational_friezes(frieze):
    assert yf.propagate_y(frieze.rows[3], frieze.width).rows[1:-1] == diamond_form(frieze)
    try:
        image = yf.apply_p(frieze)
    except yf.MapFailure:
        with pytest.raises(yf.MapFailure):
            push_forward(frieze)
    else:
        assert image == push_forward(frieze)


@pytest.mark.parametrize("width, distinct", [(2, 5), (3, 10), (4, 42), (5, 120),
                                             (6, 429), (7, 1370), (8, 4862)])
def test_friezes_per_row_3(width, distinct):
    # p_n is injective for even n: the odd period fixes q_0 from row 3
    shared = Counter(Counter(r for _, r in _rows_2_and_3(width)).values())
    assert sum(shared.values()) == distinct
    assert set(shared) == ({1} if width % 2 == 0 else {1, 2})


@pytest.mark.parametrize("width, box", sorted(IMAGE_BOXES.items()))
def test_the_image_box_holds_exactly_the_image(width, box, monkeypatch):
    # results within a box: no proven box exists past width 4
    rows3 = {r for _, r in _rows_2_and_3(width)}
    diagonals = [first_diagonal_of(yf.apply_p(f)) for f in yf.enumerate_frieze(width)]
    assert tuple(map(max, zip(*diagonals))) == box
    monkeypatch.setenv(yf.core.MAX_CANDIDATES_ENV, str(10 ** 15))
    sols = yf.enumerate_generic(width, yf.SearchBox(box))
    assert {p.rows[1] for p in sols.patterns} == rows3
    assert len(sols) == len(rows3)
