"""Diamond rules, propagation, glide expansion and shift semantics."""

from fractions import Fraction as F
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

import yfrieze as yf
from yfrieze.core import PatternKind, Violation, check_rows
from oracles import (FundamentalDomain, coxeter_east, domain_of, expand_domain, first_diagonal_of,
                     w3_domain, w4_domain, y_south)


def diamonds(p):
    """All (W, E, N, S) quadruples of a pattern, row-major."""
    period = p.period
    for m in range(1, len(p.rows) - 1):
        for k in range(period):
            yield (p.rows[m][k], p.rows[m][(k + 1) % period],
                   p.rows[m - 1][(k + 1) % period], p.rows[m + 1][k])


# ---------------------------------------------------------------- y_south

def test_y_south_values():
    assert y_south(3, 3, 0) == 8
    assert y_south(1, 1, 0) == 0
    assert y_south(8, 2, 3) == 3


def test_y_south_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        y_south(1, 1, -1)


# ------------------------------------------------------------ coxeter_east

def test_coxeter_east_values():
    assert coxeter_east(1, 0, 0) == 1
    assert coxeter_east(1, 1, 1) == 2


def test_coxeter_east_against_zigzag_frieze():
    # Brute-force oracle: every diamond of the frieze built from the
    # hexagon-zigzag quiddity must satisfy the east formula in both
    # orientations (the rule is symmetric in W and E).
    frieze = yf.frieze_from_quiddity((2, 1, 3, 2, 1, 3))
    seen = set()
    for w, e, n_val, s in diamonds(frieze):
        assert coxeter_east(w, n_val, s) == e
        assert coxeter_east(e, n_val, s) == w
        seen.add((w, e, n_val, s))
    assert (F(3), F(2), F(1), F(5)) in seen
    assert coxeter_east(2, 1, 5) == 3


def test_coxeter_east_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        coxeter_east(0, 1, 1)


# ------------------------------------------------------------- propagate_y

def test_propagate_reproduces_known_patterns():
    p = yf.propagate_y((3, 3, 1, 3, 3, 1), 3)
    assert p.rows[2] == (8, 2, 2, 8, 2, 2)
    assert p.rows[3] == (3, 1, 3, 3, 1, 3)
    assert p.rows[4] == (0,) * 6

    q = yf.propagate_y((2, 2, 2, 2, 2, 2), 3)
    assert q.rows[2] == (3,) * 6
    assert q.rows[3] == (2,) * 6


def test_propagate_all_ones_closes_too_early():
    # Row 2 comes out identically zero, i.e. the pattern has width 1.
    with pytest.raises(yf.ClosureFailure) as exc:
        yf.propagate_y((1, 1, 1, 1, 1, 1), 3)
    assert (exc.value.row, exc.value.col) == (2, 0)


@pytest.mark.parametrize("width", range(1, 7))
def test_propagate_rejects_an_all_zero_first_row(width):
    # The search keeps every hit that propagate_y accepts.  At width 2 the
    # rows 0, 0, -1, 0 close, and only PeriodicPattern's check_rows rejects
    # them, at the identically zero row 1.
    with pytest.raises(yf.FriezeError) as exc:
        yf.propagate_y((0,) * (width + 3), width)
    if width == 2:
        assert type(exc.value) is yf.InconsistentDomain
        assert exc.value.violation[:2] == ("closure", 1)


def test_propagate_reports_first_offending_cell():
    first = (2, 2, 2, 2, 2, 1)
    # Independent recomputation of the grid with raw Fractions.
    rows = [[F(0)] * 6, [F(v) for v in first]]
    for m in (1, 2, 3):
        rows.append([rows[m][k] * rows[m][(k + 1) % 6] / (1 + rows[m - 1][(k + 1) % 6]) - 1
                     for k in range(6)])
    expected_col = next(k for k, v in enumerate(rows[4]) if v != 0)
    with pytest.raises(yf.ClosureFailure) as exc:
        yf.propagate_y(first, 3)
    assert (exc.value.row, exc.value.col) == (4, expected_col)
    assert exc.value.value == rows[4][expected_col]


def test_propagate_rejects_wrong_length():
    with pytest.raises(ValueError):
        yf.propagate_y((1, 2, 3), 3)


# ----------------------------------------------------------- expand_domain

def test_expand_domain_rows_match_known_friezes():
    assert expand_domain(w3_domain((3, 8, 3))).rows[1] == (3, 3, 1, 3, 3, 1)
    assert expand_domain(w3_domain((2, 3, 2))).rows[2] == (3, 3, 3, 3, 3, 3)
    assert expand_domain(w3_domain((5, 9, 2))).rows[1] == (5, 2, 1, 5, 2, 1)


def test_expand_domain_rejects_inconsistent_entries():
    bad = FundamentalDomain(3, ((1, 1, 1, 1), (1, 1, 1), (1, 1)))
    with pytest.raises(yf.InconsistentDomain) as exc:
        expand_domain(bad)
    assert exc.value.violation.check == "diamond"


def test_expand_agrees_with_propagation(w3_solutions, w4_solutions):
    for sols, builder in ((w3_solutions, w3_domain), (w4_solutions, w4_domain)):
        for diag in sols.diagonals:
            expanded = expand_domain(builder(diag))
            assert yf.propagate_y(expanded.rows[1], sols.width) == expanded


def test_domain_round_trip():
    dom = w4_domain((2, 3, 2, 3))
    pattern = expand_domain(dom)
    assert domain_of(pattern) == dom
    assert first_diagonal_of(pattern) == (2, 3, 2, 3)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_entry_tuple_round_trip(width):
    count = width * (width + 3) // 2
    values = tuple(range(1, count + 1))
    dom = FundamentalDomain.from_entry_tuple(width, values)
    assert tuple(int(v) for v in dom.entry_tuple()) == values
    assert len(dom.rows) == width
    assert [len(r) for r in dom.rows] == [width + 2 - m for m in range(1, width + 1)]


# ----------------------------------------------------------- is_arithmetic

def test_is_arithmetic():
    assert yf.is_arithmetic(yf.propagate_y((3, 3, 1, 3, 3, 1), 3))
    # diagonal (1,1,1) develops the entry 7/2
    half = expand_domain(w3_domain((1, 1, 1)))
    assert F(7, 2) in half.rows[1]
    assert not yf.is_arithmetic(half)


def test_zero_interior_row_is_not_a_width_3_pattern():
    rows = ((0,) * 6, (1,) * 6, (0,) * 6, (-1,) * 6, (0,) * 6)
    with pytest.raises(yf.InconsistentDomain) as exc:
        yf.PeriodicPattern(yf.PatternKind.Y, 3, rows)
    assert exc.value.violation.check == "closure"


# ------------------------------------------------------------ cyclic_shift

def test_cyclic_shift_identity_and_full_turn(y3_patterns):
    p = y3_patterns[0]
    assert yf.cyclic_shift(p, 0) == p
    assert yf.cyclic_shift(p, p.period) == p


def test_cyclic_shift_orbit_of_first_diagram(y3_patterns):
    by_diag = {tuple(int(v) for v in first_diagonal_of(p)): p for p in y3_patterns}
    p = by_diag[(1, 1, 2)]
    orbit = {yf.cyclic_shift(p, s) for s in range(p.period)}
    assert len(orbit) == 3
    assert {tuple(int(v) for v in first_diagonal_of(q)) for q in orbit} \
        == {(1, 1, 2), (2, 9, 5), (5, 4, 1)}


def test_cyclic_shift_is_a_group_action(y4_patterns):
    p = y4_patterns[0]
    for s1 in range(p.period):
        for s2 in range(p.period):
            assert yf.cyclic_shift(yf.cyclic_shift(p, s1), s2) \
                == yf.cyclic_shift(p, (s1 + s2) % p.period)


# ------------------------------------------------------------------- glide

def test_glide_shift_exists_and_satisfies_relation(y3_patterns, frieze3):
    for p in (*y3_patterns, *frieze3):
        s = yf.glide_shift(p)
        assert s is not None
        top = len(p.rows) - 1
        for m in range(len(p.rows)):
            for k in range(p.period):
                assert p.rows[top - m][(k + m + s) % p.period] == p.rows[m][k]


def test_glide_shift_none_for_asymmetric_grid():
    # a foreign value in row 1 can never be matched by row 3 under any shift
    rows = [list(r) for r in yf.propagate_y((3, 3, 1, 3, 3, 1), 3).rows]
    rows[1][0] = F(99)
    assert yf.glide_shift_of_rows(rows, 6) is None


# --------------------------------------------------------- intrinsic_period

def test_intrinsic_period():
    assert yf.intrinsic_period(expand_domain(w3_domain((2, 3, 2)))) == 1
    assert yf.intrinsic_period(expand_domain(w3_domain((3, 8, 3)))) == 3
    assert yf.intrinsic_period(expand_domain(w4_domain((1, 1, 2, 3)))) == 7


# -------------------------------------------------------------- validation

def test_check_rows_reports_first_violation():
    good = yf.propagate_y((3, 3, 1, 3, 3, 1), 3)
    rows = [list(r) for r in good.rows]
    rows[2][1] = F(6)
    violation = check_rows(yf.PatternKind.Y, 3, rows)
    assert violation.check == "diamond"
    # first scan hit: the tampered cell (2,1) is the S of the diamond at (1,1)
    assert (violation.row, violation.col) == (1, 1)

    rows = [list(r) for r in good.rows]
    rows[0][3] = F(1)
    violation = check_rows(yf.PatternKind.Y, 3, rows)
    assert violation.check == "boundary"
    assert (violation.row, violation.col) == (0, 3)

    assert check_rows(yf.PatternKind.Y, 3, good.rows[:-1]).check == "shape"


def test_check_rows_gives_a_value_too_long_for_str_by_its_size():
    rows = [list(row) for row in yf.enumerate_frieze(3)[0].rows]
    rows[2][:2] = [10 ** 2500] * 2
    violation = check_rows(PatternKind.COXETER, 3, rows)
    assert (violation.check, violation.row, violation.col) == ("diamond", 2, 0)
    assert str(violation).endswith(f"W*E - N*S = <int of {(10 ** 5000).bit_length()} bits>, "
                                   "expected 1")
    rows = [list(row) for row in yf.propagate_y((3, 3, 1, 3, 3, 1), 3).rows]
    rows[0][1] = F(10 ** 4400, 3)
    assert check_rows(PatternKind.Y, 3, rows).detail == \
        f"expected constant 0, got <fraction of {(10 ** 4400).bit_length()}/2 bits>"


def oracle_diamond_scan(kind, rows):
    """The cell-by-cell diamond scan check_rows ran before it compared whole
    rows: the first failing diamond in row-major order, or None."""
    period = len(rows[0])
    for m in range(1, len(rows) - 1):
        for k in range(period):
            w = rows[m][k]
            e = rows[m][(k + 1) % period]
            n_val = rows[m - 1][(k + 1) % period]
            s = rows[m + 1][k]
            if kind is yf.PatternKind.Y:
                if w * e != (1 + n_val) * (1 + s):
                    return Violation("diamond", m, k,
                                     f"W*E = {w * e} but (1+N)(1+S) = {(1 + n_val) * (1 + s)}")
            else:
                if w * e - n_val * s != 1:
                    return Violation("diamond", m, k,
                                     f"W*E - N*S = {w * e - n_val * s}, expected 1")
    return None


def oracle_glide_shift(rows, period):
    """The cell-by-cell glide search glide_shift_of_rows ran before it
    compared whole rows."""
    top = len(rows) - 1
    for s in range(period):
        if all(rows[top - m][(k + m + s) % period] == rows[m][k]
               for m in range(len(rows)) for k in range(period)):
            return s
    return None


def test_row_kernels_match_cell_oracles(y4_patterns):
    # Change one interior cell at a time, by 1 or by 1/2 in a checkerboard,
    # so the boundary checks pass and the diamond scan decides.
    for p in (*y4_patterns, *yf.enumerate_frieze(5)):
        assert check_rows(p.kind, p.width, p.rows) is None
        assert yf.glide_shift_of_rows(p.rows, p.period) == oracle_glide_shift(p.rows, p.period)
        first = 1 if p.kind is yf.PatternKind.Y else 2
        for m in range(first, first + p.width):
            for k in range(p.period):
                rows = [list(row) for row in p.rows]
                rows[m][k] += 1 if (m + k) % 2 else F(1, 2)
                violation = check_rows(p.kind, p.width, rows)
                assert violation is not None
                assert violation == oracle_diamond_scan(p.kind, rows)
                assert (yf.glide_shift_of_rows(rows, p.period)
                        == oracle_glide_shift(rows, p.period))


def test_glide_shift_matches_the_cell_oracle_on_every_frieze_and_y_pattern():
    patterns = [p for width in range(1, 9) for p in yf.enumerate_frieze(width)]
    patterns += [p for width in range(1, 5) for p in yf.y_solutions(width).patterns]
    for p in patterns:
        s = yf.glide_shift_of_rows(p.rows, p.period)
        assert s is not None and s == oracle_glide_shift(p.rows, p.period)


def test_glide_shift_holds_no_memory_after_it_returns():
    # CPython 3.11 keeps each freed 20-item tuple on a free list that it
    # never allocates from; a full collection empties it.  Width 7 has
    # period 10, so a doubled row was such a tuple.
    import gc
    import tracemalloc
    roots = yf.enumerate_frieze(7).roots
    assert len(roots) == 150
    gc.collect()
    tracemalloc.start()
    try:
        for p in roots:
            yf.glide_shift_of_rows(p.rows, p.period)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 50 * 1024, held


def oracle_check_rows(kind, width, rows):
    """check_rows as it was before it compared the flattened grid: boundary
    and closure rows cell by cell, diamonds one row at a time.  The
    reference for the property below; keep it as it is."""
    period = width + 3
    nrows = width + 2 if kind is PatternKind.Y else width + 4
    if width < 1:
        return Violation("shape", -1, -1, f"width must be >= 1, got {width}")
    if len(rows) != nrows:
        return Violation("shape", len(rows), -1,
                         f"expected {nrows} rows for width {width}, got {len(rows)}")
    for m, row in enumerate(rows):
        if len(row) != period:
            return Violation("shape", m, len(row),
                             f"row {m} has {len(row)} entries, expected {period}")

    constant_rows = [(0, 0), (nrows - 1, 0)]
    if kind is PatternKind.COXETER:
        constant_rows += [(1, 1), (nrows - 2, 1)]
    for m, expected in constant_rows:
        for k, v in enumerate(rows[m]):
            if v != expected:
                return Violation("boundary", m, k,
                                 f"expected constant {expected}, got {v}")

    # An interior row equal to the closing boundary row means the pattern
    # already closed at a smaller width.
    sentinel = 0 if kind is PatternKind.Y else 1
    first_interior = 1 if kind is PatternKind.Y else 2
    for m in range(first_interior, first_interior + width):
        if all(v == sentinel for v in rows[m]):
            return Violation("closure", m, 0,
                             f"interior row {m} is identically {sentinel}; "
                             f"the pattern closes before width {width}")

    # Compare whole rows: W*E, with E the row rotated left by one, against
    # (1+N)(1+S) or N*S + 1, with N the row above rotated the same way.
    # The first k where they differ is the first failing diamond of row m.
    ones = (1,) * period
    north = rows[0][1:] + rows[0][:1]
    for m in range(1, nrows - 1):
        east = rows[m][1:] + rows[m][:1]
        if kind is PatternKind.Y:
            north_south = list(map(mul, map(add, north, ones), map(add, rows[m + 1], ones)))
        else:
            north_south = list(map(add, map(mul, north, rows[m + 1]), ones))
        we = list(map(mul, rows[m], east))
        if we != north_south:
            k = next(i for i, (a, b) in enumerate(zip(we, north_south)) if a != b)
            if kind is PatternKind.Y:
                detail = f"W*E = {we[k]} but (1+N)(1+S) = {north_south[k]}"
            else:
                detail = f"W*E - N*S = {we[k] - north_south[k] + 1}, expected 1"
            return Violation("diamond", m, k, detail)
        north = east
    return None


TAMPER_BASES = [*(p for w in (1, 2, 3, 4) for p in yf.y_solutions(w).patterns),
                *(p for w in (1, 2, 3, 4, 5) for p in yf.enumerate_frieze(w))]
CELL_VALUES = st.one_of(st.integers(-2, 12), st.booleans(),
                        st.fractions(-3, 12, max_denominator=4))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_check_rows_matches_the_oracle_on_tampered_grids(data):
    p = data.draw(st.sampled_from(TAMPER_BASES))
    rows = [list(row) for row in p.rows]
    focus = 0  # a row the cell changes below favour
    if data.draw(st.integers(0, 5)) == 0:  # an interior row equal to the closing row
        sentinel = 0 if p.kind is PatternKind.Y else 1
        first = 1 if p.kind is PatternKind.Y else 2
        focus = data.draw(st.integers(first, first + p.width - 1))
        rows[focus] = data.draw(st.lists(st.sampled_from([sentinel, F(sentinel), bool(sentinel)]),
                                     min_size=p.period, max_size=p.period))
    for _ in range(data.draw(st.integers(0, 3))):  # boundary, closure or interior cells
        m = data.draw(st.one_of(st.integers(0, len(rows) - 1), st.just(focus)))
        k = data.draw(st.integers(0, p.period - 1))
        rows[m][k] = data.draw(st.one_of(CELL_VALUES, st.just(rows[m][k] + F(1, 2))))
    reshape = data.draw(st.sampled_from(["none"] * 12 + ["drop-row", "extra-row",
                                                         "drop-cell", "extra-cell"]))
    m = data.draw(st.integers(0, len(rows) - 1))
    if reshape == "drop-row":
        rows.pop(m)
    elif reshape == "extra-row":
        rows.insert(m, list(rows[m]))
    elif reshape == "drop-cell":
        rows[m].pop()
    elif reshape == "extra-cell":
        rows[m].append(data.draw(CELL_VALUES))
    width = data.draw(st.sampled_from([p.width] * 18 + [p.width + 1, 0]))
    assert check_rows(p.kind, width, rows) == oracle_check_rows(p.kind, width, rows)


def test_every_diamond_of_every_kind_holds(y4_patterns, frieze4):
    for p in y4_patterns:
        for w, e, n_val, s in diamonds(p):
            assert w * e == (1 + n_val) * (1 + s)
    for p in frieze4:
        for w, e, n_val, s in diamonds(p):
            assert w * e - n_val * s == 1


def test_pattern_stores_bools_as_fractions():
    # all-int rows are stored as they are; a bool is not taken for an int
    p = yf.PeriodicPattern(yf.PatternKind.Y, 1, ((0,) * 4, (True, 1, 1, 1), [0] * 4))
    assert [type(v) for v in p.rows[1]] == [F, int, int, int]
    assert p.rows[2] == (0,) * 4 and type(p.rows[2]) is tuple


def test_pattern_equality_is_column_exact(y3_patterns):
    p = y3_patterns[0]
    assert yf.cyclic_shift(p, 1) != p
    assert yf.cyclic_shift(p, 1) in {yf.cyclic_shift(p, s) for s in range(6)}


# --------------------------------------------------- validating named tuples

def _pattern_case(y3):
    p = y3[1]
    bad = [list(row) for row in p.rows]
    bad[1][0] += 1
    return (p, yf.PeriodicPattern(p.kind, p.width, [list(row) for row in p.rows]),
            yf.cyclic_shift(p, 1), (p.kind, p.width, bad), yf.InconsistentDomain)


def _domain_case(y3):
    d = domain_of(y3[1])
    return (d, FundamentalDomain(3, [list(row) for row in d.rows]),
            domain_of(yf.cyclic_shift(y3[1], 1)), (3, d.rows[:2]), ValueError)


def _box_case(y3):
    return (yf.SearchBox((4, 18, 11)), yf.SearchBox(tuple([4, 18, 11])),
            yf.SearchBox((18, 11, 4)), ((4, 0, 11),), ValueError)


def _triangulation_case(y3):
    t = yf.Triangulation(6, frozenset({(0, 2), (0, 3), (0, 4)}))
    return (t, yf.Triangulation(6, frozenset([(0, 4), (0, 3), (0, 2)])),
            yf.Triangulation(6, frozenset({(1, 3), (1, 4), (1, 5)})),  # turned one vertex
            (6, frozenset({(0, 2), (0, 3), (1, 4)})), ValueError)


@pytest.mark.parametrize("case", [_pattern_case, _domain_case, _box_case, _triangulation_case],
                         ids=["PeriodicPattern", "FundamentalDomain", "SearchBox",
                              "Triangulation"])
def test_validating_types_check_every_construction_and_stay_immutable(case, y3_patterns):
    obj, same, turned, bad_fields, error = case(y3_patterns)
    assert obj == same and hash(obj) == hash(same) and obj is not same
    assert obj != turned
    for name in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(turned, name))
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == same  # unchanged
    with pytest.raises(error):
        type(obj)(*bad_fields)
    with pytest.raises(error):
        type(obj)._make(bad_fields)
    with pytest.raises(error):
        obj._replace(**dict(zip(obj._fields, bad_fields)))
    assert obj._replace() == obj


def test_solution_sets_hold_only_their_width_and_patterns(w4_solutions):
    # the entry tuples and diagonals are read off the patterns, and a set
    # counts and iterates its patterns alike
    assert yf.enumerate_w4() == yf.enumerate_w4(parallelism=2) == w4_solutions
    assert hash(yf.enumerate_w4()) == hash(w4_solutions) and len(w4_solutions) == 42
    assert w4_solutions == yf.SolutionSet(4, w4_solutions.patterns)
    assert list(w4_solutions) == list(w4_solutions.patterns)
    with pytest.raises(AttributeError):
        w4_solutions.width = 5


def test_violation_prints_as_before():
    v = Violation("diamond", 2, 5, "W*E = 6 but (1+N)(1+S) = 8")
    assert str(v) == "diamond violation at row 2, col 5: W*E = 6 but (1+N)(1+S) = 8"
    assert str(yf.InconsistentDomain(v)) == str(v)
    assert (v.check, v.row, v.col, v.detail) == ("diamond", 2, 5, "W*E = 6 but (1+N)(1+S) = 8")
