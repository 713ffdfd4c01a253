"""Diamond rules, propagation, glide expansion and shift semantics."""

from fractions import Fraction as F

import pytest

import yfrieze as yf
from yfrieze.core import Violation, check_rows


def diamonds(p):
    """All (W, E, N, S) quadruples of a pattern, row-major."""
    period = p.period
    for m in range(1, len(p.rows) - 1):
        for k in range(period):
            yield (p.rows[m][k], p.rows[m][(k + 1) % period],
                   p.rows[m - 1][(k + 1) % period], p.rows[m + 1][k])


# ---------------------------------------------------------------- y_south

def test_y_south_values():
    assert yf.y_south(3, 3, 0) == 8
    assert yf.y_south(1, 1, 0) == 0
    assert yf.y_south(8, 2, 3) == 3


def test_y_south_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        yf.y_south(1, 1, -1)


# ------------------------------------------------------------ coxeter_east

def test_coxeter_east_values():
    assert yf.coxeter_east(1, 0, 0) == 1
    assert yf.coxeter_east(1, 1, 1) == 2


def test_coxeter_east_against_zigzag_frieze():
    # Brute-force oracle: every diamond of the frieze built from the
    # hexagon-zigzag quiddity must satisfy the east formula in both
    # orientations (the rule is symmetric in W and E).
    frieze = yf.frieze_from_quiddity((2, 1, 3, 2, 1, 3))
    seen = set()
    for w, e, n_val, s in diamonds(frieze):
        assert yf.coxeter_east(w, n_val, s) == e
        assert yf.coxeter_east(e, n_val, s) == w
        seen.add((w, e, n_val, s))
    assert (F(3), F(2), F(1), F(5)) in seen
    assert yf.coxeter_east(2, 1, 5) == 3


def test_coxeter_east_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        yf.coxeter_east(0, 1, 1)


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
    assert yf.expand_domain(yf.w3_domain((3, 8, 3))).rows[1] == (3, 3, 1, 3, 3, 1)
    assert yf.expand_domain(yf.w3_domain((2, 3, 2))).rows[2] == (3, 3, 3, 3, 3, 3)
    assert yf.expand_domain(yf.w3_domain((5, 9, 2))).rows[1] == (5, 2, 1, 5, 2, 1)


def test_expand_domain_rejects_inconsistent_entries():
    bad = yf.FundamentalDomain(3, ((1, 1, 1, 1), (1, 1, 1), (1, 1)))
    with pytest.raises(yf.InconsistentDomain) as exc:
        yf.expand_domain(bad)
    assert exc.value.violation.check == "diamond"


def test_expand_agrees_with_propagation(w3_solutions, w4_solutions):
    for sols, builder in ((w3_solutions, yf.w3_domain), (w4_solutions, yf.w4_domain)):
        for diag in sols.diagonals:
            expanded = yf.expand_domain(builder(diag))
            assert yf.propagate_y(expanded.rows[1], sols.width) == expanded


def test_domain_round_trip():
    dom = yf.w4_domain((2, 3, 2, 3))
    pattern = yf.expand_domain(dom)
    assert yf.domain_of(pattern) == dom
    assert yf.first_diagonal_of(pattern) == (2, 3, 2, 3)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_entry_tuple_round_trip(width):
    count = width * (width + 3) // 2
    values = tuple(range(1, count + 1))
    dom = yf.FundamentalDomain.from_entry_tuple(width, values)
    assert tuple(int(v) for v in dom.entry_tuple()) == values
    assert len(dom.rows) == width
    assert [len(r) for r in dom.rows] == [width + 2 - m for m in range(1, width + 1)]


# ----------------------------------------------------------- is_arithmetic

def test_is_arithmetic():
    assert yf.is_arithmetic(yf.propagate_y((3, 3, 1, 3, 3, 1), 3))
    # diagonal (1,1,1) develops the entry 7/2
    half = yf.expand_domain(yf.w3_domain((1, 1, 1)))
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
    by_diag = {tuple(int(v) for v in yf.first_diagonal_of(p)): p for p in y3_patterns}
    p = by_diag[(1, 1, 2)]
    orbit = {yf.cyclic_shift(p, s) for s in range(p.period)}
    assert len(orbit) == 3
    assert {tuple(int(v) for v in yf.first_diagonal_of(q)) for q in orbit} \
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
    assert yf.intrinsic_period(yf.expand_domain(yf.w3_domain((2, 3, 2)))) == 1
    assert yf.intrinsic_period(yf.expand_domain(yf.w3_domain((3, 8, 3)))) == 3
    assert yf.intrinsic_period(yf.expand_domain(yf.w4_domain((1, 1, 2, 3)))) == 7


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
