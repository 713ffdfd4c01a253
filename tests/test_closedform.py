"""Closed-form entries, integrality inequalities and proven search boxes."""

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import yfrieze as yf
from yfrieze.closedform import _w3_parts, _w4_parts
from oracles import (FundamentalDomain, entry_parts, expand_domain, w3_b_quadratic_nonpositive,
                     w3_domain, w3_product_ratio_at_least_2, w3_system_holds,
                     w4_bc_quadratic_nonpositive, w4_domain, w4_product_ratio_at_least_2,
                     w4_system_holds)

diag3 = st.tuples(*(st.integers(1, 3000) for _ in range(3)))
diag4 = st.tuples(*(st.integers(1, 3000) for _ in range(4)))
big_diag3 = st.tuples(*(st.integers(1, 10 ** 6) for _ in range(3)))
big_diag4 = st.tuples(*(st.integers(1, 10 ** 6) for _ in range(4)))

CLOSED_FORMS = {3: (yf.w3_entries, yf.w3_inequalities, w3_domain),
                4: (yf.w4_entries, yf.w4_inequalities, w4_domain)}


# ----------------------------------------------------------------- entries

def test_w3_entries_known_diagonals():
    assert yf.w3_entries((1, 1, 2)) == (2, 9, 5, 5, 4, 1)
    assert yf.w3_entries((2, 3, 2)) == (2, 3, 2, 2, 3, 2)
    assert yf.w3_entries((1, 1, 1)) == (2, 6, 7, F(7, 2), 6, 2)


def test_w3_entries_cross_checked_by_propagation():
    # the (1,1,1) values are not integral but still form a closed pattern
    pattern = expand_domain(w3_domain((1, 1, 1)))
    assert yf.propagate_y(pattern.rows[1], 3) == pattern


def test_w4_entries_known_diagonals():
    assert yf.w4_entries((1, 1, 2, 3)) == (2, 9, 20, 7, 5, 14, 6, 3, 2, 1)
    assert yf.w4_entries((2, 3, 2, 3)) == (2, 3, 8, 3, 2, 9, 5, 5, 4, 1)


def test_w4_entries_all_ones_diagonal():
    ent = yf.w4_entries((1, 1, 1, 1))
    assert ent.e == 2 and ent.n == 2
    assert any(v.denominator != 1 for v in ent)
    pattern = expand_domain(w4_domain((1, 1, 1, 1)))
    assert yf.propagate_y(pattern.rows[1], 4) == pattern


def test_entries_reject_bad_diagonals():
    with pytest.raises(ValueError):
        yf.w3_entries((0, 1, 1))
    with pytest.raises(ValueError):
        yf.w3_entries((1, 1))
    with pytest.raises(ValueError):
        yf.w4_entries((1, 1, 1))


@pytest.mark.parametrize("solve, diag", [
    (yf.w3_entries, (True, 1, 2)), (yf.w3_entries, (1.0, 1, 2)),
    (yf.w4_inequalities, (1, 1, 2, 3.0)), (yf.w3_inequalities, (F(2), 1, 2))])
def test_a_diagonal_value_that_is_not_an_int_is_rejected(solve, diag):
    # a bool, a float or a Fraction is no int, even when it equals one
    with pytest.raises(ValueError, match=r"^diagonal values must be positive integers, got "):
        solve(diag)


@settings(max_examples=1000, deadline=None)
@given(diag3)
def test_w3_system_holds_for_random_diagonals(diag):
    ent = yf.w3_entries(diag)
    assert all(v > 0 for v in ent)
    assert w3_system_holds(diag, ent)


@settings(max_examples=1000, deadline=None)
@given(diag4)
def test_w4_system_holds_for_random_diagonals(diag):
    ent = yf.w4_entries(diag)
    assert all(v > 0 for v in ent)
    assert w4_system_holds(diag, ent)


@settings(max_examples=200, deadline=None)
@given(diag3)
def test_w3_closed_form_expands_to_valid_pattern(diag):
    # construction validates every diamond, including the wrap-around ones
    pattern = expand_domain(w3_domain(diag))
    assert yf.glide_shift(pattern) is not None


@settings(max_examples=200, deadline=None)
@given(diag4)
def test_w4_closed_form_expands_to_valid_pattern(diag):
    pattern = expand_domain(w4_domain(diag))
    assert yf.glide_shift(pattern) is not None


def _propagated_entries(diag):
    """The domain entries a first diagonal fixes, in entry_parts' order,
    found column by column: E = (1 + N)(1 + S) / W, where N is the cell
    above E, found first, and W and S are E's row and the row below it in
    the column before, between zero rows 0 and n + 1."""
    n = len(diag)
    column, entries = [0, *map(F, diag), 0], []
    for j in range(1, n + 1):
        new = [0]
        for m in range(1, n + 1):
            new.append((1 + new[m - 1]) * (1 + column[m + 1]) / column[m])
        column = new + [0]
        entries += column[1:n + 2 - j]
    return entries


@pytest.mark.parametrize("width", range(1, 13))
def test_entry_parts_equal_column_by_column_propagation(width):
    rng = random.Random(width)
    for diag in [[1] * width, *([rng.randint(1, 40) for _ in range(width)] for _ in range(25))]:
        assert [F(*part) for part in entry_parts(diag)] == _propagated_entries(diag)


@settings(max_examples=300, deadline=None)
@given(st.one_of(diag3, diag4))
def test_entry_parts_equal_the_width_3_and_4_tables(diag):
    table = _w3_parts if len(diag) == 3 else _w4_parts
    assert [F(*part) for part in entry_parts(diag)] == [F(*part) for part in table(diag)]


# ------------------------------------------------------------ inequalities

def test_w3_inequalities_examples():
    assert yf.w3_inequalities((5, 4, 5))[2] is False           # (iii)
    assert all(yf.w3_inequalities((1, 1, 2)))
    assert yf.w3_inequalities((4, 11, 12))[4] is False          # (v)


def test_w4_inequalities_examples():
    assert yf.w4_inequalities((6, 6, 6, 6))[3] is False         # (iv)
    assert all(yf.w4_inequalities((1, 1, 2, 3)))
    assert yf.w4_inequalities((1, 1, 1, 3))[9] is False         # (x)


@pytest.mark.parametrize("width, top", [(3, 25), (4, 13)])
def test_inequalities_say_each_entry_is_at_least_1_on_the_grids(width, top):
    entries, inequalities, _ = CLOSED_FORMS[width]
    for diag in product(range(1, top + 1), repeat=width):
        assert inequalities(diag) == tuple(v >= 1 for v in entries(diag))


@settings(max_examples=500, deadline=None)
@given(st.one_of(big_diag3, big_diag4))
def test_inequalities_say_each_entry_is_at_least_1(diag):
    entries, inequalities, _ = CLOSED_FORMS[len(diag)]
    assert inequalities(diag) == tuple(v >= 1 for v in entries(diag))


def test_every_solution_passes_its_inequalities(w3_solutions, w4_solutions):
    for diag in w3_solutions.diagonals:
        assert all(yf.w3_inequalities(diag))
    for diag in w4_solutions.diagonals:
        assert all(yf.w4_inequalities(diag))


def test_w3_third_inequality_equals_product_ratio_form():
    for a in range(1, 21):
        for b in range(1, 21):
            for c in range(1, 21):
                assert yf.w3_inequalities((a, b, c))[2] \
                    == w3_product_ratio_at_least_2((a, b, c))


def test_w4_fourth_inequality_equals_product_ratio_form():
    for a in range(1, 21):
        for b in range(1, 21):
            for c in range(1, 21):
                for d in range(1, 21):
                    assert yf.w4_inequalities((a, b, c, d))[3] \
                        == w4_product_ratio_at_least_2((a, b, c, d))


def test_bound_quadratics():
    assert max(b for b in range(1, 100) if w3_b_quadratic_nonpositive(b)) == 18
    assert max(x for x in range(1, 400) if w4_bc_quadratic_nonpositive(x)) == 168


# ------------------------------------------------------------------- boxes

def test_w3_boxes():
    boxes = yf.w3_boxes()
    assert {b.bounds for b in boxes} == {(4, 18, 11), (11, 18, 4)}
    assert any((2, 9, 5) in b for b in boxes)
    assert not any((12, 18, 12) in b for b in boxes)


def test_w4_boxes():
    boxes = yf.w4_boxes()
    assert {b.bounds for b in boxes} == {
        (5, 102, 168, 41), (5, 168, 102, 41),
        (41, 102, 168, 5), (41, 168, 102, 5),
    }
    assert any((8, 15, 4, 1) in b for b in boxes)
    assert not any((42, 200, 200, 42) in b for b in boxes)


def test_search_box_basics():
    box = yf.SearchBox((3, 5))
    assert (1, 1) in box and (3, 5) in box
    assert (4, 1) not in box and (0, 1) not in box and (1, 1, 1) not in box
    assert box.volume() == 15
    with pytest.raises(ValueError):
        yf.SearchBox((0, 5))


# ----------------------------------------------------------------- domains

def test_domain_builders():
    dom = w3_domain((1, 1, 2))
    assert dom.first_diagonal() == (1, 1, 2)
    assert tuple(int(v) for v in dom.entry_tuple()) == (1, 1, 2, 2, 9, 5, 5, 4, 1)
    dom4 = w4_domain((1, 1, 2, 3))
    assert tuple(int(v) for v in dom4.entry_tuple()) \
        == (1, 1, 2, 3, 2, 9, 20, 7, 5, 14, 6, 3, 2, 1)


@pytest.mark.parametrize("width, top", [(3, 25), (4, 13)])
def test_domains_are_the_entry_tuples_read_back_on_the_grids(width, top):
    entries, _, domain = CLOSED_FORMS[width]
    for diag in product(range(1, top + 1), repeat=width):
        assert domain(diag) == FundamentalDomain.from_entry_tuple(width, (*diag, *entries(diag)))


@settings(max_examples=500, deadline=None)
@given(st.one_of(big_diag3, big_diag4))
def test_domains_are_the_entry_tuples_read_back(diag):
    entries, _, domain = CLOSED_FORMS[len(diag)]
    assert domain(diag) == FundamentalDomain.from_entry_tuple(len(diag), (*diag, *entries(diag)))
