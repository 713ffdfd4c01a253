"""Box enumeration, generic diagonal search and the brute-force oracle."""

import os
import re
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

import yfrieze as yf
from conftest import W3_GOLDEN
from oracles import FundamentalDomain, expand_domain, one_cell_scan


def test_enumerate_w3_exact(w3_solutions):
    assert w3_solutions.diagonals == W3_GOLDEN
    assert list(w3_solutions.diagonals) == sorted(w3_solutions.diagonals)
    assert (1, 1, 1) not in w3_solutions.diagonals


def test_enumerate_w3_full_tuples(w3_solutions):
    by_diag = dict(zip(w3_solutions.diagonals, w3_solutions.full_tuples))
    assert by_diag[(1, 1, 2)] == (1, 1, 2, 2, 9, 5, 5, 4, 1)
    assert by_diag[(5, 9, 2)] == (5, 9, 2, 2, 1, 1, 1, 4, 5)


def test_enumerate_w4_exact(w4_solutions):
    assert len(w4_solutions) == 42
    assert w4_solutions.full_tuples[0] == (1, 1, 2, 3, 2, 9, 20, 7, 5, 14, 6, 3, 2, 1)
    assert (5, 24, 15, 2, 5, 4, 1, 1, 1, 1, 4, 2, 15, 8) in w4_solutions.full_tuples
    assert list(w4_solutions.diagonals) == sorted(set(w4_solutions.diagonals))


def test_full_tuples_match_closed_forms(w3_solutions, w4_solutions):
    # The search reads tuples off propagated patterns; the closed forms are
    # an independent route to the same entries.
    for sols, entries in ((w3_solutions, yf.w3_entries), (w4_solutions, yf.w4_entries)):
        for diag, full in zip(sols.diagonals, sols.full_tuples):
            assert full == diag + entries(diag)


def test_solution_sets_closed_under_reversal(w3_solutions, w4_solutions):
    diags3 = set(w3_solutions.diagonals)
    assert {tuple(reversed(d)) for d in diags3} == diags3
    diags4 = set(w4_solutions.diagonals)
    assert {tuple(reversed(d)) for d in diags4} == diags4


def test_parallel_enumeration_matches_serial(monkeypatch, w3_solutions, w4_solutions):
    assert yf.enumerate_w4(parallelism=4) == w4_solutions
    monkeypatch.setattr(yf.search.os, "cpu_count", lambda: 3)  # two forked children
    assert yf.enumerate_w4(parallelism=3) == w4_solutions
    assert yf.search._search(3, yf.w3_boxes(), parallelism=3) == w3_solutions


def test_enumerate_w4_caps_its_workers(monkeypatch, w4_solutions):
    # Children run in this process here; the shares they get are recorded.
    shares = []

    def scan_in_process(boxes, firsts):
        shares.append(firsts)
        return lambda: yf.search._scan(boxes, firsts)

    children = []

    def run(parallelism):
        before = len(shares)
        assert yf.enumerate_w4(parallelism=parallelism) == w4_solutions
        children.append(len(shares) - before)

    monkeypatch.setattr(yf.search, "_fork_scan", scan_in_process)
    monkeypatch.setattr(yf.search.os, "cpu_count", lambda: 4)
    run(10 ** 6)
    assert shares == [sorted([*range(s, 42, 8), *range(9 - s, 42, 8)])  # snake order
                      for s in (2, 3, 4)]
    run(3)
    run(1)  # serial, no child
    monkeypatch.setattr(yf.search.os, "cpu_count", lambda: 10 ** 6)
    run(10 ** 6)
    monkeypatch.setattr(yf.search.os, "cpu_count", lambda: None)
    run(8)  # unknown count: serial
    monkeypatch.setattr(yf.search.os, "cpu_count", lambda: 4)
    monkeypatch.delattr(yf.search.os, "fork")
    run(8)  # no os.fork: serial
    x1_values = max(box.bounds[0] for box in yf.w4_boxes())
    assert children == [workers - 1 for workers in (4, 3, 1, x1_values, 1, 1)]


def test_bounded_searches_share_their_scan(monkeypatch):
    # A --bounds search runs y_solutions -> enumerate_generic, which pass
    # parallelism on.  Children run in this process here.
    shares = []

    def scan_in_process(boxes, firsts):
        shares.append(firsts)
        return lambda: yf.search._scan(boxes, firsts)

    serial = yf.y_solutions(5, bounds=(20,) * 5)
    monkeypatch.setattr(yf.search, "_fork_scan", scan_in_process)
    monkeypatch.setattr(yf.search.os, "cpu_count", lambda: 4)
    assert yf.y_solutions(5, bounds=(20,) * 5, parallelism=2) == serial
    assert shares == [[2, 3, 6, 7, 10, 11, 14, 15, 18, 19]]  # snake order
    assert yf.enumerate_generic(5, yf.SearchBox((20,) * 5), parallelism=3) == serial
    assert shares[1:] == [[2, 5, 8, 11, 14, 17, 20], [3, 4, 9, 10, 15, 16]]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="children are started with os.fork")
def test_a_failed_child_is_an_error_and_is_reaped(monkeypatch):
    parent = os.getpid()
    scan = yf.search._scan

    def scan_failing_in_children(boxes, firsts):
        if os.getpid() != parent:
            raise RuntimeError("scan failed in a child")
        return scan(boxes, firsts)

    monkeypatch.setattr(yf.search, "_scan", scan_failing_in_children)
    monkeypatch.setattr(yf.search.os, "cpu_count", lambda: 3)
    with pytest.raises(yf.FriezeError, match="2 of 2 search worker processes failed"):
        yf.enumerate_w4(parallelism=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def per_box_scan(bounds, first):
    """The DFS as it was before the boxes were searched together: one box
    and one x_1 per call, no box filter.  Kept as an oracle."""
    n = len(bounds)
    period = n + 3
    rows = []

    def descend(antis):
        k = len(antis)
        if k == n + period:
            if antis[-1] == antis[n - 1]:
                rows.append(tuple(anti[-1] for anti in antis[:period]))
            return
        prev = antis[-1]
        if k < n:
            step = prev[0] // gcd(prev[0], 1 + (prev[1] if k > 1 else 0))
            choices = range(max(step - 1, 1), bounds[k] + 1, step)
        else:
            choices = (0,)
        for x in choices:
            cur = [x] if k < n else []
            south = x
            for i, west in enumerate(prev):
                north = prev[i + 1] if i + 1 < len(prev) else 0
                south, r = divmod((1 + north) * (1 + south), west)
                if r:
                    break
                cur.append(south)
            else:
                antis.append(cur)
                descend(antis)
                antis.pop()

    descend([[first]])
    return rows


def per_box_union(boxes):
    return {row for box in boxes for first in range(1, box.bounds[0] + 1)
            for row in per_box_scan(box.bounds, first)}


@pytest.mark.parametrize("width, boxes", [(3, yf.w3_boxes()), (4, yf.w4_boxes())])
def test_one_scan_equals_the_union_of_per_box_scans(width, boxes):
    union = per_box_union(boxes)
    firsts = range(1, max(box.bounds[0] for box in boxes) + 1)
    rows = yf.search._scan(boxes, firsts)
    assert len(rows) == len(set(rows))  # each hit once, though the boxes overlap
    assert set(rows) == union
    assert yf.search._search(width, boxes) == yf.search._solution_set(width, union)


def test_a_hit_in_the_bounding_box_but_in_no_box_is_dropped(w4_solutions):
    hit = next(d for d in w4_solutions.diagonals if d[0] > 1 and d[2] > 1)
    a, b, c, d = hit
    boxes = (yf.SearchBox((a, b, 1, d)), yf.SearchBox((1, 1, c, d)))
    assert all(hit not in box for box in boxes)
    assert hit in yf.search._search(4, [yf.SearchBox(hit)]).diagonals
    sols = yf.search._search(4, boxes)
    assert hit not in sols.diagonals
    assert sols == yf.search._solution_set(4, per_box_union(boxes))


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_patterns_of_matches_domain_rebuild(width):
    sols = yf.y_solutions(width)
    rebuilt = [expand_domain(FundamentalDomain.from_entry_tuple(width, t))
               for t in sols.full_tuples]
    patterns = list(sols)
    assert patterns == rebuilt
    assert all(type(v) is int for p in patterns for row in p.rows for v in row)


def test_every_solution_expands_to_valid_arithmetic_pattern(y3_patterns, y4_patterns):
    for p in (*y3_patterns, *y4_patterns):
        assert yf.is_arithmetic(p)
        assert yf.glide_shift(p) is not None


# ---------------------------------------------------------------- generic

def test_generic_search_reproduces_width_3(w3_solutions):
    found = set()
    for box in yf.w3_boxes():
        found |= set(yf.enumerate_generic(3, box).diagonals)
    assert tuple(sorted(found)) == w3_solutions.diagonals


def test_generic_width_1():
    sols = yf.enumerate_generic(1, yf.SearchBox((10,)))
    assert sols.diagonals == ((1,),)
    assert sols.full_tuples == ((1, 1),)


def test_generic_width_2_count_recorded():
    # no published count at width 2; brute force finds exactly these five
    sols = yf.enumerate_generic(2, yf.SearchBox((30, 30)))
    assert sols.diagonals == ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2))


def test_generic_width_4_spot_check(w4_solutions):
    # small sub-box of the proven region, cross-checks the closed-form route
    sols = yf.enumerate_generic(4, yf.SearchBox((3, 9, 9, 5)))
    expected = tuple(d for d in w4_solutions.diagonals
                     if all(x <= b for x, b in zip(d, (3, 9, 9, 5))))
    assert sols.diagonals == expected
    by_diag = dict(zip(w4_solutions.diagonals, w4_solutions.full_tuples))
    for diag, full in zip(sols.diagonals, sols.full_tuples):
        assert full == by_diag[diag]
    # the whole solution set lies in this box
    assert yf.enumerate_generic(4, yf.SearchBox((41, 40, 40, 41))) == w4_solutions


def test_generic_width_4_matches_unpruned_closed_form_scan():
    # Every point of the cube, no pruning: the ten solved entries must all be
    # positive integers.
    bound = 12
    unpruned = tuple(diag for diag in product(range(1, bound + 1), repeat=4)
                     if all(v > 0 and v.denominator == 1
                            for v in yf.w4_entries(diag)))
    assert yf.enumerate_generic(4, yf.SearchBox((bound,) * 4)).diagonals == unpruned


def test_generic_width_5_box():
    sols = yf.enumerate_generic(5, yf.SearchBox((20,) * 5))
    assert len(sols) == 89
    assert {tuple(reversed(d)) for d in sols.diagonals} == set(sols.diagonals)


def test_generic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        yf.enumerate_generic(0, yf.SearchBox((5,)))
    with pytest.raises(ValueError):
        yf.enumerate_generic(2, yf.SearchBox((5,)))


@pytest.mark.parametrize("parallelism", [0, -1, True, 2.0, "2", None])
def test_searches_reject_a_bad_parallelism_before_any_fork(monkeypatch, parallelism):
    def no_fork(boxes, firsts):
        raise AssertionError("forked before the check")

    monkeypatch.setattr(yf.search, "_fork_scan", no_fork)
    monkeypatch.setattr(yf.search.os, "cpu_count", lambda: 4)
    for search in (lambda: yf.enumerate_w4(parallelism=parallelism),
                   lambda: yf.enumerate_generic(2, yf.SearchBox((30, 30)), parallelism),
                   lambda: yf.y_solutions(5, (3,) * 5, parallelism)):
        with pytest.raises(ValueError, match="parallelism must be an int >= 1"):
            search()


@pytest.mark.parametrize("bounds", [(), (2.5, 3), (True, 3), (3, "4"), (0, 3)])
def test_search_box_rejects_bad_bounds(bounds):
    with pytest.raises(ValueError, match="bounds must be a nonempty tuple of ints >= 1"):
        yf.SearchBox(bounds)
    with pytest.raises(ValueError, match="bounds must be"):
        yf.SearchBox((3, 3))._replace(bounds=bounds)


def test_search_box_holds_its_bounds_as_a_tuple():
    # a list or a generator of bounds gives the box a tuple of them, so it
    # hashes and compares as the box of that tuple does
    bounds = (5, 102, 168, 41)
    for box in (yf.SearchBox(list(bounds)), yf.SearchBox(b for b in bounds),
                yf.SearchBox((3, 3))._replace(bounds=list(bounds))):
        assert type(box.bounds) is tuple
        assert box == yf.SearchBox(bounds) and hash(box) == hash(yf.SearchBox(bounds))
        assert box in set(yf.w4_boxes())
    with pytest.raises(ValueError, match="bounds must be a nonempty tuple of ints >= 1"):
        yf.SearchBox("34")


def test_box_too_large(monkeypatch):
    monkeypatch.setenv(yf.core.MAX_CANDIDATES_ENV, str(10 ** 6))
    with pytest.raises(yf.BoxTooLarge):
        yf.enumerate_generic(3, yf.SearchBox((1000, 1000, 1000)))


def test_candidate_ceiling_env_override(monkeypatch):
    monkeypatch.setenv(yf.core.MAX_CANDIDATES_ENV, "10")
    with pytest.raises(yf.BoxTooLarge):
        yf.enumerate_generic(2, yf.SearchBox((30, 30)))
    monkeypatch.setenv(yf.core.MAX_CANDIDATES_ENV, "1000")
    assert len(yf.enumerate_generic(2, yf.SearchBox((30, 30)))) == 5
    for malformed in ("abc", "0", "-1"):
        monkeypatch.setenv(yf.core.MAX_CANDIDATES_ENV, malformed)
        with pytest.raises(ValueError, match=yf.core.MAX_CANDIDATES_ENV):
            yf.enumerate_generic(2, yf.SearchBox((30, 30)))


# ----------------------------------------------------------------- oracle

def test_oracle_matches_box_enumeration(w3_solutions):
    assert yf.oracle_box_check(3, 60).diagonals == w3_solutions.diagonals
    assert yf.oracle_box_check(3, 18).diagonals == w3_solutions.diagonals


def test_oracle_small_bound_truncates(w3_solutions):
    subset = yf.oracle_box_check(3, 5).diagonals
    assert subset == tuple(d for d in w3_solutions.diagonals if max(d) <= 5)


def test_oracle_rejects_other_widths():
    with pytest.raises(ValueError):
        yf.oracle_box_check(4, 60)


@pytest.mark.parametrize("bound", [2.5, True, "18", 0])
def test_oracle_rejects_a_bound_that_is_no_positive_int(bound):
    with pytest.raises(ValueError, match="bound must be an int >= 1"):
        yf.oracle_box_check(3, bound)


def test_three_routes_agree(w3_solutions):
    generic = set()
    for box in yf.w3_boxes():
        generic |= set(yf.enumerate_generic(3, box).diagonals)
    assert w3_solutions.diagonals == tuple(sorted(generic)) \
        == yf.oracle_box_check(3, 60).diagonals


# ------------------------------------------------------------- y_solutions

def test_y_solutions_dispatch(w3_solutions):
    assert yf.y_solutions(3) == w3_solutions
    assert len(yf.y_solutions(2)) == 5
    assert len(yf.y_solutions(1)) == 1
    with pytest.raises(ValueError):
        yf.y_solutions(5)
    assert len(yf.y_solutions(5, bounds=(3, 3, 3, 3, 3))) >= 0


def test_y_plan_decides_each_width_s_boxes_and_parameters(monkeypatch):
    proven = {3: yf.w3_boxes(), 4: yf.w4_boxes()}
    for width, boxes in proven.items():
        assert yf.y_plan(width) == (
            {"mode": "proven-boxes", "boxes": [list(box.bounds) for box in boxes]}, boxes)
    for width, bounds in [(1, None), (2, None), (3, [4, 18, 11]), (5, (3,) * 5)]:
        box = yf.SearchBox(bounds or yf.search.DEFAULT_GENERIC_BOUNDS[width])
        assert yf.y_plan(width, bounds) == ({"mode": "generic", "bounds": list(box.bounds)},
                                            (box,))
    for width, bounds, message in [(0, None, "width must be >= 1, got 0"),
                                   (5, None, "width 5 has no proven boxes"),
                                   (3, (4, 18), "box must bound 3 diagonal values, got 2"),
                                   (2, (3, 0), "bounds must be a nonempty tuple")]:
        with pytest.raises(ValueError, match=message):
            yf.y_plan(width, bounds)
    # the ceiling holds a searched box, not the proven ones
    monkeypatch.setenv(yf.core.MAX_CANDIDATES_ENV, "10")
    with pytest.raises(yf.BoxTooLarge, match="box volume 900 exceeds ceiling 10"):
        yf.y_plan(2)
    assert yf.y_plan(4)[1] == proven[4]


# -------------------------------------------------------- closure checked once

@st.composite
def small_boxes(draw):
    """One to three boxes of one width 1-6, each bound <= 40 and volume <= 10**5."""
    width = draw(st.integers(1, 6))
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        bounds = [0] * width
        for i in draw(st.permutations(range(width))):
            bounds[i] = draw(st.integers(1, min(40, 10 ** 5 // prod(b for b in bounds if b))))
        boxes.append(yf.SearchBox(tuple(bounds)))
    return width, boxes


@settings(max_examples=150, deadline=None)
@given(small_boxes())
def test_every_scanned_first_row_closes(width_and_boxes):
    # _scan stops once a branch has fixed the first row; propagate_y in
    # _solution_set is the one closure check, and must accept every row.
    width, boxes = width_and_boxes
    rows = yf.search._scan(boxes, range(1, max(box.bounds[0] for box in boxes) + 1))
    sols = yf.search._solution_set(width, rows)
    assert len(sols) == len(rows)
    assert sorted(rows) == sorted(p.rows[1] for p in sols)


def test_hits_that_fail_reverification_are_errors(monkeypatch):
    # _solution_set re-verifies every first row _scan returns by propagate_y
    monkeypatch.setattr(yf.search, "_scan", lambda boxes, firsts: [(2, 2, 2, 2)])
    with pytest.raises(yf.ClosureFailure, match="pattern does not close"):
        yf.y_solutions(1)
    bad = (-1, -1, -1, -1)  # closes at width 1, but is not arithmetic
    message = re.escape(f"first row {bad} fails re-verification")
    monkeypatch.setattr(yf.search, "_scan", lambda boxes, firsts: [bad])
    with pytest.raises(yf.FriezeError, match=message):
        yf.y_solutions(1)
    if hasattr(os, "fork"):  # now the row comes from the forked child alone
        parent = os.getpid()
        monkeypatch.setattr(yf.search, "_scan",
                            lambda boxes, firsts: [bad] if os.getpid() != parent else [])
        monkeypatch.setattr(yf.search.os, "cpu_count", lambda: 2)
        with pytest.raises(yf.FriezeError, match=message):
            yf.y_solutions(1, parallelism=2)


@settings(max_examples=150, deadline=None)
@given(small_boxes())
def test_scan_finds_what_the_one_cell_scan_finds(width_and_boxes):
    # _scan tries only the x that make two cells integral; the DFS that
    # solves one cell at a time is the reference
    _, boxes = width_and_boxes
    firsts = range(1, max(box.bounds[0] for box in boxes) + 1)
    assert yf.search._scan(boxes, firsts) == one_cell_scan(boxes, firsts)
