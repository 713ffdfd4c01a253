"""Triangulation generation, quiddities and frieze construction."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import yfrieze as yf
from oracles import catalog_from_json


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


# ----------------------------------------------------------- triangulations

@pytest.mark.parametrize("v,count", [(3, 1), (4, 2), (5, 5), (6, 14), (7, 42), (8, 132),
                                     (9, 429), (10, 1430)])
def test_triangulation_counts(v, count):
    ts = yf.all_triangulations(v)
    assert len(ts) == count == catalan(v - 2)
    assert len({t.diagonals for t in ts}) == count
    keys = [t.sort_key() for t in ts]
    assert keys == sorted(keys)


def test_triangulation_order_is_deterministic():
    assert yf.all_triangulations(7) == yf.all_triangulations(7)
    keys = [t.sort_key() for t in yf.all_triangulations(7)]
    assert keys == sorted(keys)


def test_triangulation_validation():
    with pytest.raises(ValueError):
        yf.Triangulation(6, frozenset({(0, 2)}))             # wrong count
    with pytest.raises(ValueError):
        yf.Triangulation(6, frozenset({(0, 1), (0, 3), (0, 4)}))  # edge, not diagonal
    with pytest.raises(ValueError):
        yf.Triangulation(6, frozenset({(0, 2), (1, 3), (3, 5)}))  # crossing


def test_triangle_faces():
    fan = yf.Triangulation(6, frozenset({(0, 2), (0, 3), (0, 4)}))
    assert fan.triangles() == [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)]


# --------------------------------------------------------------- quiddities

def test_quiddity_of_fan():
    fan = yf.Triangulation(6, frozenset({(0, 2), (0, 3), (0, 4)}))
    assert yf.quiddity_of(fan) == (4, 1, 2, 2, 2, 1)


def test_quiddity_of_zigzag():
    zigzag = yf.Triangulation(6, frozenset({(0, 2), (2, 5), (3, 5)}))
    assert yf.quiddity_of(zigzag) == (2, 1, 3, 2, 1, 3)


def test_quiddity_of_triangle():
    assert yf.quiddity_of(yf.Triangulation(3, frozenset())) == (1, 1, 1)


def test_quiddity_sums():
    for v in (4, 5, 6, 7):
        for t in yf.all_triangulations(v):
            assert sum(yf.quiddity_of(t)) == 3 * (v - 2)


def test_quiddity_matches_triangle_faces():
    # triangles() stays the oracle for the diagonal-count formula
    for v in range(3, 11):
        for t in yf.all_triangulations(v):
            faces = [0] * v
            for tri in t.triangles():
                for vertex in tri:
                    faces[vertex] += 1
            assert yf.quiddity_of(t) == tuple(faces)


# ------------------------------------------------------ frieze construction

def test_frieze_second_rows_match_known_diagrams():
    assert yf.frieze_from_quiddity((1, 4, 1, 2, 2, 2)).rows[3] == (3, 3, 1, 3, 3, 1)
    assert yf.frieze_from_quiddity((2, 1, 3, 2, 1, 3)).rows[3] == (1, 2, 5, 1, 2, 5)
    assert yf.frieze_from_quiddity((2, 3, 1, 2, 3, 1)).rows[3] == (5, 2, 1, 5, 2, 1)


def test_frieze_from_bad_quiddities():
    with pytest.raises(yf.NotClosed):
        yf.frieze_from_quiddity((1, 1, 1, 1))
    with pytest.raises(yf.NonPositive):
        yf.frieze_from_quiddity((1, 1, 5, 1, 1, 5))
    with pytest.raises(ValueError):
        yf.frieze_from_quiddity((1, 1, 1))


def fraction_frieze_rows(quiddity):
    """The frieze rows recomputed in Fraction arithmetic: S = (W*E - 1)/N."""
    period = len(quiddity)
    rows = [(Fraction(0),) * period, (Fraction(1),) * period,
            tuple(Fraction(v) for v in quiddity)]
    while len(rows) < period:
        cur, above = rows[-1], rows[-2]
        rows.append(tuple((cur[k] * cur[(k + 1) % period] - 1) / above[(k + 1) % period]
                          for k in range(period)))
    return tuple(rows) + ((Fraction(0),) * period,)


@pytest.mark.parametrize("n", range(1, 7))
def test_frieze_rows_match_fraction_recomputation(n):
    for f in yf.enumerate_frieze(n):
        assert f.rows == fraction_frieze_rows(f.rows[2])


def test_frieze_entries_are_ints():
    from yfrieze import io
    for n in range(1, 6):
        for f in yf.enumerate_frieze(n):
            assert all(type(v) is int for row in f.rows for v in row)
    catalog = catalog_from_json(io.catalog_to_json(io.coxeter_catalog(4)))
    for entry in catalog.entries:
        assert all(type(v) is int for row in entry.pattern.rows for v in row)


def test_frieze_accepts_fractional_closed_quiddity():
    # diagonal (u, v) = (2, 2) of the width-2 recurrence, which closes over
    # the rationals but is not arithmetic
    from fractions import Fraction as F
    f = yf.frieze_from_quiddity((2, F(3, 2), F(3, 2), 2, F(5, 4)))
    assert not yf.is_arithmetic(f)


def division_rule(quiddity):
    """frieze_from_quiddity's outcome by the diamond rule solved for the
    south cell, S = (W*E - 1)/N, in Fractions: the rows, or the type and
    text of the error it raises."""
    period = len(quiddity)
    n = period - 3
    rows = [(0,) * period, (1,) * period, tuple(map(Fraction, quiddity))]
    for k, v in enumerate(rows[2]):
        if v <= 0:
            return yf.NonPositive, f"quiddity entry {v} at col {k} is not positive"
    for m in range(2, n + 2):
        cur, above = rows[m], rows[m - 1]
        rows.append(tuple((cur[k] * cur[(k + 1) % period] - 1) / above[(k + 1) % period]
                          for k in range(period)))
        for k, v in enumerate(rows[-1]):
            if m <= n and v <= 0:
                return yf.NonPositive, f"entry {v} at row {m + 1}, col {k} is not positive"
    for k, v in enumerate(rows[-1]):
        if v != 1:
            return yf.NotClosed, f"row {n + 2} should be all ones, got {v} at col {k}"
    return tuple(rows) + ((0,) * period,)


QUIDDITY_CELLS = st.one_of(st.integers(1, 4), st.integers(-1, 0), st.booleans(),
                           st.fractions(Fraction(1, 3), 4, max_denominator=4))


@st.composite
def quiddities(draw):
    """A triangulation's quiddity, perhaps with one cell replaced, or any
    list of cells."""
    from yfrieze import coxeter
    width = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return draw(st.lists(QUIDDITY_CELLS, min_size=width + 3, max_size=width + 3))
    quiddity = list(draw(st.sampled_from(coxeter._quiddities(width + 3))))
    if draw(st.booleans()):
        quiddity[draw(st.integers(0, width + 2))] = draw(QUIDDITY_CELLS)
    return quiddity


@settings(max_examples=300, deadline=None)
@given(quiddity=quiddities())
def test_continuant_rows_match_the_division_rule(quiddity):
    expected = division_rule(quiddity)
    try:
        assert yf.frieze_from_quiddity(tuple(quiddity)).rows == expected
    except (yf.NonPositive, yf.NotClosed) as exc:
        assert (type(exc), str(exc)) == expected


# -------------------------------------------------------------- enumeration

@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 14), (4, 42)])
def test_enumerate_frieze_counts(n, count):
    friezes = yf.enumerate_frieze(n)
    assert len(friezes) == count == catalan(n + 1)
    # bijection with triangulations: all distinct, all arithmetic
    assert len(set(friezes)) == count
    assert all(yf.is_arithmetic(f) for f in friezes)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_frieze_matches_per_triangulation_oracle(n):
    # enumerate_frieze propagates one frieze per rotation orbit and rotates
    # it; the oracle propagates every triangulation's quiddity.
    friezes = yf.enumerate_frieze(n)
    oracle = [yf.frieze_from_quiddity(yf.quiddity_of(t))
              for t in yf.all_triangulations(n + 3)]
    assert len(friezes) == len(oracle)
    for f, expected in zip(friezes, oracle):
        assert f == expected
        assert all(type(v) is int for row in f.rows for v in row)


def test_enumerate_frieze_propagates_once_per_rotation_orbit(monkeypatch):
    from yfrieze import coxeter
    calls = []
    frieze_from_quiddity = coxeter.frieze_from_quiddity

    def counting_frieze_from_quiddity(quiddity):
        calls.append(quiddity)
        return frieze_from_quiddity(quiddity)

    monkeypatch.setattr(coxeter, "frieze_from_quiddity", counting_frieze_from_quiddity)
    friezes = yf.enumerate_frieze(7)
    assert len(friezes) == 1430
    assert len(calls) == 150
    assert len(friezes.roots) == 150


@pytest.mark.parametrize("v", range(3, 13))
def test_compact_quiddities_follow_the_triangulation_order(v):
    from yfrieze import coxeter
    assert [tuple(q) for q in coxeter._quiddities(v)] == [
        yf.quiddity_of(t) for t in yf.all_triangulations(v)]


def test_enumerate_frieze_leaves_no_reference_cycle():
    # a cycle would keep the generation's scaffolding alive until a cyclic
    # collection pass
    import gc
    gc.collect()
    gc.disable()
    try:
        yf.enumerate_frieze(7)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_frieze_width_8_peak_memory():
    # 4,862 quiddities of 11 bytes each and 442 propagated orbit roots
    import tracemalloc
    tracemalloc.start()
    try:
        friezes = yf.enumerate_frieze(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(friezes) == 4862
    assert peak < 1_600_000


def test_enumerate_frieze_width_1_quiddities():
    quiddities = {f.rows[2] for f in yf.enumerate_frieze(1)}
    assert quiddities == {(1, 2, 1, 2), (2, 1, 2, 1)}


def test_enumerate_frieze_rejects_out_of_range_widths():
    with pytest.raises(ValueError):
        yf.enumerate_frieze(0)
    with pytest.raises(ValueError):
        yf.enumerate_frieze(yf.coxeter.MAX_ENUM_WIDTH + 1)
