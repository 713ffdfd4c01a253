"""Acceptance criteria, one test per criterion.

Every check is exact (integer/Fraction comparisons, zero tolerance); the
timed criteria assert their stated wall-clock budgets on fresh calls.  Each
test prints one PASS line with the measured facts; run with `pytest -v` (or
-s to see the lines inline).
"""

import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

import yfrieze as yf
from yfrieze import io
from yfrieze.cli import main as cli_main
from yfrieze.core import check_rows
from conftest import W3_GOLDEN
from oracles import (catalog_from_json, entries_of, expand_domain, loaded, w3_domain,
                     w3_system_holds, w4_domain, w4_system_holds)

GOLDEN_W4_CSV = Path(__file__).parent / "data" / "w4_golden.csv"


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_01_w3_enumeration_exact_and_fast():
    t0 = time.perf_counter()
    sols = yf.y_solutions(3)
    elapsed = time.perf_counter() - t0
    assert sols.diagonals == W3_GOLDEN
    assert list(sols.diagonals) == sorted(sols.diagonals)
    assert elapsed < 1.0
    report("criterion 1", f"10/10 width-3 diagonals exact in {elapsed:.3f}s (< 1s)")


def test_criterion_02_w4_enumeration_matches_golden_file():
    t0 = time.perf_counter()
    sols = yf.enumerate_w4(parallelism=1)
    elapsed = time.perf_counter() - t0
    assert len(sols) == 42
    produced = io.catalog_to_csv(io.y_catalog(4))
    golden = GOLDEN_W4_CSV.read_bytes()
    assert produced.encode() == golden
    assert elapsed < 60.0
    report("criterion 2",
           f"42 width-4 tuples byte-exact vs golden file in {elapsed:.3f}s (< 60s)")


def test_criterion_03_coxeter_counts():
    counts = {n: len(yf.enumerate_frieze(n)) for n in (1, 2, 3, 4)}
    assert counts == {1: 2, 2: 5, 3: 14, 4: 42}
    report("criterion 3", f"frieze counts {counts} match Catalan numbers")


def test_criterion_04_fiber_analysis_width_3():
    rep = yf.fiber_analysis(io.coxeter_catalog(3), io.y_catalog(3))
    assert rep.image_size == 10
    assert rep.surjective
    assert sorted(rep.fiber_sizes, reverse=True) == [2, 2, 2, 2, 1, 1, 1, 1, 1, 1]
    assert max(rep.fiber_sizes) == 2
    report("criterion 4",
           f"width 3: image {rep.image_size}, surjective, fibers "
           f"{sorted(rep.fiber_sizes, reverse=True)}")


def test_criterion_05_fiber_analysis_width_4(frieze4, y4_patterns):
    rep = yf.fiber_analysis(io.coxeter_catalog(4), io.y_catalog(4))
    assert rep.surjective and rep.injective
    assert rep.image_size == 42
    assert len(frieze4) == len(y4_patterns) == 42
    assert set(rep.fiber_sizes) == {1}
    report("criterion 5", "width 4: bijective, 42 friezes <-> 42 Y patterns, "
                          "zero mismatches")


def test_criterion_06_orbit_structure(frieze3, y3_patterns):
    frieze_sizes = sorted(map(len, yf.orbit_decomposition(frieze3)), reverse=True)
    y_sizes = sorted(map(len, yf.orbit_decomposition(y3_patterns)), reverse=True)
    assert frieze_sizes == [6, 3, 3, 2]
    assert y_sizes == [3, 3, 3, 1]
    friezes, ypatterns = io.coxeter_catalog(3), io.y_catalog(3)
    records = yf.fiber_analysis(friezes, ypatterns).records
    st_multiset = Counter((r.frieze_orbit_size, r.y_orbit_size) for r in records)
    assert st_multiset == Counter({(3, 3): 2, (6, 3): 1, (2, 1): 1})
    report("criterion 6",
           f"orbits {frieze_sizes} / {y_sizes}, s:t multiset "
           "{3:3, 3:3, 6:3, 2:1}")


def test_criterion_07_oracle_equivalence():
    t0 = time.perf_counter()
    oracle = yf.oracle_box_check(3, 60)
    elapsed = time.perf_counter() - t0
    assert oracle.diagonals == yf.y_solutions(3).diagonals
    assert oracle.full_tuples == yf.y_solutions(3).full_tuples
    assert elapsed < 5.0
    report("criterion 7",
           f"216000-candidate unpruned oracle equals box search in {elapsed:.3f}s (< 5s)")


def test_criterion_08a_closed_form_satisfies_systems():
    rng = random.Random(20260810)
    for _ in range(1000):
        diag3 = tuple(rng.randint(1, 10 ** 6) for _ in range(3))
        assert w3_system_holds(diag3, yf.w3_entries(diag3))
        diag4 = tuple(rng.randint(1, 10 ** 6) for _ in range(4))
        assert w4_system_holds(diag4, yf.w4_entries(diag4))
    report("criterion 8a", "1000 random diagonals per width satisfy the "
                           "defining systems exactly")


def test_criterion_08b_propagation_agrees_with_expansion(w3_solutions, w4_solutions):
    cases = 0
    for sols, builder in ((w3_solutions, w3_domain), (w4_solutions, w4_domain)):
        for diag in sols.diagonals:
            expanded = expand_domain(builder(diag))
            assert yf.propagate_y(expanded.rows[1], len(diag)) == expanded
            cases += 1
    assert cases == 52
    report("criterion 8b", "propagation reproduces expansion on all 10+42 solutions")


def test_criterion_08c_all_patterns_pass_diamond_and_glide(
        frieze3, frieze4, y3_patterns, y4_patterns):
    everything = [*frieze3, *frieze4, *y3_patterns, *y4_patterns]
    assert len(everything) == 108
    checks = 0
    for p in everything:
        assert check_rows(p.kind, p.width, p.rows) is None
        assert yf.glide_shift(p) is not None
        checks += (len(p.rows) - 2) * p.period
    assert checks > 1000
    report("criterion 8c",
           f"{len(everything)} patterns, {checks} diamond relations, glide ok")


def test_criterion_08d_equivariance(frieze3, frieze4):
    cases = 0
    for friezes in (frieze3, frieze4):
        for f in friezes:
            image = yf.apply_p(f)
            for s in range(f.period):
                assert yf.apply_p(yf.cyclic_shift(f, s)) == yf.cyclic_shift(image, s)
                cases += 1
    assert cases == 14 * 6 + 42 * 7
    report("criterion 8d", f"apply_p/shift equivariance in all {cases} cases")


def test_criterion_09_inequality_falsification_grids():
    w3_checked = 0
    for a in range(5, 21):
        for c in range(5, 21):
            for b in range(max(a, c) - 1, 201):  # admissible: (i) and (vi) hold
                assert not yf.w3_inequalities((a, b, c))[2]
                w3_checked += 1
    w4_checked = 0
    for a in range(6, 21):
        for d in range(6, 21):
            for b in range(a - 1, 41):           # (i)
                for c in range(d - 1, 41):       # (x)
                    assert not yf.w4_inequalities((a, b, c, d))[3]
                    w4_checked += 1
    report("criterion 9",
           f"inequality (iii) fails in all {w3_checked} width-3 cases, "
           f"(iv) fails in all {w4_checked} width-4 cases, zero exceptions")


def test_criterion_10_round_trips_and_parallel_determinism(tmp_path):
    entries = 0
    for catalog in (io.y_catalog(3), io.y_catalog(4),
                    io.coxeter_catalog(3), io.coxeter_catalog(4)):
        assert catalog_from_json(io.catalog_to_json(catalog)) == loaded(catalog)
        csv_text = io.catalog_to_csv(catalog)
        header, rows = io.tuples_from_csv(csv_text)
        assert rows == [e.key_tuple for e in entries_of(catalog)]
        rebuilt = ",".join(header) + "\n" \
            + "\n".join(",".join(map(str, r)) for r in rows) + "\n"
        assert rebuilt == csv_text
        entries += len(catalog.patterns)

    outputs = {}
    for parallelism in ("1", "8"):
        for fmt in ("json", "csv"):
            path = tmp_path / f"w4-{parallelism}.{fmt}"
            assert cli_main(["enumerate", "--kind", "y", "--width", "4",
                             "--format", fmt, "--parallelism", parallelism,
                             "--output", str(path)]) == 0
            outputs[(parallelism, fmt)] = path.read_bytes()
    assert outputs[("1", "json")] == outputs[("8", "json")]
    assert outputs[("1", "csv")] == outputs[("8", "csv")]
    report("criterion 10",
           f"{entries} catalog entries round-trip bit-exactly; CLI output "
           "identical at parallelism 1 and 8")
