"""JSON/CSV serialization round-trips and ASCII rendering."""

import hashlib
import json
import re

import pytest

import yfrieze as yf
from yfrieze import io
from yfrieze.read import raw_patterns_from_obj
from conftest import assert_same_text
from oracles import (CatalogEntry, catalog_from_json, catalog_to_obj, entries_of, expand_domain,
                     loaded, pattern_to_obj, w3_domain, w4_domain)


def all_enumerated_patterns(y3, y4, f3, f4):
    return [*y3, *y4, *f3, *f4]


# ------------------------------------------------------------ pattern JSON

def test_pattern_json_round_trip(y3_patterns, y4_patterns, frieze3, frieze4):
    for p in all_enumerated_patterns(y3_patterns, y4_patterns, frieze3, frieze4):
        assert yf.PeriodicPattern(*raw_patterns_from_obj(pattern_to_obj(p))[0]) == p


def test_nonintegral_entries_serialize_as_strings():
    p = expand_domain(w3_domain((1, 1, 1)))
    obj = pattern_to_obj(p)
    assert "7/2" in obj["rows"][1]
    assert yf.PeriodicPattern(*raw_patterns_from_obj(obj)[0]) == p


def test_pattern_obj_rejects_garbage():
    with pytest.raises(ValueError):
        raw_patterns_from_obj({"schema": "nope"})
    # entries are JSON ints or "p/q" strings, nothing else
    for bad in (1.5, True, False, "2.0", "2", "1/0", "1/2/3", " 1/2", None):
        with pytest.raises(ValueError):
            raw_patterns_from_obj({"schema": "frieze/1", "kind": "y", "width": 3,
                                   "rows": [[bad]]})
        # a row of ints is decoded whole; one bad value among them still fails
        with pytest.raises(ValueError, match="ints or 'p/q' strings"):
            raw_patterns_from_obj({"schema": "frieze-catalog/1", "kind": "y",
                                   "width": 3, "patterns": [{"rows": [[1, 2, bad, 3]]}]})


def test_json_that_is_not_an_object_is_a_value_error():
    # a list, a number or a string names no schema: malformed input, not an AttributeError
    for obj in ([], 5, "frieze/1"):
        with pytest.raises(ValueError, match="unrecognized schema None"):
            raw_patterns_from_obj(obj)


def test_catalog_entry_that_is_not_an_object_is_a_value_error():
    obj = catalog_to_obj(io.coxeter_catalog(1))
    obj["patterns"] = [5]
    with pytest.raises(ValueError, match="catalog entry 0 is not an object"):
        raw_patterns_from_obj(obj)


@pytest.mark.parametrize("field, value, message", [
    ("kind", None, "catalog lacks kind"),
    ("width", None, "catalog lacks width"),
    ("patterns", None, "catalog lacks patterns"),
    ("patterns", 5, "catalog patterns must be a list, got 5"),
    ("patterns", {}, "catalog patterns must be a list, got {}"),
])
def test_catalog_with_a_missing_or_mistyped_field_is_a_value_error(field, value, message):
    # a malformed top level is a ValueError, not a KeyError or TypeError
    obj = catalog_to_obj(io.coxeter_catalog(1))
    if value is None:
        del obj[field]
    else:
        obj[field] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        raw_patterns_from_obj(obj)


@pytest.mark.parametrize("field, value, message", [
    ("rows", None, "catalog entry 0 lacks rows"),
    ("rows", 5, "catalog entry 0 rows must be a list of lists, got 5"),
    ("rows", [5], "catalog entry 0 rows must be a list of lists, got [5]"),
])
def test_catalog_entry_with_a_missing_or_mistyped_field_is_a_value_error(field, value,
                                                                         message):
    # named by entry and field, not a TypeError such as "'int' object is not iterable"
    obj = catalog_to_obj(io.coxeter_catalog(1))
    if value is None:
        del obj["patterns"][0][field]
    else:
        obj["patterns"][0][field] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        raw_patterns_from_obj(obj)


def test_tuples_from_empty_csv():
    with pytest.raises(ValueError):
        io.tuples_from_csv("")


def test_tuples_from_ragged_csv():
    with pytest.raises(ValueError, match=re.escape("row (1, 2) does not match header width 3")):
        io.tuples_from_csv("a,b,c\n1,2,3\n1,2\n")


# ---------------------------------------------------------------- catalogs

def test_y_catalog_round_trips(w3_solutions):
    catalog = io.y_catalog(3)
    assert [e.key_tuple for e in entries_of(catalog)] == list(w3_solutions.full_tuples)
    assert catalog_from_json(io.catalog_to_json(catalog)) == loaded(catalog)

    header, rows = io.tuples_from_csv(io.catalog_to_csv(catalog))
    assert header == tuple("abcdefghi")
    assert rows == list(w3_solutions.full_tuples)
    # byte-exact round trip through re-serialization
    text = io.catalog_to_csv(catalog)
    header2, rows2 = io.tuples_from_csv(text)
    rebuilt = ",".join(header2) + "\n" + "\n".join(",".join(map(str, r)) for r in rows2) + "\n"
    assert rebuilt == text


def test_coxeter_catalog_round_trips():
    catalog = io.coxeter_catalog(3)
    assert len(catalog.patterns) == 14
    assert catalog_from_json(io.catalog_to_json(catalog)) == loaded(catalog)
    header, rows = io.tuples_from_csv(io.catalog_to_csv(catalog))
    assert header == tuple(f"q{i}" for i in range(6))
    assert rows == [e.key_tuple for e in entries_of(catalog)]


@pytest.mark.parametrize("width", [True, "1"])
def test_catalog_from_json_rejects_a_width_that_is_not_an_int(width):
    obj = catalog_to_obj(io.coxeter_catalog(1))
    obj["width"] = width
    with pytest.raises(ValueError, match="width must be an int"):
        raw_patterns_from_obj(obj)


def test_coxeter_catalog_validates_each_orbit_once(monkeypatch):
    from yfrieze import core
    calls = []
    check_rows = core.check_rows

    def counting_check_rows(*args):
        calls.append(args)
        return check_rows(*args)

    monkeypatch.setattr(core, "check_rows", counting_check_rows)
    assert len(io.coxeter_catalog(5).patterns) == 132
    # 132 friezes in 19 rotation orbits: one check per orbit
    assert len(calls) == 19


@pytest.mark.parametrize("width", range(1, 10))
def test_coxeter_catalog_entries_pass_the_checks_generation_skips(width):
    # generation validates one root per rotation orbit and rotates it for
    # the other members: every entry must still pass the full checks, and
    # the orbits must be those found by rotating every entry's rows.  The
    # keys read off the roots are each entry's own row 2.
    from yfrieze import coxeter, verify
    catalog = io.coxeter_catalog(width)
    entries = entries_of(catalog)
    patterns = [entry.pattern for entry in entries]
    assert list(io.entry_keys(catalog)) == [entry.key_tuple for entry in entries] == [
        p.rows[2] for p in patterns]
    for pattern in patterns:
        assert yf.check_rows(pattern.kind, width, pattern.rows) is None
        assert verify._verify_one(pattern.kind, width, pattern.rows) is None
    orbits = yf.orbit_decomposition(patterns)
    assert coxeter.enumerate_frieze(width).orbits == orbits
    for orbit in orbits:
        for i in orbit:
            entry = entries[i]
            assert (entry.orbit_root, entry.orbit_size) == (orbit[0], len(orbit))


@pytest.mark.parametrize("kind,width", [*(("coxeter", w) for w in range(1, 9)),
                                        *(("y", w) for w in range(1, 6))])
def test_held_orbit_table_matches_rotation_orbits(kind, width, monkeypatch):
    # one table per catalog: heads[k] is orbit k's smallest index and size,
    # locate reads each member's orbit and shift, and orbits lists them sorted
    from yfrieze.core import rotation_orbits
    if kind == "coxeter":
        catalog = io.coxeter_catalog(width)
    else:
        monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", str(64 ** 5))
        catalog = io.y_catalog(width, bounds=(64,) * 5 if width == 5 else None)
    held = catalog.patterns
    orbits = rotation_orbits([tuple(zip(*p.rows)) for p in held])
    assert len(held.heads) == len(held.roots) == len(orbits)
    for k, orbit in enumerate(orbits):
        assert held.heads[k] == (orbit[0], len(orbit))
        assert [held.locate(i) for i in orbit] == [(k, s) for s in range(len(orbit))]
    assert held.orbits == [sorted(orbit) for orbit in orbits]


def test_built_width_8_coxeter_catalog_holds_under_0_9_mb():
    # 4,862 friezes in 442 rotation orbits: the roots, two index arrays and
    # one (smallest index, size) pair per orbit
    import gc
    import tracemalloc
    io.coxeter_catalog(1)  # load what a build imports
    gc.collect()
    tracemalloc.start()
    try:
        catalog = io.coxeter_catalog(8)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(catalog.patterns) == 4862
    assert held < 900_000


@pytest.mark.parametrize("width,digest", [
    (4, "0bd8ac7f4308a1181cab0065bedeadfa4780820aea2c32ddc9cebc852e00181c"),
    (7, "6a9422cbf58f09f57d13ba4e374e06c24ff6e4e9ad03b7a03593898792e0700d"),
    (8, "f97f120bc1d3ce939a64d7c6a9b9e050abdc322aa9615851730bc30ae95f5f4a"),
])
def test_coxeter_catalog_json_digest(width, digest):
    text = io.catalog_to_json(io.coxeter_catalog(width))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_width_9_coxeter_catalog_file_digest(tmp_path):
    # 16,796 friezes in 1,424 orbits, 12 rows each: the 44 MB file is
    # hashed in 1 MiB chunks, never held as one string
    path = tmp_path / "catalog.json"
    with open(path, "w", encoding="utf-8") as fh:
        io.write_catalog_json(io.coxeter_catalog(9), fh)
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    assert path.stat().st_size == 44_040_623
    assert digest.hexdigest() == "43ac6734ee57a7e48e7feac34be6e9b899c057e6fa9adcd096388d0358868e70"


# Each Y catalog's parameters and the sha256 of its JSON text, recorded
# while io still worked the parameters out itself.
Y_CATALOG_PINS = [
    (1, None, {"mode": "generic", "bounds": [10]},
     "acf73370f2722c2f6b12432308fe89c74bb7106ea205ac40f76a84faa797d586"),
    (2, None, {"mode": "generic", "bounds": [30, 30]},
     "c57ff11a7d0d30e17ed626e80e00252735a1f489975dc48ddc808c6d802e88a5"),
    (3, None, {"mode": "proven-boxes", "boxes": [[4, 18, 11], [11, 18, 4]]},
     "74556671a0452a5bf7a20c743a32003f4a527978ebe90bf86e71962bc6f827a5"),
    (4, None, {"mode": "proven-boxes", "boxes": [[5, 102, 168, 41], [5, 168, 102, 41],
                                                 [41, 102, 168, 5], [41, 168, 102, 5]]},
     "8f15e0e3d2b6ba8d80201fc3c1d1d231d37cb360896af441d461c86eb38ae135"),
    (5, (64,) * 5, {"mode": "generic", "bounds": [64] * 5},
     "983e2efbb382e38aaaa883ae83e86846c38d481dddf3895a492964a16c4caedf"),
]


@pytest.mark.parametrize("width,bounds,parameters,digest", Y_CATALOG_PINS,
                         ids=[str(pin[0]) for pin in Y_CATALOG_PINS])
def test_y_catalog_parameters_and_json_are_pinned(monkeypatch, width, bounds, parameters,
                                                  digest):
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", str(64 ** 5))
    catalog = io.y_catalog(width, bounds=bounds)
    assert catalog.parameters == parameters
    assert hashlib.sha256(io.catalog_to_json(catalog).encode()).hexdigest() == digest


def _writer_catalogs():
    yield from (io.coxeter_catalog(w) for w in range(1, 9))
    yield from (io.y_catalog(w) for w in range(1, 5))
    yield io.y_catalog(3, bounds=(1, 1, 1))  # a box that holds no pattern


def _written(catalog, path):
    with open(path, "w", encoding="utf-8") as fh:
        io.write_catalog_json(catalog, fh)
    return path.read_text(encoding="utf-8")


def test_catalog_json_writer_matches_json_dumps(monkeypatch, tmp_path):
    # catalog_to_json and write_catalog_json write the text themselves;
    # oracles.catalog_to_obj plus json.dumps is the reference layout.
    catalogs = list(_writer_catalogs())
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", str(64 ** 5))
    catalogs.append(io.y_catalog(5, bounds=(64,) * 5))
    for catalog in catalogs:
        expected = json.dumps(catalog_to_obj(catalog), indent=2) + "\n"
        assert_same_text(io.catalog_to_json(catalog), expected)
        assert_same_text(_written(catalog, tmp_path / "catalog.json"), expected)


def test_json_writer_builds_no_entry_and_rotates_no_pattern(monkeypatch, tmp_path):
    # the writer reads each entry's key and rows off its orbit's root
    from yfrieze import core
    catalogs = [io.coxeter_catalog(5), io.y_catalog(4)]
    expected = [json.dumps(catalog_to_obj(catalog), indent=2) + "\n" for catalog in catalogs]
    built = []
    rotated = core._rotated

    def counting_rotated(*args):
        built.append(args)
        return rotated(*args)

    monkeypatch.setattr(core, "_rotated", counting_rotated)
    for catalog, text in zip(catalogs, expected):
        assert_same_text(_written(catalog, tmp_path / "catalog.json"), text)
        assert_same_text(io.catalog_to_json(catalog), text)
    assert built == []


def test_writer_renders_each_orbit_roots_cells_once(monkeypatch):
    # the boundary rows are rendered once per catalog, and each orbit root's
    # interior cells once for all its members; a lookup per entry and cell
    # would make 157,300 (1,430 entries of 11 rows of 10)
    lookups = []

    class CountingCellJson(io._CellJson):
        def __getitem__(self, value):
            lookups.append(value)
            return super().__getitem__(value)

    catalog = io.coxeter_catalog(7)
    expected = json.dumps(catalog_to_obj(catalog), indent=2) + "\n"
    monkeypatch.setattr(io, "_CellJson", CountingCellJson)
    assert_same_text(io.catalog_to_json(catalog), expected)
    period, orbits = 10, len(catalog.patterns.roots)
    assert orbits == 150
    assert len(lookups) <= orbits * 7 * period + 4 * period == 10_540


def test_streaming_the_width_7_catalog_holds_under_half_its_text(tmp_path):
    # the joined text alone would be 2.8 MB; the writer keeps one entry's
    # text and the cell strings of each orbit root (0.13-0.22 MB traced)
    import tracemalloc
    catalog = io.coxeter_catalog(7)
    tracemalloc.start()
    try:
        with open(tmp_path / "catalog.json", "w", encoding="utf-8") as fh:
            io.write_catalog_json(catalog, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "catalog.json").stat().st_size
    assert size > 2_700_000
    assert peak < size / 2


def test_building_and_streaming_the_width_8_catalog_holds_its_orbit_roots_only(tmp_path):
    # 4,862 friezes in 442 rotation orbits: the catalog keeps one root per
    # orbit and builds every other entry when the writer reads it.
    import tracemalloc
    tracemalloc.start()
    try:
        with open(tmp_path / "catalog.json", "w", encoding="utf-8") as fh:
            io.write_catalog_json(io.coxeter_catalog(8), fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


def test_writer_memory_does_not_grow_with_the_entry_count(tmp_path):
    # with the catalog built first, writing its 4,862 entries keeps one
    # entry's text and the interior cell strings of each of its 442 orbit
    # roots (0.39 MB), not a table of every rotation of every key row
    import tracemalloc
    catalog = io.coxeter_catalog(8)
    tracemalloc.start()
    try:
        with open(tmp_path / "catalog.json", "w", encoding="utf-8") as fh:
            io.write_catalog_json(catalog, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_streamed_read_holds_under_five_chunks(tmp_path):
    # read_patterns of the width-7 catalog (2.8 MB), its entries only
    # counted: the streamed read drops the consumed buffer before each read,
    # so it holds the unread rest, the new chunk and their join at most,
    # beside the text file's own buffers (about 4.3 chunks; 5.3 when the
    # consumed buffer was held through the read).  A full collection first
    # empties the free lists, so that the peak does not depend on the tests
    # run before.
    import gc
    import tracemalloc
    from yfrieze import read
    path = tmp_path / "catalog.json"
    with open(path, "w", encoding="utf-8") as fh:
        io.write_catalog_json(io.coxeter_catalog(7), fh)
    gc.collect()
    tracemalloc.start()
    try:
        count = read.read_patterns(str(path), lambda entries: sum(1 for _ in entries))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1430
    assert peak < 4.75 * read._CHUNK, peak / read._CHUNK


SLICES = [(None, None), (0, 2), (2, -2), (-3, None), (None, -20), (5, 5), (3, 1), (-1, 3)]


def test_held_patterns_and_entries_slice_as_a_list_and_a_tuple():
    # enumerate_frieze slices as the list of its friezes
    friezes = yf.enumerate_frieze(3)
    for a, b in SLICES:
        assert friezes[a:b] == list(friezes)[a:b]
    assert friezes[::-2] == list(friezes)[::-2]


def test_y_catalogs_equal_the_search_patterns_with_per_pattern_fields(monkeypatch):
    # a Y catalog holds one root per orbit, found by generation; its entries
    # must be those built from every search hit and its own orbit and fields
    from yfrieze import search
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", str(64 ** 5))
    for width, bounds in [(1, None), (2, None), (3, None), (4, None), (5, (64,) * 5)]:
        sols = search.y_solutions(width, bounds=bounds)
        orbit_of = {i: orbit for orbit in yf.orbit_decomposition(sols) for i in orbit}
        expected = tuple(
            CatalogEntry(i, key, p, orbit_of[i][0], len(orbit_of[i]), yf.intrinsic_period(p),
                         yf.glide_shift(p))
            for i, (key, p) in enumerate(zip(sols.full_tuples, sols)))
        catalog = io.y_catalog(width, bounds=bounds)
        assert entries_of(catalog) == expected
        assert list(io.entry_keys(catalog)) == [entry.key_tuple for entry in expected]


def test_orbit_fields_equal_per_pattern_values(monkeypatch):
    # the JSON writer writes intrinsic_period as the orbit size and
    # glide_shift by formula; every entry must read what its own pattern gives.
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", str(64 ** 5))
    catalogs = [*(io.coxeter_catalog(w) for w in range(1, 9)),
                *(io.y_catalog(w) for w in range(1, 5)),
                io.y_catalog(5, bounds=(64,) * 5)]
    for catalog in catalogs:
        for entry in catalog_from_json(io.catalog_to_json(catalog)).entries:
            assert entry.intrinsic_period == yf.intrinsic_period(entry.pattern)
            assert entry.glide_shift == yf.glide_shift(entry.pattern)


def test_csv_and_json_catalogs_agree(w4_solutions):
    catalog = io.y_catalog(4)
    obj = catalog_to_obj(catalog)
    _, csv_rows = io.tuples_from_csv(io.catalog_to_csv(catalog))
    json_rows = [tuple(p["tuple"]) for p in obj["patterns"]]
    assert csv_rows == json_rows == list(w4_solutions.full_tuples)


def test_catalog_orbit_metadata(w3_solutions):
    entries = catalog_from_json(io.catalog_to_json(io.y_catalog(3))).entries
    by_diag = {e.key_tuple[:3]: e for e in entries}
    assert by_diag[(2, 3, 2)].orbit_size == 1
    assert by_diag[(1, 1, 2)].orbit_size == 3
    assert by_diag[(2, 3, 2)].intrinsic_period == 1
    assert all(e.glide_shift is not None for e in entries)
    assert sum(1 for e in entries if e.orbit_root == e.id) == 4


def test_raw_patterns_from_catalog_obj():
    catalog = io.coxeter_catalog(1)
    obj = catalog_to_obj(catalog)
    raw = raw_patterns_from_obj(obj)
    assert len(raw) == 2
    assert raw[0][0] is yf.PatternKind.COXETER


# --------------------------------------------------------------- rendering

def test_render_constant_width_3_pattern():
    text = io.render_ascii(expand_domain(w3_domain((2, 3, 2))))
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[1].split() == ["2"] * 12
    assert lines[2].split() == ["3"] * 12
    assert lines[3].split() == ["2"] * 12
    # one half-cell of extra indent per row
    indents = [len(line) - len(line.lstrip()) for line in lines]
    assert indents == sorted(indents)


def test_render_width_1_pattern():
    sols = yf.y_solutions(1)
    pattern = sols[0]
    lines = io.render_ascii(pattern).splitlines()
    assert len(lines) == 3
    assert lines[1].split() == ["1"] * 8


def test_render_width_4_block_shape():
    pattern = expand_domain(w4_domain((1, 1, 2, 3)))
    lines = io.render_ascii(pattern).splitlines()
    assert len(lines) == 6  # zero row, four interior rows, zero row
    assert lines[1].split()[:7] == ["1", "2", "5", "3", "1", "3", "7"]
    # two periods wide
    assert len(lines[0].split()) == 14


def test_render_fractional_entries():
    text = io.render_ascii(expand_domain(w3_domain((1, 1, 1))))
    assert "7/2" in text
