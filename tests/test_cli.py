"""CLI subcommands, exit codes and output determinism."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import yfrieze as yf
from yfrieze.cli import main
from conftest import IMAGE_BOXES, assert_same_text
from oracles import (FundamentalDomain, catalog_from_json, catalog_to_obj, expand_domain,
                     pattern_to_obj, w3_domain)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------- enumerate

def test_enumerate_y3_table(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "y", "--width", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == list("abcdefghi")
    assert len(lines) == 11
    assert lines[-1].split()[:3] == ["5", "9", "2"]


def test_enumerate_coxeter4_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "coxeter", "--width", "4",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 43  # header + 42 rows


def test_enumerate_rejects_width_zero(capsys):
    code, _, err = run(capsys, "enumerate", "--kind", "y", "--width", "0")
    assert code == 2
    assert "width" in err


def test_enumerate_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "hexagonal", "--width", "3"])
    assert exc.value.code == 2
    code, _, _ = run(capsys, "enumerate", "--kind", "y", "--width", "5")
    assert code == 2  # generic width without --bounds
    code, _, _ = run(capsys, "enumerate", "--kind", "y", "--width", "3",
                     "--bounds", "4,18")
    assert code == 2  # wrong bounds arity
    code, _, _ = run(capsys, "enumerate", "--kind", "coxeter", "--width", "3",
                     "--bounds", "4,18,11")
    assert code == 2  # bounds only make sense for the diagonal search


def test_enumerate_capability_limits(capsys, monkeypatch):
    code, _, err = run(capsys, "enumerate", "--kind", "coxeter", "--width", "99")
    assert code == 3
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", "10")
    code, _, err = run(capsys, "enumerate", "--kind", "y", "--width", "5",
                       "--bounds", "3,3,3,3,3")
    assert code == 3
    assert "ceiling" in err


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_malformed_candidate_ceiling_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", value)
    code, out, err = run(capsys, "enumerate", "--kind", "y", "--width", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: FRIEZE_MAX_CANDIDATES") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["enumerate", "orbits"])
def test_malformed_candidate_ceiling_stops_a_coxeter_command_first(capsys, monkeypatch,
                                                                   command):
    # core holds the ceiling, so the Coxeter kind checks it before any
    # generation and without loading the search
    from yfrieze import coxeter

    def no_generation(n):
        raise AssertionError("generation ran")

    monkeypatch.setattr(coxeter, "enumerate_frieze", no_generation)
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", "abc")
    argv = [command, "--kind", "coxeter", "--width", "4"]
    message = "error: FRIEZE_MAX_CANDIDATES must be a positive integer, got 'abc'\n"
    assert run(capsys, *argv) == (2, "", message)
    out, modules = _loaded_modules(argv)
    assert out == b"" and "yfrieze.search" not in modules


@pytest.mark.parametrize("value", ["0", "-1"])
def test_parallelism_below_one_is_a_usage_error(capsys, value):
    code, _, err = run(capsys, "enumerate", "--kind", "y", "--width", "4",
                       "--parallelism", value)
    assert code == 2
    assert "--parallelism" in err


@pytest.mark.parametrize("command", ["enumerate", "orbits"])
def test_box_cutting_a_shift_orbit_is_a_limit_error(capsys, command):
    code, out, err = run(capsys, command, "--kind", "y", "--width", "5",
                         "--bounds", "14,14,14,14,14")
    assert code == 3 and out == ""
    assert "shift orbit" in err and err.count("\n") == 1


def test_width_5_box_holding_every_orbit(capsys, monkeypatch):
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", str(2 * 10 ** 9))
    code, out, _ = run(capsys, "enumerate", "--kind", "y", "--width", "5",
                       "--bounds", "64,64,64,64,64", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 121  # header + 120 patterns


@pytest.mark.parametrize("command", ["enumerate", "orbits"])
@pytest.mark.parametrize("bounds", ["1,,2,3,4", "a,b", "", "1,2,3,4,0", "1.5"])
def test_malformed_bounds_are_one_usage_line(capsys, command, bounds):
    code, out, err = run(capsys, command, "--kind", "y", "--width", "5", "--bounds", bounds)
    assert code == 2 and out == ""
    assert err == f"error: --bounds must be comma-separated positive integers, got {bounds!r}\n"


def test_enumerate_generic_width_via_bounds(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "y", "--width", "2",
                       "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 6  # header + five width-2 solutions


def test_enumerate_output_file(tmp_path, capsys):
    target = tmp_path / "cat.json"
    code, out, _ = run(capsys, "enumerate", "--kind", "y", "--width", "3",
                       "--format", "json", "--output", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["schema"] == "frieze-catalog/1"
    assert len(payload["patterns"]) == 10


@pytest.mark.parametrize("kind,width", [("coxeter", 5), ("y", 4)])
def test_enumerate_json_streams_the_same_bytes_to_stdout_and_output(tmp_path, capsys,
                                                                     monkeypatch, kind, width):
    from yfrieze import io
    catalog = io.coxeter_catalog(width) if kind == "coxeter" else io.y_catalog(width)
    expected = json.dumps(catalog_to_obj(catalog), indent=2) + "\n"

    def no_text(catalog):
        raise AssertionError("enumerate built the whole catalog text")

    monkeypatch.setattr(io, "catalog_to_json", no_text)
    argv = ("enumerate", "--kind", kind, "--width", str(width), "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert_same_text(out, expected)
    target = tmp_path / "cat.json"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert (code, out, err) == (0, "", "")
    assert_same_text(target.read_text(encoding="utf-8"), expected)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_streamed_json_to_a_full_device_is_one_write_error(capsys):
    # /dev/full takes the open and fails every write with ENOSPC
    code, out, err = run(capsys, "enumerate", "--kind", "coxeter", "--width", "7",
                         "--format", "json", "--output", "/dev/full")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write /dev/full: [Errno 28] ")
    assert err.count("\n") == 1 and err.endswith("\n")
    # and as stdout, in a child whose stdout is the device
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(yf.__file__)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "yfrieze.cli", "enumerate", "--kind",
                               "coxeter", "--width", "7", "--format", "json"],
                              env=env, stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("error: cannot write stdout: [Errno 28] ")
    assert proc.stderr.count(b"\n") == 1


def test_cli_output_deterministic_across_parallelism(tmp_path, capsys):
    files = []
    for parallelism in ("1", "8"):
        for fmt in ("json", "csv"):
            path = tmp_path / f"w4-{parallelism}.{fmt}"
            code, _, _ = run(capsys, "enumerate", "--kind", "y", "--width", "4",
                             "--format", fmt, "--parallelism", parallelism,
                             "--output", str(path))
            assert code == 0
            files.append(path)
    assert_same_text(files[0].read_bytes(), files[2].read_bytes())
    assert_same_text(files[1].read_bytes(), files[3].read_bytes())


def test_bounded_width_5_csv_is_the_same_at_any_parallelism(monkeypatch, capsys):
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", str(64 ** 5))
    outs = []
    for parallelism in ("1", "2"):
        code, out, err = run(capsys, "enumerate", "--kind", "y", "--width", "5", "--bounds",
                             "64,64,64,64,64", "--format", "csv", "--parallelism", parallelism)
        assert code == 0 and err == ""
        outs.append(out)
    assert_same_text(outs[0], outs[1])
    assert len(outs[0].splitlines()) == 121  # header + 120 patterns
    assert hashlib.sha256(outs[0].encode()).hexdigest() == (
        "8bdcbcc8c60410573ac0e1f38acddc7ebfd89036b53677d68a33d2e959d5fbfa")


# sha256 of enumerate's csv and table output, recorded when both still built
# every catalog entry to read its key.
ENUMERATE_DIGESTS = {
    ("coxeter", 1, "csv"): "ccb724dbc56b26eb5402672ffadbf09a8d908821452fbf0ee8ac70bb942df57e",
    ("coxeter", 1, "table"): "81bbb7b0d6f4d7e84957f6935e0d1ee8664cc53da96bb125c5e84c957a3b3f08",
    ("coxeter", 2, "csv"): "5942fecdbedc7c14606a55eaa0f23f7064969bf08a24c8b733f21b317485c5a9",
    ("coxeter", 2, "table"): "249296415c0eff9cf8dfabc613921af1d77facd4274d474ae51606f438383923",
    ("coxeter", 3, "csv"): "beb10d78bbaf3ea8416ddd8d08d74f2697f29d446a03589160538e4696ebba31",
    ("coxeter", 3, "table"): "f33a3a510479daf9c9483efc0a1156a800b729b25ecc2bc12f5b683248dc8a63",
    ("coxeter", 4, "csv"): "8bbf0725db05632365db582206b6d1db0df07a71f37ef39dfc43086ae02a985d",
    ("coxeter", 4, "table"): "def5768073d1b63eb0d5ab93e7962aded594079342998a994bb2c83cd76b477c",
    ("coxeter", 5, "csv"): "d640e76934b34cb54e772b01e7afab3010f411f4b7523cc5c4339699c89c40de",
    ("coxeter", 5, "table"): "926dbeb1d8712d3e2a351312c01341d100727b9a7b15a63032fc022e20bef23f",
    ("coxeter", 6, "csv"): "4b85096013d00104650240fdbf2e9c6c47f691c7966483e44a8006ae8af10e26",
    ("coxeter", 6, "table"): "36d874ae1d877a471b8d8be7e2c52a8bbc13737e2c8c972f7c5ef2fc25a7b572",
    ("coxeter", 7, "csv"): "8016bef7f69d59df421e0472215c52d37f4f2315766451c887745c0a4b690916",
    ("coxeter", 7, "table"): "d47f4239b78d1ade132ce44cd5fdf25db0dbecebc3e328557d059c2f8fcbf88d",
    ("coxeter", 8, "csv"): "41a3b6306227cafee2c64d37140a3af4792056a07a829d003e85fc92c551e26a",
    ("coxeter", 8, "table"): "2c0e9df28d811d98c60498ce6d2973b33673b34c9ae32f31d89c4ccd2be1f13a",
    ("y", 1, "csv"): "1b1a3a56ac5c4430abc6ceecc7961d570a0d37c969a294c974676ada84b9e933",
    ("y", 1, "table"): "8b3e213f0feaf75943de202331d5901c5a7b32b4db1276579d9c4df0ddd8d6ff",
    ("y", 2, "csv"): "b88e77bbd804f98ceab93e84f7c3f12bdb5ba1eda7c8ba9864274edeb71bf684",
    ("y", 2, "table"): "e033e5052940c68fbd10c168a8892d18768486a0fe0a430e07fd7ddcb60e9b87",
    ("y", 3, "csv"): "60933ff568abdca83ae0440f6817319ca70676486411c7888f00cc6cb8c873c2",
    ("y", 3, "table"): "fdd988ff1b8bf9ca9b364155c0a43ee5008d52dea001974ce028c94d0efcaba5",
    ("y", 4, "csv"): "e4f1d6324cd995f26ac7c5996fba5ede3b038f00db1a315f5ee5e71ae5f8993f",
    ("y", 4, "table"): "32658428d1c85a43dc6e90f42fd8290e645785abca0584c761189d81f3d67956",
    ("y", 5, "csv"): "8bdcbcc8c60410573ac0e1f38acddc7ebfd89036b53677d68a33d2e959d5fbfa",
    ("y", 5, "table"): "62142b7c6692c1765eea78c05d896ddf2b09ddd4e8f37674d5fa1bbec47548bf",
}


@pytest.mark.parametrize("kind,width,fmt", sorted(ENUMERATE_DIGESTS))
def test_enumerate_csv_and_table_digest(capsys, monkeypatch, kind, width, fmt):
    bounds = ()
    if (kind, width) == ("y", 5):
        monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", str(64 ** 5))
        bounds = ("--bounds", "64,64,64,64,64")
    code, out, err = run(capsys, "enumerate", "--kind", kind, "--width", str(width),
                         "--format", fmt, *bounds)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[kind, width, fmt]


# ------------------------------------------------------------------ verify

@pytest.fixture()
def coxeter3_catalog_file(tmp_path, capsys):
    path = tmp_path / "cox3.json"
    code, _, _ = run(capsys, "enumerate", "--kind", "coxeter", "--width", "3",
                     "--format", "json", "--output", str(path))
    assert code == 0
    return path


def test_verify_accepts_own_catalog(coxeter3_catalog_file, capsys):
    code, out, _ = run(capsys, "verify", str(coxeter3_catalog_file))
    assert code == 0
    assert "14/14 patterns ok" in out


# Every catalog the package builds: Coxeter widths 1-8, Y widths 1-4, and
# the width-5 and width-6 image boxes; orbit sizes 1-11 all occur.
BUILT_CATALOGS = ([("coxeter", width, None) for width in range(1, 9)]
                  + [("y", width, None) for width in range(1, 5)]
                  + [("y", width, IMAGE_BOXES[width]) for width in (5, 6)])


@pytest.mark.parametrize("kind, width, bounds", BUILT_CATALOGS)
def test_verify_passes_every_entry_of_every_built_catalog(tmp_path, monkeypatch,
                                                          kind, width, bounds):
    from yfrieze import io, read, verify
    monkeypatch.setenv(yf.core.MAX_CANDIDATES_ENV, str(10 ** 15))
    catalog = (io.coxeter_catalog(width) if kind == "coxeter"
               else io.y_catalog(width, bounds=bounds))
    path = tmp_path / "catalog.json"
    with open(path, "w", encoding="utf-8") as fh:
        io.write_catalog_json(catalog, fh)
    assert read.read_patterns(str(path), verify._verify_all) == [None] * len(catalog.patterns)


@pytest.mark.parametrize("kind, width, bounds", BUILT_CATALOGS)
def test_every_built_pattern_has_the_glide_the_theorem_gives(monkeypatch, kind, width, bounds):
    # README, "The glide": a pattern that passes check_rows with a positive
    # interior has glide 0 if it is a frieze and 1 mod its orbit size s if it
    # is a Y pattern; the search and the written glide_shift must both agree
    from yfrieze import io
    monkeypatch.setenv(yf.core.MAX_CANDIDATES_ENV, str(10 ** 15))
    catalog = (io.coxeter_catalog(width) if kind == "coxeter"
               else io.y_catalog(width, bounds=bounds))
    entries = json.loads(io.catalog_to_json(catalog))["patterns"]
    assert len(entries) == len(catalog.patterns)
    for entry in entries:
        rows = entry["rows"]
        size = next(s for s in range(1, width + 4) if all(row[s:] + row[:s] == row for row in rows))
        glide = 0 if kind == "coxeter" else 1 % size
        assert (yf.glide_shift_of_rows(rows, width + 3), entry["glide_shift"]) == (glide, glide)


def test_verify_rejects_tampered_entry(coxeter3_catalog_file, tmp_path, capsys):
    obj = json.loads(coxeter3_catalog_file.read_text())
    assert obj["patterns"][0]["rows"][2][0] != 6
    obj["patterns"][0]["rows"][2][0] = 6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "diamond violation at row" in out


def test_verify_checks_each_orbit_once(coxeter3_catalog_file, capsys, monkeypatch):
    from yfrieze import core, verify
    calls = []
    check_rows = core.check_rows

    def counting_check_rows(*args):
        calls.append(args)
        return check_rows(*args)

    monkeypatch.setattr(verify, "check_rows", counting_check_rows)
    monkeypatch.setattr(core, "check_rows", counting_check_rows)
    code, _, _ = run(capsys, "verify", str(coxeter3_catalog_file))
    assert code == 0
    # 14 friezes in 4 rotation orbits: one check per orbit
    assert len(calls) == 4


def test_verify_reports_a_ragged_rotation_of_a_passing_entry_as_shape(coxeter3_catalog_file):
    # An entry is looked up in verify's table by its columns, and zip drops
    # the extra cell of a longer row: such an entry must still get every check.
    from yfrieze import read, verify
    raw = read.read_patterns(str(coxeter3_catalog_file), list)
    kind, width, rows, entry = raw[0]
    assert entry["orbit_root"] == 0
    ragged = [row[2:] + row[:2] for row in rows]
    ragged[3] = ragged[3] + [1]
    violations = verify._verify_all([*raw, (kind, width, ragged, {"orbit_root": 0})])
    assert violations[:-1] == [None] * len(raw)
    assert violations[-1].check == "shape"
    assert violations[-1] == verify._verify_one(kind, width, ragged)


@pytest.mark.parametrize("width, rows", [(-3, [[]]), (-2, [])])
def test_verify_names_the_width_of_a_catalog_entry_with_no_columns(tmp_path, capsys,
                                                                   width, rows):
    # rows of the right shape for such a width have no column to key
    # verify's orbit table by, so the entry gets the full check
    from yfrieze.io import CATALOG_SCHEMA
    path = tmp_path / "no_columns.json"
    path.write_text(json.dumps({"schema": CATALOG_SCHEMA, "kind": "coxeter" if rows else "y",
                                "width": width, "patterns": [{"rows": rows}]}))
    assert run(capsys, "verify", str(path)) == (1, "pattern 0: shape violation at row -1, col -1: "
                                                f"width must be >= 1, got {width}\n"
                                                "0/1 patterns ok\n", "")


def test_verify_checks_a_rotation_of_a_root_read_as_another_kind_in_full(
        coxeter3_catalog_file):
    # Equal columns fix the rows, but not the kind that they are read as.
    from yfrieze import read, verify
    raw = read.read_patterns(str(coxeter3_catalog_file), list)
    kind, width, rows, entry = raw[0]
    assert entry["orbit_root"] == 0
    member = (yf.PatternKind.Y, width, [row[1:] + row[:1] for row in rows],
              {**entry, "id": len(raw)})
    violations = verify._verify_all([*raw, member])
    assert violations == [None] * len(raw) + [verify._verify_one(*member[:3])]
    assert violations[-1].check == "shape"


def test_verify_names_a_changed_member_of_a_passing_root_with_its_own_violation(
        coxeter3_catalog_file):
    # The member's columns are no rotation of any passing entry's, so it gets
    # the full check, and its root counts one rotation fewer than its orbit_size.
    from yfrieze import read, verify
    raw = read.read_patterns(str(coxeter3_catalog_file), list)
    i, (kind, width, rows, entry) = next((i, e) for i, e in enumerate(raw)
                                         if e[3]["orbit_root"] != i)
    r, size = entry["orbit_root"], entry["orbit_size"]
    assert raw[r][3]["orbit_root"] == r
    rows[3][1] += 1
    violations = verify._verify_all(raw)
    assert violations[i] == verify._verify_one(kind, width, rows)
    assert violations[i].check == "diamond"
    assert violations[r] == yf.Violation("orbit", -1, -1, _count_detail(size, size - 1))
    assert [v for j, v in enumerate(violations) if j not in (i, r)] == [None] * (len(raw) - 2)


def test_verify_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    path2 = tmp_path / "wrong-schema.json"
    path2.write_text(json.dumps({"schema": "other/1"}))
    code, _, _ = run(capsys, "verify", str(path2))
    assert code == 2


# A malformed catalog document: (path to the field, new value or DELETE, message).
DELETE = object()
MALFORMED_CATALOGS = {
    "rows [5]": (("patterns", 0, "rows"), [5], "catalog entry 0 rows must be a list of lists, "
                                               "got [5]"),
    "rows 5": (("patterns", 0, "rows"), 5, "catalog entry 0 rows must be a list of lists, got 5"),
    "entry 5": (("patterns", 0), 5, "catalog entry 0 is not an object: 5"),
    "no rows": (("patterns", 1, "rows"), DELETE, "catalog entry 1 lacks rows"),
    "no kind": (("kind",), DELETE, "catalog lacks kind"),
    "patterns {}": (("patterns",), {}, "catalog patterns must be a list, got {}"),
}


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("shape", sorted(MALFORMED_CATALOGS))
def test_malformed_catalog_is_one_line_naming_the_field(tmp_path, capsys, command, shape):
    # a malformed key such as "quiddity": 5 is no parse error: verify names
    # it as a key violation (exit 1), and render reads the rows only.
    from yfrieze import io
    (*parents, last), value, message = MALFORMED_CATALOGS[shape]
    obj = catalog_to_obj(io.coxeter_catalog(2))
    target = obj
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"error: cannot parse {path}: {message}\n")


@pytest.mark.parametrize("command", ["verify", "render"])
def test_json_nested_past_the_recursion_limit_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot parse {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("enumerate", "--kind", "y", "--width", "3"),
    ("map", "--width", "2"),
    ("orbits", "--kind", "coxeter", "--width", "3"),
    ("render", "F", "--index", "0"),
], ids=["enumerate", "map", "orbits", "render"])
def test_unwritable_output_is_a_usage_error(coxeter3_catalog_file, tmp_path, capsys, argv):
    target = tmp_path / "no-such-dir" / "out.txt"
    argv = [str(coxeter3_catalog_file) if arg == "F" else arg for arg in argv]
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("enumerate", "--kind", "coxeter", "--width", "8", "--format", "json"),
    ("map", "--width", "4"),
    ("orbits", "--kind", "coxeter", "--width", "8"),
], ids=["enumerate", "map", "orbits"])
def test_unwritable_output_fails_before_the_catalog_is_built(tmp_path, capsys, monkeypatch,
                                                            argv):
    from yfrieze import io

    def no_catalog(width):
        raise AssertionError("the catalog was built before --output was checked")

    monkeypatch.setattr(io, "coxeter_catalog", no_catalog)
    target = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2 and out == ""
    assert err == (f"error: cannot write {target}: "
                   f"[Errno 2] No such file or directory: '{target}'\n")


@pytest.mark.parametrize("command", ["enumerate", "orbits"])
def test_a_box_over_the_ceiling_fails_before_output_is_checked(tmp_path, capsys, monkeypatch,
                                                                command):
    # the Y search is planned, and its box held to the ceiling, before
    # --output is probed, so the limit is named rather than the path
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", "10")
    target = tmp_path / "no-such-dir" / "x.csv"
    code, out, err = run(capsys, command, "--kind", "y", "--width", "5",
                         "--bounds", "3,3,3,3,3", "--output", str(target))
    assert (code, out, err) == (3, "", "error: box volume 243 exceeds ceiling 10\n")


def test_output_check_keeps_an_existing_file_and_leaves_no_new_one(tmp_path, capsys):
    # this box cuts a width-5 shift orbit in two, so the command exits 3
    # after it has checked --output and searched the box
    argv = ("enumerate", "--kind", "y", "--width", "5", "--bounds", "20,20,20,20,20")
    existing, missing = tmp_path / "existing.csv", tmp_path / "missing.csv"
    existing.write_text("keep\n")
    for target in (existing, missing):
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 3 and out == ""
        assert err.startswith("error: the box cuts a shift orbit") and err.count("\n") == 1
    assert existing.read_text() == "keep\n"
    assert sorted(tmp_path.iterdir()) == [existing]


def test_verify_single_pattern_object(tmp_path, capsys):
    pattern = expand_domain(w3_domain((3, 8, 3)))
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(pattern_to_obj(pattern)))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "1/1 patterns ok" in out


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("container", ["catalog", "pattern"])
def test_boolean_width_is_a_parse_error(tmp_path, capsys, command, container):
    # JSON true loads as a bool, which is an int subclass equal to 1
    from yfrieze import io
    if container == "catalog":
        obj = catalog_to_obj(io.coxeter_catalog(1))
    else:
        obj = pattern_to_obj(yf.enumerate_frieze(1)[0])
    obj["width"] = True
    path = tmp_path / "bool-width.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert "width must be an int" in err and err.count("\n") == 1


def test_verify_flags_nonarithmetic_pattern(tmp_path, capsys):
    pattern = expand_domain(w3_domain((1, 1, 1)))
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(pattern_to_obj(pattern)))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "positivity violation" in out


def tampered_width4_catalog(kind):
    """A width-4 catalog whose entries 0-5 fail verify by shape, boundary,
    closure, diamond, positivity (a closed pattern with "p/q" entries) and
    a diamond around a "p/q" cell; the other entries stay valid."""
    from fractions import Fraction as F
    from yfrieze import io
    if kind == "y":
        catalog = io.y_catalog(4)
        rational = yf.propagate_y((1, 3, 3, F(5, 4), 8, F(1, 2), 11), 4)
    else:
        catalog = io.coxeter_catalog(4)
        rational = yf.frieze_from_quiddity((2, F(5, 4), F(8, 3), F(9, 4), 1, 3, F(5, 3)))
    obj = catalog_to_obj(catalog)
    rows = [entry["rows"] for entry in obj["patterns"]]
    rows[0].pop()
    rows[1][0][3] = 1
    rows[2][2] = [0 if kind == "y" else 1] * 7
    rows[3][3][2] += 1
    obj["patterns"][4]["rows"] = pattern_to_obj(rational)["rows"]
    rows[5][2][1] = "1/2"
    return obj


# sha256 and exit code of verify's report on tampered_width4_catalog.  Its
# entries 0-5 each head an orbit, so every member of those orbits names a
# root other than its first rotation that passes: 7/42 entries are ok.
VERIFY_DIGESTS = {
    "coxeter": ("1c98bdc14c04a3e1c803ce81c770ecbe65a37d5f6a19b7de1a009ca21db194ab", 1),
    "y": ("fc163b9c6c90b554b1a72a5433a230f68cf5ccdb21170e0a61d980efe14e35c0", 1),
}


@pytest.mark.parametrize("kind", sorted(VERIFY_DIGESTS))
def test_verify_report_is_pinned(tmp_path, capsys, kind):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered_width4_catalog(kind)))
    code, out, err = run(capsys, "verify", str(path))
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), code) == VERIFY_DIGESTS[kind]
    assert err == ""


# An entry field tampered with: (kind, entry index, field, new value or
# DELETE, the check verify names for that entry and its detail).
TAMPERED_FIELDS = {
    "id 77": ("coxeter", 1, "id", 77, "id", "id 77 is not 1"),
    "id true": ("coxeter", 1, "id", True, "id", "id True is not 1"),
    "quiddity 9s": ("coxeter", 0, "quiddity", [9] * 6, "key",
                    "quiddity [9, 9, 9, 9, 9, 9] is not [4, 1, 2, 2, 2, 1]"),
    "quiddity 5": ("coxeter", 3, "quiddity", 5, "key", "quiddity 5 is not [2, 1, 4, 1, 2, 2]"),
    "quiddity true": ("coxeter", 0, "quiddity", [4, True, 2, 2, 2, True], "key",
                      "quiddity [4, True, 2, 2, 2, True] is not [4, 1, 2, 2, 2, 1]"),
    "no id": ("y", 2, "id", DELETE, "id", "id None is not 2"),
    "tuple": ("y", 0, "tuple", [1] * 9, "key",
              "tuple [1, 1, 1, 1, 1, 1, 1, 1, 1] is not [1, 1, 2, 2, 9, 5, 5, 4, 1]"),
    "diagonal": ("y", 0, "diagonal", [1, 2, 4], "key", "diagonal [1, 2, 4] is not [1, 1, 2]"),
}


@pytest.mark.parametrize("shape", sorted(TAMPERED_FIELDS))
def test_verify_names_an_entry_whose_id_or_key_disagrees(tmp_path, capsys, shape):
    from yfrieze import io
    kind, i, field, value, check, detail = TAMPERED_FIELDS[shape]
    catalog = io.coxeter_catalog(3) if kind == "coxeter" else io.y_catalog(3)
    obj = catalog_to_obj(catalog)
    if value is DELETE:
        del obj["patterns"][i][field]
    else:
        obj["patterns"][i][field] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj, indent=2))
    code, out, err = run(capsys, "verify", str(path))
    n = len(catalog.patterns)
    line = f"{check} violation at row -1, col -1: {detail}"
    assert (code, err) == (1, "")
    assert out.splitlines() == [f"pattern {j}: {line if j == i else 'ok'}" for j in range(n)] \
        + [f"{n - 1}/{n} patterns ok"]


@pytest.mark.parametrize("value", [DELETE, None, "x", True], ids=["missing", "null", "x", "true"])
@pytest.mark.parametrize("field", ["orbit_root", "orbit_size", "intrinsic_period", "glide_shift"])
def test_verify_names_an_orbit_field_that_is_not_an_int(tmp_path, capsys, field, value):
    # the orbit fields were checked only by a loaded reader that no command ran,
    # so a catalog missing them, or holding a string or a bool, passed verify
    from yfrieze import io
    obj = catalog_to_obj(io.coxeter_catalog(3))
    if value is DELETE:
        del obj["patterns"][1][field]
    else:
        obj["patterns"][1][field] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))
    shown = None if value is DELETE else value
    # entry 1 heads an orbit of 3 with glide 0: its orbit tuple is (1, 3, 3, 0)
    expected = {"orbit_root": "is not 1",
                "orbit_size": "is not 3", "intrinsic_period": "is not 3",
                "glide_shift": "is not 0"}[field]
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines()[1:2] + out.splitlines()[-1:] == [
        f"pattern 1: orbit violation at row -1, col -1: {field} {shown!r} {expected}",
        "13/14 patterns ok"]


# Orbit fields of a width-3 Coxeter catalog entry set to ints that no valid
# catalog holds: (entry index, new field values, verify's detail for it).
# Entry 0 heads an orbit of 6, entry 5 is in the orbit of 3 that entry 4
# heads, and each has glide 0.
OUT_OF_RANGE_ORBIT_FIELDS = {
    "size 99 glide 5 period 1": (0, {"orbit_size": 99, "glide_shift": 5, "intrinsic_period": 1},
                                 "orbit_size 99 is not 6"),
    "period 1": (0, {"intrinsic_period": 1}, "intrinsic_period 1 is not 6"),
    "root 3 after its entry": (0, {"orbit_root": 3}, "orbit_root 3 is not 0"),
    "root 13 after its entry": (5, {"orbit_root": 13}, "orbit_root 13 is not 4"),
    "root -1": (5, {"orbit_root": -1}, "orbit_root -1 is not 4"),
    "size 4": (0, {"orbit_size": 4, "intrinsic_period": 4}, "orbit_size 4 is not 6"),
    "size 0": (0, {"orbit_size": 0, "intrinsic_period": 0}, "orbit_size 0 is not 6"),
    "glide 6": (0, {"glide_shift": 6}, "glide_shift 6 is not 0"),
    "glide -1": (0, {"glide_shift": -1}, "glide_shift -1 is not 0"),
}


def _line(check, detail):
    return f"{check} violation at row -1, col -1: {detail}"


def _orbit_line(detail):
    return _line("orbit", detail)


def _distinct_detail(r):
    return f"its rows repeat an earlier entry's, in the orbit of entry {r}"


def _count_detail(size, count):
    return f"orbit_size {size} is not {count}, the number of its rotations in the file"


def _verify_report(lines, n):
    """verify's report on n entries with `lines` naming the failing ones."""
    return [f"pattern {j}: {lines.get(j, 'ok')}" for j in range(n)] + [
        f"{n - len(lines)}/{n} patterns ok"]


@pytest.mark.parametrize("shape", sorted(OUT_OF_RANGE_ORBIT_FIELDS))
def test_verify_names_an_orbit_field_no_valid_catalog_holds(tmp_path, capsys, shape):
    # verify checked only that each orbit field is an int, so these passed.
    # The rows alone fix each entry's orbit, so only the tampered entry is named.
    from yfrieze import io
    i, fields, detail = OUT_OF_RANGE_ORBIT_FIELDS[shape]
    obj = catalog_to_obj(io.coxeter_catalog(3))
    obj["patterns"][i].update(fields)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines() == _verify_report({i: _orbit_line(detail)}, 14)


def _glide_plus(step, i):
    def tamper(patterns):
        glide = patterns[i]["glide_shift"]
        patterns[i]["glide_shift"] = (glide + step) % 6
        return {i: f"glide_shift {(glide + step) % 6} is not {glide}"}
    return tamper


def _first_five(patterns):
    del patterns[5:]  # roots 0, 1, 2 and 4 keep 2 of 6, 1 of 3, 1 of 2 and 1 of 3
    return {0: _count_detail(6, 2), 1: _count_detail(3, 1), 2: _count_detail(2, 1),
            4: _count_detail(3, 1)}


def _entry_2_again(patterns):
    patterns.append({**patterns[2], "id": len(patterns)})
    return {14: ("distinct", _distinct_detail(2))}


# Width-3 Coxeter catalogs whose orbit fields each pass the per-entry checks
# but disagree with the rows or with the entries present; each tamper gives
# the details verify must name, by entry index: an orbit violation's, or a
# (check, detail) pair.
CATALOG_ORBIT_TAMPERS = {
    "root 0 glide + 1": _glide_plus(1, 0),
    "member 3 glide + 2": _glide_plus(2, 3),
    "first 5 entries": _first_five,
    "entry 2 appended as 14": _entry_2_again,
}


def _assert_tampered_report(tmp_path, capsys, tamper):
    """verify of the width-3 Coxeter catalog with `tamper` applied to its
    entries exits 1 and names exactly the details tamper returns."""
    from yfrieze import io
    obj = catalog_to_obj(io.coxeter_catalog(3))
    assert obj["patterns"][3]["orbit_root"] == 0
    details = tamper(obj["patterns"])
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines() == _verify_report(
        {i: _line(*detail) if type(detail) is tuple else _orbit_line(detail)
         for i, detail in details.items()}, len(obj["patterns"]))


@pytest.mark.parametrize("shape", sorted(CATALOG_ORBIT_TAMPERS))
def test_verify_checks_each_glide_and_each_roots_member_count(tmp_path, capsys, shape):
    # each tampered field is an int in range; only the glide the orbit size
    # gives, the count of each root's rotations, or a repeat, shows it
    _assert_tampered_report(tmp_path, capsys, CATALOG_ORBIT_TAMPERS[shape])


def _root_set(i, root):
    def tamper(patterns):
        patterns[i]["orbit_root"] = root
        return {i: f"orbit_root {root} is not 0"}
    return tamper


def _orbit_of_6_as_3(patterns):
    patterns[:] = [{**patterns[i], "id": j, "orbit_size": 3, "intrinsic_period": 3}
                   for j, i in enumerate((0, 3, 6))]
    return dict.fromkeys(range(3), "orbit_size 3 is not 6")


# Width-3 Coxeter catalogs whose orbit fields are ints in range that
# disagree with the entry's orbit: a member of root 0 that names another
# root, or a member, names an entry other than root 0, and three
# members of root 0's orbit of 6, relabelled as a whole orbit of 3, hold
# the period 6 of their rows.
ORBIT_ROOT_TAMPERS = {
    "member 3 names root 1": _root_set(3, 1),
    "member 6 names member 3": _root_set(6, 3),
    "entries 0, 3 and 6 as an orbit of 3": _orbit_of_6_as_3,
}


@pytest.mark.parametrize("shape", sorted(ORBIT_ROOT_TAMPERS))
def test_verify_checks_each_entry_against_the_orbit_it_rotates(tmp_path, capsys, shape):
    # every orbit field is compared with the tuple worked out from the
    # entry's orbit: the first entry in the file whose rows pass and are a
    # rotation of its rows, and that root's period
    _assert_tampered_report(tmp_path, capsys, ORBIT_ROOT_TAMPERS[shape])


def _root_0_renumbered_and_entry_3_again(patterns):
    assert patterns[3]["orbit_root"] == 0
    patterns[0]["id"] = 77  # root 0 fails, so its member count is not checked
    patterns.append({**patterns[3], "id": 14})
    return {0: ("id", "id 77 is not 0"), 14: ("distinct", _distinct_detail(0))}


def _orbit_of_2_again_under_14(patterns):
    assert [(p["orbit_root"], p["orbit_size"]) for p in (patterns[2], patterns[10])] == [(2, 2)] * 2
    patterns += [{**patterns[i], "id": j, "orbit_root": 14} for i, j in ((2, 14), (10, 15))]
    return dict.fromkeys((14, 15), ("distinct", _distinct_detail(2)))


def _root_again_naming_itself(patterns):
    assert len(patterns) == 1
    patterns.append({**patterns[0], "id": 1, "orbit_root": 1})
    return {1: ("distinct", _distinct_detail(0))}


# Catalogs with an entry repeated where no member count shows it, each of
# which verify passed before it held every entry to be distinct: (kind,
# width, tamper returning the (check, detail) verify must name, by entry index).
REPEATED_ENTRIES = {
    "coxeter 3, root 0 renumbered, entry 3 appended as 14": (
        "coxeter", 3, _root_0_renumbered_and_entry_3_again),
    "coxeter 3, root 2's orbit appended as 14 and 15 naming 14": (
        "coxeter", 3, _orbit_of_2_again_under_14),
    "y 1, entry 0 appended as 1 naming itself": ("y", 1, _root_again_naming_itself),
}


@pytest.mark.parametrize("shape", sorted(REPEATED_ENTRIES))
def test_verify_names_a_repeated_entry(tmp_path, capsys, shape):
    from yfrieze import io
    kind, width, tamper = REPEATED_ENTRIES[shape]
    obj = catalog_to_obj(io.coxeter_catalog(width) if kind == "coxeter" else io.y_catalog(width))
    details = tamper(obj["patterns"])
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines() == _verify_report(
        {i: _line(*detail) for i, detail in details.items()}, len(obj["patterns"]))


def _json_error(text: str) -> str:
    """The message json.loads gives for a malformed text."""
    with pytest.raises(json.JSONDecodeError) as excinfo:
        json.loads(text)
    return str(excinfo.value)


def test_reader_follows_json_load_on_key_order_duplicates_and_broken_files(
        coxeter3_catalog_file, tmp_path, capsys):
    from yfrieze import read
    text = coxeter3_catalog_file.read_text()
    obj = json.loads(text)
    expected = read.read_patterns(str(coxeter3_catalog_file), list)
    verified = run(capsys, "verify", str(coxeter3_catalog_file))
    assert verified[:2] == (0, "".join(f"pattern {i}: ok\n" for i in range(14))
                            + "14/14 patterns ok\n")
    path = tmp_path / "edited.json"

    # patterns before kind and width: read whole, with the same entries
    path.write_text(json.dumps({"patterns": obj["patterns"],
                                **{k: v for k, v in obj.items() if k != "patterns"}}))
    with open(path, encoding="utf-8") as fh, pytest.raises(read._Unstreamable):
        list(read._streamed(fh))
    assert read.read_patterns(str(path), list) == expected
    assert run(capsys, "verify", str(path)) == verified

    # a pattern document is one pattern, whatever other keys it holds
    path.write_text(json.dumps({"schema": "frieze/1", "kind": "coxeter", "width": 3,
                                "rows": obj["patterns"][0]["rows"], "patterns": obj["patterns"]}))
    assert read.read_patterns(str(path), list) == [(*expected[0][:3], None)]

    # a duplicate kind, before or after the patterns: the last one counts
    body = text.rstrip()[:-1]
    path.write_text(body.replace('"kind": "coxeter"', '"kind": "y", "kind": "coxeter"') + "}")
    assert run(capsys, "verify", str(path)) == verified
    path.write_text(body + ', "kind": "coxeter"}')
    assert run(capsys, "verify", str(path)) == verified
    path.write_text(body + ', "kind": "y"}')
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out.splitlines()[-1], err) == (1, "0/14 patterns ok", "")
    assert "pattern 0: shape violation at row 7, col -1" in out

    # trailing data, and a file cut off inside an entry: json's own error
    for broken in (text + "{}", text + "x", text[:len(text) // 2]):
        path.write_text(broken)
        message = f"error: cannot parse {path}: {_json_error(broken)}\n"
        assert run(capsys, "verify", str(path)) == (2, "", message)
        assert run(capsys, "render", str(path)) == (2, "", message)


def test_verify_memory_does_not_grow_with_the_entry_count(tmp_path, capsys):
    # verify keeps one entry's text and objects, a verdict per entry and its
    # table of passing columns; render --index 100 stops after entry 100.
    # A full collection before each run empties the free lists, so that the
    # traced peak does not depend on the tests run before.
    import gc
    import tracemalloc
    from yfrieze import io
    path = tmp_path / "cox8.json"
    with open(path, "w", encoding="utf-8") as fh:
        io.write_catalog_json(io.coxeter_catalog(8), fh)
    for argv, mib in ((("verify", str(path)), 1.6),
                      (("render", str(path), "--index", "100"), 0.5)):
        gc.collect()
        tracemalloc.start()
        try:
            code = main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0 and peak < mib * 1024 * 1024, (argv, peak)


def test_verify_memory_at_width_7_holds_one_table_row_per_orbit(tmp_path, capsys):
    # 1,430 entries in 150 rotation orbits: verify holds each root's columns
    # once, and no tuple that a free list strands.  A full collection first
    # empties the free lists, so that the traced peak does not depend on
    # the tests run before.
    import gc
    import tracemalloc
    from yfrieze import io
    path = tmp_path / "cox7.json"
    with open(path, "w", encoding="utf-8") as fh:
        io.write_catalog_json(io.coxeter_catalog(7), fh)
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["verify", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.endswith("\n1430/1430 patterns ok\n")
    assert code == 0 and peak < 0.6 * 1024 * 1024, peak


# --------------------------------------------------------------------- map

def test_map_width_3(capsys):
    code, out, _ = run(capsys, "map", "--width", "3")
    assert code == 0
    assert "verdict: surjective, not injective" in out
    assert sorted(line.split()[-1] for line in out.strip().splitlines()[1:5]) \
        == ["2:1", "3:3", "3:3", "6:3"]


def test_map_width_4(capsys):
    code, out, _ = run(capsys, "map", "--width", "4")
    assert code == 0
    assert "verdict: bijective" in out


def test_map_width_2_computed(capsys):
    code, out, _ = run(capsys, "map", "--width", "2")
    assert code == 0
    assert "verdict: bijective" in out
    assert "5:5" in out


@pytest.mark.parametrize("surjective, injective, verdict", [
    (True, True, "bijective"), (True, False, "surjective, not injective"),
    (False, True, "injective, not surjective"), (False, False, "neither surjective nor injective")])
def test_map_verdict_names_each_pair_of_flags(surjective, injective, verdict):
    # map is surjective at every width it accepts, so only a report built
    # by hand reaches the last two verdicts
    from yfrieze import cli, ymap
    report = ymap.FiberReport(3, (), 0, surjective, injective, ())
    assert cli._verdict(report) == verdict


def test_map_json_format(capsys):
    code, out, _ = run(capsys, "map", "--width", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["image_size"] == 10
    assert payload["surjective"] is True
    assert payload["injective"] is False


def test_map_unsupported_widths(capsys):
    code, _, err = run(capsys, "map", "--width", "1")
    assert code == 3
    code, _, err = run(capsys, "map", "--width", "7")
    assert code == 3


@pytest.mark.parametrize("width", ["0", "-1"])
def test_map_rejects_width_below_one(capsys, width):
    code, out, err = run(capsys, "map", "--width", width)
    assert code == 2 and out == ""
    assert "width must be >= 1" in err and err.count("\n") == 1


@pytest.mark.parametrize("value,expected", [("abc", 2), ("5", 3)])
def test_map_checks_the_candidate_ceiling(capsys, monkeypatch, value, expected):
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", value)
    code, out, err = run(capsys, "map", "--width", "2")
    assert code == expected and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_map_plans_the_y_search_before_it_builds_either_side(capsys, monkeypatch):
    # width 2's (30, 30) box is over a ceiling of 5: map exits 3 without
    # generating the Coxeter friezes first
    from yfrieze import coxeter

    def no_generation(n):
        raise AssertionError("the Coxeter side was built before the Y search was planned")

    monkeypatch.setattr(coxeter, "enumerate_frieze", no_generation)
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", "5")
    code, out, err = run(capsys, "map", "--width", "2")
    assert (code, out, err) == (3, "", "error: box volume 900 exceeds ceiling 5\n")


def test_map_enumerates_each_side_once(capsys, monkeypatch):
    from yfrieze import coxeter, search
    calls = []

    def count_calls(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    count_calls(coxeter, "enumerate_frieze")
    count_calls(search, "y_solutions")
    code, _, _ = run(capsys, "map", "--width", "4")
    assert code == 0
    assert sorted(calls) == ["enumerate_frieze", "y_solutions"]


def test_map_decomposes_orbits_once(capsys, monkeypatch):
    # not even once: both catalogs take their orbits from generation, and
    # fiber_analysis reads the orbit tables the catalogs hold
    from yfrieze import ymap
    sizes = []
    orbit_decomposition = ymap.orbit_decomposition

    def counting_orbit_decomposition(patterns):
        sizes.append(len(patterns))
        return orbit_decomposition(patterns)

    monkeypatch.setattr(ymap, "orbit_decomposition", counting_orbit_decomposition)
    code, _, _ = run(capsys, "map", "--width", "4")
    assert code == 0
    assert sizes == []


def test_csv_table_and_map_build_no_entry_and_no_domain(capsys, monkeypatch):
    # csv and table read each key off its orbit's root, and map each
    # image's first row off its frieze orbit root's image, so they rotate no
    # pattern, and no fundamental domain is built
    from yfrieze import core
    built = []
    new = FundamentalDomain.__new__
    rotated = core._rotated

    def counting_domain(cls, *args):
        built.append(cls.__name__)
        return new(cls, *args)

    def counting_rotated(*args):
        built.append("_rotated")
        return rotated(*args)

    monkeypatch.setattr(FundamentalDomain, "__new__", counting_domain)
    monkeypatch.setattr(core, "_rotated", counting_rotated)
    for kind in ("coxeter", "y"):
        for fmt in ("csv", "table"):
            code, _, _ = run(capsys, "enumerate", "--kind", kind, "--width", "4", "--format", fmt)
            assert code == 0
    assert built == []
    for width in ("3", "4"):
        code, _, _ = run(capsys, "map", "--width", width)
        assert code == 0
    assert built == []


def test_no_output_searches_for_a_glide(capsys, monkeypatch, tmp_path):
    # an entry's glide_shift is a theorem of its kind and orbit size, so
    # neither the JSON writer nor verify, nor any other output, searches
    from yfrieze import core
    calls = []
    glide_shift_of_rows = core.glide_shift_of_rows

    def counting_glide_shift_of_rows(*args):
        calls.append(args)
        return glide_shift_of_rows(*args)

    monkeypatch.setattr(core, "glide_shift_of_rows", counting_glide_shift_of_rows)
    path = tmp_path / "catalog.json"
    runs = [("enumerate", "--kind", kind, "--width", width, "--format", fmt)
            for kind, width in (("coxeter", "7"), ("y", "4")) for fmt in ("csv", "table")]
    runs += [("orbits", "--kind", "coxeter", "--width", "7"), ("map", "--width", "4"),
             ("enumerate", "--kind", "coxeter", "--width", "7", "--format", "json",
              "--output", str(path)), ("verify", str(path))]
    for argv in runs:
        code, _, _ = run(capsys, *argv)
        assert (argv, code, len(calls)) == (argv, 0, 0)


def test_map_applies_the_transfer_map_once_per_frieze_orbit(capsys, monkeypatch):
    # 42 width-4 friezes in 6 rotation orbits; the map commutes with
    # rotation, so fiber_analysis builds 6 images, one per orbit root, and
    # reads each member's image off its root's.
    from yfrieze import ymap
    calls = []
    apply_p = ymap.apply_p

    def counting_apply_p(*args):
        calls.append(args)
        return apply_p(*args)

    monkeypatch.setattr(ymap, "apply_p", counting_apply_p)
    code, _, _ = run(capsys, "map", "--width", "4")
    assert code == 0
    assert len(calls) == 6
    # 14 width-3 friezes in 4 rotation orbits
    calls.clear()
    code, _, _ = run(capsys, "map", "--width", "3")
    assert code == 0
    assert len(calls) == 4


# sha256 of the map output, recorded before map built its sides through
# the catalog front.
MAP_DIGESTS = {
    (2, "table"): "7f0fe24479d6e7ce3f268c695406cb2df6fa9d568d99de508b638a675d80f893",
    (2, "json"): "00e91f65cfb2f6e2d726c9690d10d6d529e60b1f6fe5b4d71ec27029a32d8aa7",
    (2, "csv"): "9a94d2f77612bbab38c1a6b292b4a1877e0e6a39820a539af45e4b80346c26a3",
    (3, "table"): "9344cc720c54b41f38a6ace5e434ae7d0adecca5dd11c35b197e187fc34e48f4",
    (3, "json"): "5ca230aee9aad3a9ded7215feb81df6efe1a98592a1d134fb2f25f21b38e1b64",
    (3, "csv"): "95322ac26052e6852d0ca3655e5a89ffbd77ad94829a4405fc219a81e92b4bc8",
    (4, "table"): "7ef5d76d95338067b5c816a5c257469fee383217b751896ae53b5f14d85fff73",
    (4, "json"): "4198a248791d7501f916f4ae5d607fb025a12364b06f9a51440c977352e5d593",
    (4, "csv"): "3167151b255d55bd3fc8ed4bd48871f880069a30e139dee4086c909928e1f7e6",
}


@pytest.mark.parametrize("width,fmt", sorted(MAP_DIGESTS))
def test_map_output_digest(capsys, width, fmt):
    code, out, _ = run(capsys, "map", "--width", str(width), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MAP_DIGESTS[width, fmt]


def test_a_wide_y_catalog_numbers_its_columns(capsys):
    # Width 6 has 27 entry columns, more than there are letters, so they are
    # named v00 ... v26.  No pattern has an all-ones diagonal: the header is
    # the whole output.
    header = ("v00,v01,v02,v03,v04,v05,v06,v07,v08,v09,v10,v11,v12,v13,"
              "v14,v15,v16,v17,v18,v19,v20,v21,v22,v23,v24,v25,v26\n")
    for fmt, text in (("csv", header), ("table", header.replace(",", "  "))):
        assert run(capsys, "enumerate", "--kind", "y", "--width", "6",
                   "--bounds", "1,1,1,1,1,1", "--format", fmt) == (0, text, "")


# ------------------------------------------------------------------ orbits

def test_orbits_coxeter_3(capsys):
    code, out, _ = run(capsys, "orbits", "--kind", "coxeter", "--width", "3")
    assert code == 0
    sizes = [int(line.split()[1]) for line in out.strip().splitlines()[1:]]
    assert sizes == [6, 3, 3, 2]


def test_orbits_usage_errors(capsys):
    code, _, err = run(capsys, "orbits", "--kind", "y", "--width", "3", "--bounds", "3,3")
    assert code == 2 and "--bounds needs 3 values" in err
    code, _, _ = run(capsys, "orbits", "--kind", "coxeter", "--width", "3",
                     "--bounds", "4,18,11")
    assert code == 2


# orbits' csv output, byte for byte
ORBITS_CSV = {
    ("coxeter", 4): "root,size,members\n0,7,0;9;17;22;27;28;41\n1,7,1;3;21;23;26;37;40\n"
                    "2,7,2;6;7;24;29;31;38\n4,7,4;12;15;19;25;35;39\n"
                    "5,7,5;8;10;16;30;32;34\n11,7,11;13;14;18;20;33;36\n",
    ("y", 3): "root,size,members\n0,3,0;5;8\n1,3,1;6;7\n2,3,2;3;9\n4,1,4\n",
}


@pytest.mark.parametrize("kind,width", sorted(ORBITS_CSV))
def test_orbits_csv(capsys, kind, width):
    assert run(capsys, "orbits", "--kind", kind, "--width", str(width),
               "--format", "csv") == (0, ORBITS_CSV[kind, width], "")


@pytest.mark.parametrize("kind,width",
                         [("y", 3), ("y", 4), *(("coxeter", w) for w in range(1, 6))])
def test_orbits_json_matches_orbit_decomposition(capsys, kind, width):
    code, out, _ = run(capsys, "orbits", "--kind", kind, "--width", str(width),
                       "--format", "json")
    assert code == 0
    if kind == "y":
        patterns = yf.y_solutions(width)
    else:
        patterns = yf.enumerate_frieze(width)
    orbits = yf.orbit_decomposition(patterns)
    assert json.loads(out)["orbits"] == [
        {"root": orbit[0], "size": len(orbit), "members": orbit} for orbit in orbits]


def test_orbits_y3_json(capsys):
    code, out, _ = run(capsys, "orbits", "--kind", "y", "--width", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [o["size"] for o in payload["orbits"]] == [3, 3, 3, 1]


# ------------------------------------------------------------------ render

def test_render_catalog_entry(coxeter3_catalog_file, capsys):
    code, out, _ = run(capsys, "render", str(coxeter3_catalog_file), "--index", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[1].split() == ["1"] * 12


def test_render_rejects_tampered_entry(coxeter3_catalog_file, tmp_path, capsys):
    obj = json.loads(coxeter3_catalog_file.read_text())
    obj["patterns"][0]["rows"][2][0] = 6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(capsys, "render", str(bad)) == (
        2, "", f"error: {bad} holds an invalid pattern: "
               "diamond violation at row 2, col 0: W*E - N*S = 3, expected 1\n")


@pytest.fixture()
def huge_cells_file(coxeter3_catalog_file, tmp_path):
    # cells of 2,501 digits parse, but their product is too long for str
    obj = json.loads(coxeter3_catalog_file.read_text())
    obj["patterns"][0]["rows"][2][:2] = [10 ** 2500] * 2
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    return path


def test_render_of_a_product_too_long_for_str_fails_in_one_line(huge_cells_file, capsys):
    code, out, err = run(capsys, "render", str(huge_cells_file))
    assert code == 2 and out == ""
    assert "diamond violation at row 2, col 0" in err and err.count("\n") == 1


def test_verify_of_a_product_too_long_for_str_names_the_entry(huge_cells_file, capsys):
    code, out, err = run(capsys, "verify", str(huge_cells_file))
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("pattern 0: diamond violation at row 2, col 0: W*E - N*S = <int of ")
    # entry 3 is the first rotation of root 0 that passes, so it heads the
    # orbit, and each of root 0's five members names another root
    assert [line for line in lines[1:-1] if not line.endswith(": ok")] == [
        f"pattern {i}: {_orbit_line('orbit_root 0 is not 3')}" for i in (3, 6, 8, 9, 13)]
    assert lines[-1] == "8/14 patterns ok"


def test_render_index_builds_the_drawn_entry_only(coxeter3_catalog_file, tmp_path,
                                                  capsys, monkeypatch):
    from yfrieze import core, io
    obj = json.loads(coxeter3_catalog_file.read_text())
    obj["patterns"][0]["rows"][2][0] = 6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "render", str(bad), "--index", "0")
    assert code == 2 and out == ""
    assert "diamond violation" in err and err.count("\n") == 1

    entry = catalog_from_json(coxeter3_catalog_file.read_text()).entries[1]
    calls = []
    check_rows = core.check_rows

    def counting_check_rows(*args):
        calls.append(args)
        return check_rows(*args)

    monkeypatch.setattr(core, "check_rows", counting_check_rows)
    code, out, err = run(capsys, "render", str(bad), "--index", "1")
    assert code == 0 and err == ""
    assert out == io.render_ascii(entry.pattern)
    assert len(calls) == 1


def test_render_index_stops_decoding_after_the_drawn_entry(coxeter3_catalog_file, tmp_path,
                                                           capsys):
    # render --index 0 never reads entry 1; the whole-file commands still fail on it
    obj = json.loads(coxeter3_catalog_file.read_text())
    del obj["patterns"][1]["rows"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj, indent=2))
    code, out, err = run(capsys, "render", str(bad), "--index", "0")
    assert (code, err) == (0, "") and out.splitlines()[1].split() == ["1"] * 12
    message = f"error: cannot parse {bad}: catalog entry 1 lacks rows\n"
    for argv in (("render", str(bad)), ("verify", str(bad)), ("render", str(bad), "--index", "5")):
        assert run(capsys, *argv) == (2, "", message)


def test_render_index_out_of_range(coxeter3_catalog_file, capsys):
    assert run(capsys, "render", str(coxeter3_catalog_file), "--index", "99") == (
        2, "", "error: index 99 out of range (0..13)\n")


def test_render_rejects_a_negative_index_before_any_read(coxeter3_catalog_file, tmp_path,
                                                        capsys):
    # a missing file is never opened, so no entry of a real one is decoded
    for path in (coxeter3_catalog_file, tmp_path / "missing.json"):
        assert run(capsys, "render", str(path), "--index", "-1") == (
            2, "", "error: --index must be >= 0, got -1\n")


def test_render_index_on_a_catalog_without_patterns(tmp_path, capsys):
    from yfrieze import io
    empty = tmp_path / "empty.json"
    empty.write_text(io.catalog_to_json(io.y_catalog(3, bounds=(1, 1, 1))))
    assert run(capsys, "render", str(empty), "--index", "0") == (
        2, "", f"error: {empty} holds no patterns\n")


def test_verify_of_a_catalog_without_patterns_fails(tmp_path, capsys):
    # an empty file is no verified catalog: a width-3 catalog holds 14 friezes
    from yfrieze import io
    empty = tmp_path / "empty.json"
    empty.write_text(io.catalog_to_json(io.y_catalog(3, bounds=(1, 1, 1))))
    assert run(capsys, "verify", str(empty)) == (1, "", f"error: {empty} holds no patterns\n")


def test_render_of_a_catalog_without_patterns_is_a_usage_error(tmp_path, capsys):
    from yfrieze import io
    empty = tmp_path / "empty.json"
    empty.write_text(io.catalog_to_json(io.y_catalog(3, bounds=(1, 1, 1))))
    assert run(capsys, "render", str(empty)) == (2, "", f"error: {empty} holds no patterns\n")


def test_render_missing_file(capsys):
    code, _, _ = run(capsys, "render", "/nonexistent/path.json")
    assert code == 2


@pytest.mark.parametrize("fmt,unbuffered", [("json", "1"), ("json", ""), ("csv", "1"),
                                             ("csv", ""), ("verify", "1"), ("verify", "")])
def test_stdout_closed_by_its_reader_is_one_write_error(fmt, unbuffered, tmp_path):
    # the reader takes a few bytes of the 11 MB catalog, or of verify's 82 kB
    # report on it (more than a pipe holds), and leaves, as `| head` does
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(yf.__file__)),
               PYTHONUNBUFFERED=unbuffered)
    argv = ["enumerate", "--kind", "coxeter", "--width", "8", "--format", fmt]
    if fmt == "verify":
        from yfrieze import io
        argv = ["verify", str(tmp_path / "cox8.json")]
        with open(argv[1], "w", encoding="utf-8") as fh:
            io.write_catalog_json(io.coxeter_catalog(8), fh)
    with subprocess.Popen([sys.executable, "-m", "yfrieze.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def _modules_after(code, argv=()):
    """Run `code` in a fresh interpreter; return its stdout and the sorted
    names in sys.modules after it, which the child lists with no import of
    its own, one name per line of its stderr after a marker line."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(yf.__file__)))
    code = ("import sys\n" + code
            + "print('-- modules', *sorted(sys.modules), sep='\\n', file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                          capture_output=True)
    return proc.stdout, proc.stderr.decode().split("-- modules\n")[-1].split()


def _loaded_modules(argv=None):
    """Run `main(argv)` in a fresh interpreter, or only `import yfrieze.cli`
    when argv is None; return its stdout and the sorted names in sys.modules."""
    call = "" if argv is None else "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
    return _modules_after("from yfrieze.cli import main\n" + call, argv or ())


def _in_packages(modules, *packages):
    return [m for m in modules if m.split(".")[0] in packages]


def test_cli_import_leaves_the_process_pool_unloaded():
    # The search forks its workers itself; nothing imports concurrent.futures.
    assert "concurrent.futures" not in _loaded_modules()[1]


@pytest.mark.parametrize("argv", [("verify", "F"), ("render", "F", "--index", "0"), ("--help",)])
def test_reader_commands_load_only_the_reader_modules(coxeter3_catalog_file, argv):
    # verify, render and --help need neither the searches nor the transfer
    # map; only verify runs verify's checks, and --help reads no file.
    readers = {"verify": ["yfrieze.read", "yfrieze.verify"], "render": ["yfrieze.read"]}
    modules = readers.get(argv[0], [])
    argv = [str(coxeter3_catalog_file) if arg == "F" else arg for arg in argv]
    assert _in_packages(_loaded_modules(argv)[1], "yfrieze") == [
        "yfrieze", "yfrieze.cli", "yfrieze.core", "yfrieze.io", *modules]


def test_width_4_y_enumeration_loads_only_the_search_modules():
    # No Coxeter, closed-form or transfer-map code, and no process pool, at
    # any --parallelism.
    out, modules = _loaded_modules(["enumerate", "--kind", "y", "--width", "4",
                                    "--format", "csv", "--parallelism", "2"])
    assert _in_packages(modules, "yfrieze", "concurrent", "multiprocessing") == [
        "yfrieze", "yfrieze.cli", "yfrieze.core", "yfrieze.io", "yfrieze.search"]
    assert_same_text(out, (Path(__file__).parent / "data" / "w4_golden.csv").read_bytes())


def test_coxeter_enumeration_loads_neither_the_transfer_map_nor_string():
    # nor the search: core holds the candidate ceiling that every catalog command checks.
    out, modules = _loaded_modules(["enumerate", "--kind", "coxeter", "--width", "4",
                                    "--format", "csv"])
    assert _in_packages(modules, "yfrieze", "string") == [
        "yfrieze", "yfrieze.cli", "yfrieze.core", "yfrieze.coxeter", "yfrieze.io"]
    assert out.decode().splitlines()[1:] == [
        ",".join(map(str, f.rows[2])) for f in yf.enumerate_frieze(4)]


def test_coxeter_json_enumeration_loads_only_the_catalog_modules():
    from yfrieze import io
    out, modules = _loaded_modules(["enumerate", "--kind", "coxeter", "--width", "4",
                                    "--format", "json"])
    assert _in_packages(modules, "yfrieze") == [
        "yfrieze", "yfrieze.cli", "yfrieze.core", "yfrieze.coxeter", "yfrieze.io"]
    assert_same_text(out.decode(), io.catalog_to_json(io.coxeter_catalog(4)))


@pytest.mark.parametrize("argv", [
    ("map", "--width", "3", "--format", "json"),
    ("orbits", "--kind", "coxeter", "--width", "4", "--format", "csv"),
], ids=["map", "orbits"])
def test_map_and_orbits_load_neither_the_reader_nor_the_checks(argv):
    # the streamed reader and verify's checks are compiled only where they
    # run; the enumerate tests above pin their whole module lists
    out, modules = _loaded_modules(argv)
    assert out and not {"yfrieze.read", "yfrieze.verify"} & set(modules)


@pytest.mark.parametrize("argv", [
    ("enumerate", "--kind", "y", "--width", "4", "--format", "json"),
    ("enumerate", "--kind", "y", "--width", "3", "--format", "csv"),
    ("enumerate", "--kind", "coxeter", "--width", "5", "--format", "json"),
    ("enumerate", "--kind", "coxeter", "--width", "4", "--format", "table"),
    ("orbits", "--kind", "y", "--width", "3"),
    ("orbits", "--kind", "coxeter", "--width", "4", "--format", "json"),
    ("map", "--width", "4"),
    ("verify", "F"),
    ("render", "F"),
    ("render", "F", "--index", "3"),
    ("--help",),
], ids=["enumerate-y-json", "enumerate-y-csv", "enumerate-coxeter-json",
        "enumerate-coxeter-table", "orbits-y", "orbits-coxeter", "map", "verify", "render",
        "render-index", "help"])
def test_no_command_on_integer_data_loads_fractions(coxeter3_catalog_file, argv):
    # fractions, with the decimal and numbers modules it imports, is loaded
    # only when a value that is not an int turns up
    argv = [str(coxeter3_catalog_file) if arg == "F" else arg for arg in argv]
    assert _in_packages(_loaded_modules(argv)[1], "fractions", "decimal", "numbers") == []


@pytest.mark.parametrize("command", ["verify", "render"])
def test_reader_commands_load_fractions_for_a_rational_pattern(tmp_path, capsys, command):
    # a fresh interpreter reads the "p/q" cells as in this one, where
    # fractions is loaded already
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(pattern_to_obj(expand_domain(w3_domain((1, 1, 1))))))
    code, expected, _ = run(capsys, command, str(path))
    assert code == (1 if command == "verify" else 0) and "7/2" in expected
    out, modules = _loaded_modules([command, str(path)])
    assert out.decode() == expected
    assert "fractions" in modules


@pytest.mark.parametrize("argv", [
    ("enumerate", "--kind", "y", "--width", "4", "--format", "json"),
    ("enumerate", "--kind", "coxeter", "--width", "4", "--format", "json"),
    ("orbits", "--kind", "y", "--width", "3"),
    ("map", "--width", "4"),
    ("verify", "F"),
    ("render", "F", "--index", "0"),
    ("--help",),
], ids=["enumerate-y", "enumerate-coxeter", "orbits", "map", "verify", "render", "help"])
def test_no_command_loads_dataclasses_or_inspect(coxeter3_catalog_file, argv):
    # Importing dataclasses pulls in inspect, ast, dis and tokenize: about
    # 10 ms of start-up that no command needs.
    argv = [str(coxeter3_catalog_file) if arg == "F" else arg for arg in argv]
    assert _in_packages(_loaded_modules(argv)[1], "dataclasses", "inspect") == []


@pytest.mark.parametrize("argv", [
    ("enumerate", "--kind", "y", "--width", "4", "--format", "csv", "--parallelism", "1"),
    ("enumerate", "--kind", "y", "--width", "4", "--format", "csv", "--parallelism", "2"),
    ("enumerate", "--kind", "y", "--width", "3"),
    ("map", "--width", "4"),
    ("map", "--width", "4", "--format", "csv"),
    ("orbits", "--kind", "y", "--width", "3"),
    ("orbits", "--kind", "coxeter", "--width", "4", "--format", "csv"),
    ("--help",),
], ids=["enumerate-y-csv-1", "enumerate-y-csv-2", "enumerate-y-table", "map-table", "map-csv",
        "orbits-table", "orbits-csv", "help"])
def test_commands_without_json_load_no_json(argv):
    # only the JSON readers and writers import json
    out, modules = _loaded_modules(argv)
    assert out and _in_packages(modules, "json") == []


def test_json_output_loads_json():
    # the negative control of the test above: the child's listing sees json
    _, modules = _loaded_modules(["orbits", "--kind", "y", "--width", "3", "--format", "json"])
    assert "json" in modules


@pytest.mark.parametrize("code, expected", [
    ("import yfrieze.closedform\n", b""),
    ("from yfrieze import closedform, search\n"
     "print(len(search.enumerate_generic(4, closedform.SearchBox((41, 40, 40, 41)))))\n",
     b"42\n"),
], ids=["import-closedform", "generic-search"])
def test_closedform_and_the_generic_search_load_no_fractions(code, expected):
    # closedform imports fractions only to build its entries as Fractions
    out, modules = _modules_after(code)
    assert out == expected and "yfrieze.closedform" in modules
    assert _in_packages(modules, "fractions", "decimal", "numbers") == []


def test_closedform_re_exports_the_search_boxes():
    from yfrieze import closedform, search
    assert closedform.SearchBox is search.SearchBox is yf.SearchBox
    assert closedform.w3_boxes is search.w3_boxes and closedform.w4_boxes is search.w4_boxes


def test_every_public_name_resolves_on_first_access():
    for name in yf.__all__:
        namespace = {}
        exec(f"from yfrieze import {name}", namespace)
        assert namespace[name] is getattr(yf, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        yf.no_such_name
    with pytest.raises(ImportError):
        exec("from yfrieze import no_such_name", {})


def test_a_resolved_public_name_is_stored_in_the_package(monkeypatch):
    import importlib
    monkeypatch.delitem(vars(yf), "w4_inequalities", raising=False)
    calls = []
    import_module = importlib.import_module

    def counting_import_module(*args, **kwargs):
        calls.append(args)
        return import_module(*args, **kwargs)

    monkeypatch.setattr(importlib, "import_module", counting_import_module)
    first = yf.w4_inequalities
    assert vars(yf)["w4_inequalities"] is first
    assert len(calls) == 1
    assert yf.w4_inequalities is first
    assert len(calls) == 1


def test_a_submodule_name_resolves_to_the_submodule():
    assert yf.__getattr__("ymap") is sys.modules["yfrieze.ymap"]


def test_package_import_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(yf.__file__)))
    code = "import sys, yfrieze\nprint(sorted(m for m in sys.modules if 'yfrieze' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "['yfrieze']\n"


# ----------------------------------------------------------------- README

def _readme_block(language, heading):
    """The first fenced `language` block after `heading` in README.md."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    start = text.index(f"```{language}\n", text.index(heading)) + len(language) + 4
    return text[start:text.index("```", start)]


def test_readme_python_block_runs():
    exec(_readme_block("python", "## Library"), {})


def test_readme_cli_block_runs(capsys, monkeypatch, tmp_path):
    # each line in order, in one directory (verify and render read the file
    # an earlier line wrote), with the environment the line sets
    monkeypatch.chdir(tmp_path)
    lines = _readme_block("sh", "## CLI").replace("\\\n", " ").splitlines()
    assert len(lines) == 8
    for line in lines:
        words = shlex.split(line, comments=True)
        with monkeypatch.context() as env:
            while "=" in words[0]:
                env.setenv(*words.pop(0).split("=", 1))
            assert words[0] == "yfrieze"
            code, _, err = run(capsys, *words[1:])
            assert (code, err) == (0, ""), words
