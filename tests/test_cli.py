"""CLI subcommands, exit codes and output determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import yfrieze as yf
from yfrieze.cli import main


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
    assert files[0].read_bytes() == files[2].read_bytes()
    assert files[1].read_bytes() == files[3].read_bytes()


def test_bounded_width_5_csv_is_the_same_at_any_parallelism(monkeypatch, capsys):
    monkeypatch.setenv("FRIEZE_MAX_CANDIDATES", str(64 ** 5))
    outs = []
    for parallelism in ("1", "2"):
        code, out, err = run(capsys, "enumerate", "--kind", "y", "--width", "5", "--bounds",
                             "64,64,64,64,64", "--format", "csv", "--parallelism", parallelism)
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 121  # header + 120 patterns
    assert hashlib.sha256(outs[0].encode()).hexdigest() == (
        "8bdcbcc8c60410573ac0e1f38acddc7ebfd89036b53677d68a33d2e959d5fbfa")


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


def test_verify_rejects_tampered_entry(coxeter3_catalog_file, tmp_path, capsys):
    obj = json.loads(coxeter3_catalog_file.read_text())
    assert obj["patterns"][0]["rows"][2][0] != 6
    obj["patterns"][0]["rows"][2][0] = 6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "diamond violation at row" in out


def test_verify_checks_each_pattern_once(coxeter3_catalog_file, capsys, monkeypatch):
    from yfrieze import cli, core
    calls = []
    check_rows = core.check_rows

    def counting_check_rows(*args):
        calls.append(args)
        return check_rows(*args)

    monkeypatch.setattr(cli, "check_rows", counting_check_rows)
    monkeypatch.setattr(core, "check_rows", counting_check_rows)
    code, _, _ = run(capsys, "verify", str(coxeter3_catalog_file))
    assert code == 0
    assert len(calls) == 14


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
    # verify and render read the rows only, so a malformed key such as
    # "quiddity": 5 is caught by io.catalog_from_json alone (see test_io).
    from yfrieze import io
    (*parents, last), value, message = MALFORMED_CATALOGS[shape]
    obj = io.catalog_to_obj(io.coxeter_catalog(2))
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


def test_verify_single_pattern_object(tmp_path, capsys):
    from yfrieze import io
    pattern = yf.expand_domain(yf.w3_domain((3, 8, 3)))
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(io.pattern_to_obj(pattern)))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "1/1 patterns ok" in out


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("container", ["catalog", "pattern"])
def test_boolean_width_is_a_parse_error(tmp_path, capsys, command, container):
    # JSON true loads as a bool, which is an int subclass equal to 1
    from yfrieze import io
    if container == "catalog":
        obj = io.catalog_to_obj(io.coxeter_catalog(1))
    else:
        obj = io.pattern_to_obj(yf.enumerate_frieze(1)[0])
    obj["width"] = True
    path = tmp_path / "bool-width.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert "width must be an int" in err and err.count("\n") == 1


def test_verify_flags_nonarithmetic_pattern(tmp_path, capsys):
    from yfrieze import io
    pattern = yf.expand_domain(yf.w3_domain((1, 1, 1)))
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(io.pattern_to_obj(pattern)))
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
    obj = io.catalog_to_obj(catalog)
    rows = [entry["rows"] for entry in obj["patterns"]]
    rows[0].pop()
    rows[1][0][3] = 1
    rows[2][2] = [0 if kind == "y" else 1] * 7
    rows[3][3][2] += 1
    obj["patterns"][4]["rows"] = io.pattern_to_obj(rational)["rows"]
    rows[5][2][1] = "1/2"
    return obj


# sha256 and exit code of verify's report on tampered_width4_catalog,
# recorded while verify still printed the report line by line.
VERIFY_DIGESTS = {
    "coxeter": ("206772e27275963ce1e4e88edded556fb86dc8565d06f01a42065b034980af30", 1),
    "y": ("3411175f910837ef5dd14cc70a563d3ddcac13a809a5bbc6e4983df31d761121", 1),
}


@pytest.mark.parametrize("kind", sorted(VERIFY_DIGESTS))
def test_verify_report_is_pinned(tmp_path, capsys, kind):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered_width4_catalog(kind)))
    code, out, err = run(capsys, "verify", str(path))
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), code) == VERIFY_DIGESTS[kind]
    assert err == ""


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


@pytest.mark.parametrize("kind,width",
                         [("y", 3), ("y", 4), *(("coxeter", w) for w in range(1, 6))])
def test_orbits_json_matches_orbit_decomposition(capsys, kind, width):
    code, out, _ = run(capsys, "orbits", "--kind", kind, "--width", str(width),
                       "--format", "json")
    assert code == 0
    if kind == "y":
        patterns = yf.patterns_of(yf.y_solutions(width))
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
    code, out, err = run(capsys, "render", str(bad))
    assert code == 2 and out == ""
    assert "diamond violation" in err and err.count("\n") == 1


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

    entry = io.catalog_from_json(coxeter3_catalog_file.read_text()).entries[1]
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


def test_render_index_out_of_range(coxeter3_catalog_file, capsys):
    code, _, err = run(capsys, "render", str(coxeter3_catalog_file),
                       "--index", "99")
    assert code == 2


def test_render_missing_file(capsys):
    code, _, _ = run(capsys, "render", "/nonexistent/path.json")
    assert code == 2


def _loaded_modules(argv=None):
    """Run `main(argv)` in a fresh interpreter, or only `import yfrieze.cli`
    when argv is None; return its stdout and the sorted names in sys.modules."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(yf.__file__)))
    call = "" if argv is None else "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
    code = ("import json, sys\nfrom yfrieze.cli import main\n" + call
            + "print(json.dumps(sorted(sys.modules)), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, *(argv or ())], env=env, check=True,
                          capture_output=True)
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def _in_packages(modules, *packages):
    return [m for m in modules if m.split(".")[0] in packages]


def test_cli_import_leaves_the_process_pool_unloaded():
    # The search forks its workers itself; nothing imports concurrent.futures.
    assert "concurrent.futures" not in _loaded_modules()[1]


@pytest.mark.parametrize("argv", [("verify", "F"), ("render", "F", "--index", "0"), ("--help",)])
def test_reader_commands_load_only_the_reader_modules(coxeter3_catalog_file, argv):
    # verify, render and --help need neither the searches nor the transfer map.
    argv = [str(coxeter3_catalog_file) if arg == "F" else arg for arg in argv]
    assert _in_packages(_loaded_modules(argv)[1], "yfrieze") == [
        "yfrieze", "yfrieze.cli", "yfrieze.core", "yfrieze.io"]


def test_width_4_y_enumeration_loads_only_the_search_modules():
    # No Coxeter or closed-form code, and no process pool, at any --parallelism.
    out, modules = _loaded_modules(["enumerate", "--kind", "y", "--width", "4",
                                    "--format", "csv", "--parallelism", "2"])
    assert _in_packages(modules, "yfrieze", "concurrent", "multiprocessing") == [
        "yfrieze", "yfrieze.cli", "yfrieze.core", "yfrieze.io", "yfrieze.search", "yfrieze.ymap"]
    assert out == (Path(__file__).parent / "data" / "w4_golden.csv").read_bytes()


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
