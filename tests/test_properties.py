"""Property tests at the IO and CLI boundary: any JSON file handed to
`verify` or `render`, and any argv drawn from a small grammar, ends in a
documented exit code, never a traceback."""

import copy
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

import yfrieze as yf
from yfrieze import io
from yfrieze.cli import main

# Real patterns to mutate, so that valid and nearly valid files are drawn too.
BASES = [(p.kind.value, p.width, io.pattern_to_obj(p)["rows"])
         for p in (*yf.enumerate_frieze(1), *yf.enumerate_frieze(3),
                   *yf.patterns_of(yf.enumerate_w3()),
                   yf.expand_domain(yf.w3_domain((1, 1, 1))))]

VALUES = st.one_of(st.integers(-2, 12), st.booleans(), st.none(),
                   st.sampled_from(["1/2", "-7/2", "3/1", "2.0", "2", "1/0", "x", ""]))


@st.composite
def blobs(draw):
    if draw(st.integers(0, 4)) == 4:
        return draw(st.one_of(VALUES, st.lists(VALUES, max_size=3)))
    kind, width, rows = draw(st.sampled_from(BASES))
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        m = draw(st.integers(0, len(rows) - 1))
        action = draw(st.sampled_from(["set", "drop", "append", "drop-row"]))
        if action == "set" and rows[m]:
            rows[m][draw(st.integers(0, len(rows[m]) - 1))] = draw(VALUES)
        elif action == "drop" and rows[m]:
            rows[m].pop()
        elif action == "append":
            rows[m].append(draw(VALUES))
        elif action == "drop-row" and len(rows) > 1:
            rows.pop(m)
    kind = draw(st.sampled_from([kind, "y", "coxeter", "z"]))
    width = draw(st.sampled_from([width, width + 1, 0, -1, True, "3"]))
    if draw(st.booleans()):
        return {"schema": "frieze/1", "kind": kind, "width": width, "rows": rows}
    return {"schema": "frieze-catalog/1", "kind": kind, "width": width,
            "parameters": {}, "patterns": [{"rows": rows}]}


@pytest.fixture(scope="module")
def blob_path(tmp_path_factory):
    return tmp_path_factory.mktemp("blobs") / "blob.json"


@settings(max_examples=150, deadline=None)
@given(blob=blobs())
def test_verify_and_render_exit_with_documented_codes(blob_path, blob):
    blob_path.write_text(json.dumps(blob))
    for command in ("verify", "render"):
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main([command, str(blob_path)])
        assert code in {0, 1, 2, 3}


# Decoded JSON of real catalogs, one per kind, for tampered_catalogs to edit.
CATALOGS = [io.catalog_to_obj(io.coxeter_catalog(2)), io.catalog_to_obj(io.y_catalog(3))]

JSON_VALUES = st.recursive(
    st.one_of(VALUES, st.integers(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


@st.composite
def tampered_catalogs(draw):
    """A real catalog with one field deleted, or one top-level field, entry,
    entry field or row replaced by a drawn JSON value."""
    obj = copy.deepcopy(draw(st.sampled_from(CATALOGS)))
    i = draw(st.integers(0, len(obj["patterns"]) - 1))
    entry, rows = obj["patterns"][i], obj["patterns"][i]["rows"]
    action = draw(st.sampled_from(["delete", "delete-in-entry", "top", "entry",
                                   "in-entry", "row"]))
    if action == "delete":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif action == "delete-in-entry":
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif action == "top":
        obj[draw(st.sampled_from(sorted(obj)))] = draw(JSON_VALUES)
    elif action == "entry":
        obj["patterns"][i] = draw(JSON_VALUES)
    elif action == "in-entry":
        entry[draw(st.sampled_from(sorted(entry)))] = draw(JSON_VALUES)
    else:
        rows[draw(st.integers(0, len(rows) - 1))] = draw(JSON_VALUES)
    return obj


@settings(max_examples=200, deadline=None)
@given(obj=tampered_catalogs())
def test_tampered_catalog_decodes_or_fails_in_one_line(blob_path, obj):
    text = json.dumps(obj)
    try:
        io.catalog_from_json(text)
    except ValueError:
        pass
    blob_path.write_text(text)
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main(["verify", str(blob_path)])
    assert code in {0, 1, 2}
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


# Small widths and bounds keep every draw under about a second and every
# pool at two workers or fewer.
ARG_VALUES = {
    "--kind": st.sampled_from(["y", "coxeter"]),
    "--width": st.integers(-1, 6).map(str),
    "--bounds": st.one_of(
        st.lists(st.integers(-1, 9), max_size=6).map(lambda b: ",".join(map(str, b))),
        st.sampled_from(["", "x", "3,,3", " 4", "1.5"])),
    "--format": st.sampled_from(["json", "csv", "table"]),
    "--parallelism": st.sampled_from(["-1", "0", "1", "2"]),
}
SUBCOMMAND_OPTIONS = {
    "enumerate": ["--kind", "--width", "--bounds", "--format", "--parallelism"],
    "orbits": ["--kind", "--width", "--bounds", "--format"],
    "map": ["--width", "--format"],
}


@st.composite
def argvs(draw):
    """Mostly well-formed command lines; about one draw in ten per choice
    is one that argparse rejects (unknown subcommand, option or value)."""
    rare = st.integers(0, 9).map(lambda i: i == 0)
    command = draw(st.sampled_from(sorted(SUBCOMMAND_OPTIONS)))
    argv = ["frobnicate" if draw(rare) else command]
    for name in SUBCOMMAND_OPTIONS[command]:
        if not draw(rare):
            argv += [name, "xml" if draw(rare) else draw(ARG_VALUES[name])]
    if draw(rare):
        argv += [draw(st.sampled_from(sorted(ARG_VALUES))), "1"]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_cli_argv_exits_with_documented_codes(argv):
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            assert exc.code == 2
            return
    assert code in {0, 1, 2, 3}
