"""Property tests at the IO and CLI boundary: any JSON file handed to
`verify` or `render`, and any argv drawn from a small grammar, ends in a
documented exit code, never a traceback."""

import copy
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import yfrieze as yf
from yfrieze import io, read
from yfrieze.cli import main
from yfrieze.core import glide_shift_of_rows
from yfrieze.io import ORBIT_FIELDS
from yfrieze.read import raw_patterns_from_obj
from yfrieze.verify import _entry_violation, _verify_all, _verify_one
from oracles import catalog_to_obj, expand_domain, pattern_to_obj, w3_domain

# Real patterns to mutate, so that valid and nearly valid files are drawn too.
BASES = [(p.kind.value, p.width, pattern_to_obj(p)["rows"])
         for p in (*yf.enumerate_frieze(1), *yf.enumerate_frieze(3),
                   *yf.enumerate_w3(),
                   expand_domain(w3_domain((1, 1, 1))))]

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
CATALOGS = [catalog_to_obj(io.coxeter_catalog(2)), catalog_to_obj(io.y_catalog(3))]

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
@example(obj={**CATALOGS[0], "patterns": []})
@example(obj={**CATALOGS[0], "patterns": [*CATALOGS[0]["patterns"][:1],
                                          {**CATALOGS[0]["patterns"][1], "glide_shift": "x"}]})
def test_tampered_catalog_decodes_or_fails_in_one_line(blob_path, obj):
    # exit 2 prints one line; exit 1 prints nothing on stderr, except for a
    # catalog without patterns, which fails verify with one line.  A file
    # that reads has entry objects only, and one whose orbit field is no
    # int fails verify.
    text = json.dumps(obj)
    blob_path.write_text(text)
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main(["verify", str(blob_path)])
    assert code in {0, 1, 2}
    if code != 2 and any(type(entry.get(name)) is not int
                         for entry in obj["patterns"] for name in ORBIT_FIELDS):
        assert code == 1
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    elif code == 1 and obj.get("patterns") == []:
        assert err.getvalue() == f"error: {blob_path} holds no patterns\n"
    else:
        assert err.getvalue() == ""


# The raw entries of the width-4 catalogs, one per kind, as verify reads them.
W4_RAW = [raw_patterns_from_obj(catalog_to_obj(catalog))
          for catalog in (io.coxeter_catalog(4), io.y_catalog(4))]


@st.composite
def edited_entry_lists(draw):
    """A width-4 catalog's raw entries with a cell changed, or entries
    duplicated, dropped or permuted, or a rotated copy of an entry appended
    after its valid siblings, left as it is or with a cell changed."""
    raw = copy.deepcopy(draw(st.sampled_from(W4_RAW)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(raw) - 1))
        kind, width, rows = copy.deepcopy(raw[i])
        action = draw(st.sampled_from(["cell", "duplicate", "drop", "permute", "rotated",
                                       "rotated-cell"]))
        if action == "duplicate":
            raw.insert(draw(st.integers(0, len(raw))), (kind, width, rows))
        elif action == "drop" and len(raw) > 1:
            raw.pop(i)
        elif action == "permute":
            raw = draw(st.permutations(raw))
        elif action in ("cell", "rotated", "rotated-cell"):
            if action != "cell":
                s = draw(st.integers(1, width + 2))
                rows = [row[s:] + row[:s] for row in rows]
            if action != "rotated":
                m = draw(st.integers(0, len(rows) - 1))
                rows[m][draw(st.integers(0, width + 2))] += draw(st.sampled_from([-2, -1, 1]))
            if action == "cell":
                raw[i] = (kind, width, rows)
            else:
                raw.append((kind, width, rows))
    return raw


@settings(max_examples=150, deadline=None)
@given(raw=edited_entry_lists())
def test_verify_checks_once_per_orbit_with_the_per_entry_verdicts(raw):
    # verify's report must be the one the full check of every entry gives.
    # (an entry object of None is no catalog entry, so no entry passes
    # through the orbit table, and it leaves out the id and key checks)
    assert _verify_all([(*entry, None) for entry in raw]) == [_verify_one(*entry) for entry in raw]


def _names(entry, r):
    return type(entry.get("orbit_root")) is int and entry["orbit_root"] == r


# The width-4 catalogs' entries, one list per kind, with their entry objects.
W4_ENTRIES = [[(catalog.kind, catalog.width, entry["rows"], entry)
               for entry in catalog_to_obj(catalog)["patterns"]]
              for catalog in (io.coxeter_catalog(4), io.y_catalog(4))]
HINTS = ["correct", "own index", "other root", "earlier member", "later", -1, 10 ** 30, True,
         "0", [0], "missing"]


@st.composite
def hinted_entry_lists(draw):
    """A width-4 catalog's entries, some with a cell changed, rotated in
    place, or dropped, or a copy or a rotated copy appended, and each
    entry's orbit_root, as written about half the time, else drawn from
    HINTS: the entry's own index, another orbit's root, the index of an
    earlier passing entry that does not name itself, a later index, or a
    value that names no entry."""
    entries = copy.deepcopy(draw(st.sampled_from(W4_ENTRIES)))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(entries) - 1))
        kind, width, rows, entry = entries[i]
        action = draw(st.sampled_from(["cell", "rotate", "drop", "copy", "rotated copy"]))
        if action == "drop" and len(entries) > 1:
            entries.pop(i)
        elif action == "cell":
            m = draw(st.integers(0, len(rows) - 1))
            rows[m][draw(st.integers(0, width + 2))] += draw(st.sampled_from([-1, 1]))
        elif action in ("rotate", "copy", "rotated copy"):
            s = draw(st.integers(1, width + 2)) if action != "copy" else 0
            rotated = [row[s:] + row[:s] for row in rows]
            if action == "rotate":
                entries[i] = (kind, width, rotated, entry)
            else:
                entries.append((kind, width, rotated, {**entry, "id": len(entries)}))
    roots = sorted({entry["orbit_root"] for *_, entry in entries})
    for i, (*_, entry) in enumerate(entries):
        hint = draw(st.one_of(st.just("correct"), st.sampled_from(HINTS)))
        if hint == "own index":
            entry["orbit_root"] = i
        elif hint == "other root":
            entry["orbit_root"] = draw(st.sampled_from(roots))
        elif hint == "earlier member":
            members = [j for j, (kind, width, rows, other) in enumerate(entries[:i])
                       if _verify_one(kind, width, rows) is None and not _names(other, j)]
            if members:
                entry["orbit_root"] = draw(st.sampled_from(members))
        elif hint == "later":
            entry["orbit_root"] = draw(st.integers(i + 1, len(entries)))
        elif hint == "missing":
            del entry["orbit_root"]
        elif hint != "correct":
            entry["orbit_root"] = hint
    return entries


def _rotations(kind, width, rows):
    return [(kind, width, [row[s:] + row[:s] for row in rows]) for s in range(width + 3)]


def _orbit_tuple(kind, width, rows, r):
    """(r, s, s, glide) of valid rows, s the smallest shift that maps every
    row onto itself."""
    size = next(s for s in range(1, width + 4) if all(row[s:] + row[:s] == row for row in rows))
    return (r, size, size, glide_shift_of_rows(rows, width + 3))


def _full_checks_repeats_and_member_counts(entries):
    """Every entry's first violation, worked out from the entries up to it,
    with no table keyed by rows and no bit masks.  The root of an entry that
    passes the full check is the first entry in the file that passes it and
    whose rows rotate into the entry's, itself included.  An entry that
    passes repeats an earlier entry with its root and its rows, and gets a
    `distinct` violation naming the root; else it is held to its fields, the
    orbit ones being (r, s, s, glide), r its root and the glide searched for
    in r's rows.  Then each entry that is its own root and has no violation,
    and whose orbit size is not the number of distinct rows of the entries
    with that root, gets an orbit violation."""
    passing = [_verify_one(kind, width, rows) is None for kind, width, rows, _ in entries]
    roots = [next(r for r in range(i + 1) if passing[r]
                  and (kind, width, rows) in _rotations(*entries[r][:3])) if passing[i] else None
             for i, (kind, width, rows, _) in enumerate(entries)]
    verdicts = []
    for i, (kind, width, rows, entry) in enumerate(entries):
        r = roots[i]
        if r is None:
            verdict = _verify_one(kind, width, rows)
        elif any(roots[j] == r and entries[j][2] == rows for j in range(i)):
            verdict = yf.Violation("distinct", -1, -1, "its rows repeat an earlier entry's, "
                                   f"in the orbit of entry {r}")
        else:
            verdict = _entry_violation(i, kind, width, rows, entry,
                                       _orbit_tuple(*entries[r][:3], r))
        verdicts.append(verdict)
    for r, (kind, width, rows, entry) in enumerate(entries):
        if roots[r] != r or verdicts[r] is not None:
            continue
        count = len({tuple(map(tuple, entries[j][2])) for j in range(len(entries))
                     if roots[j] == r})
        size = _orbit_tuple(kind, width, rows, r)[1]
        if count != size:
            verdicts[r] = yf.Violation("orbit", -1, -1, f"orbit_size {size} is not {count}, "
                                       "the number of its rotations in the file")
    return verdicts


@settings(max_examples=150, deadline=None)
@given(entries=hinted_entry_lists())
def test_verify_holds_each_orbit_root_to_its_first_passing_rotation(entries):
    # verify skips the checks on an entry whose rows rotate those of an
    # entry that passed; whatever each orbit_root says, the verdicts must be
    # the full checks' against each entry's orbit tuple, found by brute
    # force, with each repeat named and each root's rotations counted.
    assert _verify_all(entries) == _full_checks_repeats_and_member_counts(entries)


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


# Catalogs of both kinds at widths 1-4, for the streamed reader to read back.
READER_CATALOGS = [catalog_to_obj(catalog) for width in range(1, 5)
                   for catalog in (io.coxeter_catalog(width), io.y_catalog(width))]


@settings(max_examples=150, deadline=None)
@given(obj=st.sampled_from(READER_CATALOGS), indent=st.sampled_from([None, 0, 2]),
       separators=st.sampled_from([(",", ":"), (", ", ": ")]),
       chunk=st.one_of(st.integers(1, 40), st.sampled_from([1 << 10, 1 << 16])),
       width=st.sampled_from([None, 10, 98765]))
def test_streamed_entries_equal_the_decoded_document(obj, indent, separators, chunk, width):
    # whatever the layout and wherever a chunk cuts a value, the streamed
    # read (not its fallback) yields what json.loads and the decoder give;
    # the reader leaves the rows unchecked, so a width of several digits,
    # which a chunk may cut, may stand in the head
    if width is not None:
        obj = {**obj, "width": width}
    text = json.dumps(obj, indent=indent, separators=separators)
    with mock.patch.object(read, "_CHUNK", chunk):
        entries = list(read._streamed(StringIO(text)))
    assert [entry[:3] for entry in entries] == raw_patterns_from_obj(json.loads(text))
    assert [entry[3] for entry in entries] == obj["patterns"]


class _CountingReads(StringIO):
    reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


def test_streamed_read_doubles_while_a_value_is_cut():
    # with one-character chunks, an entry of n characters takes about
    # log2(n) reads, not n, and so is not decoded again n times
    obj = READER_CATALOGS[-1]
    fh = _CountingReads(json.dumps(obj, separators=(",", ":")))
    with mock.patch.object(read, "_CHUNK", 1):
        assert len(list(read._streamed(fh))) == len(obj["patterns"]) == 42
    assert fh.reads < 20 * 42


def test_streamed_read_of_a_broken_entry_stops_at_the_value_limit():
    # a syntax error in entry 0 is not read on to the end of the file: the
    # read gives up once the value outgrows _MAX_VALUE
    text = json.dumps(READER_CATALOGS[-1], indent=2)
    fh = StringIO(text.replace('"rows"', 'x"rows"', 1))
    with mock.patch.object(read, "_CHUNK", 16), mock.patch.object(read, "_MAX_VALUE", 1000):
        with pytest.raises(read._Unstreamable):
            list(read._streamed(fh))
    assert fh.tell() < 4000 < len(text)
