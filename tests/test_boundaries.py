"""Static checks of the package source: what a module may reach into, and
that every name an annotation uses is bound where it is evaluated."""

import ast
import builtins
from pathlib import Path

import pytest

import yfrieze

SRC = Path(yfrieze.__file__).resolve().parent
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def _io_private_names(tree: ast.Module) -> list[str]:
    """The underscore names of the package's io that a module imports or reads."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names if alias.name == "io"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "io":
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_the_boundary_check_sees_both_forms():
    tree = ast.parse("from . import io as x\nfrom .io import _head, KEY_NAMES\nx._pattern\n"
                     "from io import FileIO\nimport io\nio._private\n")
    assert _io_private_names(tree) == ["_head", "x._pattern"]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "io.py"])
def test_no_module_imports_or_reads_a_private_name_of_io(name):
    # io's own helpers stay its own: the read side lives in read, whole
    assert _io_private_names(_tree(name)) == []


def _module_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level, under `if TYPE_CHECKING:` included."""
    names = set()
    body = list(tree.body)
    while body:
        node = body.pop()
        if isinstance(node, ast.If):
            body += node.body + node.orelse
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _annotation_names(tree: ast.Module) -> set[str]:
    """The names read by the annotations of a module, string annotations parsed."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                                   args.vararg, args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    while annotations:
        node = annotations.pop()
        for sub in ast.walk(node) if node is not None else ():
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                annotations.append(ast.parse(sub.value, mode="eval"))
    return names


def test_the_annotation_check_sees_an_unbound_name():
    tree = ast.parse("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from . import a\n"
                     "def f(x: a.T, y: 'b.U') -> list[int]: ...\n")
    assert _annotation_names(tree) - _module_names(tree) - set(dir(builtins)) == {"b"}


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_names_a_module_level_name(name):
    # a name an annotation reads must be bound at the top of its module, if
    # only for type checkers, or typing.get_type_hints raises NameError
    tree = _tree(name)
    assert _annotation_names(tree) - _module_names(tree) - set(dir(builtins)) == set()


# The glide search and the period search are the tests' oracles for
# core.orbit_glide and for the orbit sizes generation finds, a theorem and
# a count that need no search (README, "The glide").  They stay in core, as
# public names, because the benchmark traces them there.
CORE_ORACLES = {"glide_shift", "glide_shift_of_rows", "intrinsic_period"}


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name a module binds, reads, imports or reads as an attribute;
    the text of a string is no name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name.split(".")[-1], node.asname}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_the_oracle_check_sees_each_form():
    tree = ast.parse("from .core import glide_shift as g\nfrom . import core\n"
                     "core.intrinsic_period(p)\ndef glide_shift_of_rows(): ...\n")
    assert _identifiers(tree) & CORE_ORACLES == CORE_ORACLES
    assert _identifiers(ast.parse("FIELDS = ('glide_shift', 'intrinsic_period')")) == {"FIELDS"}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "core.py"])
def test_no_module_but_core_names_a_glide_or_period_oracle(name):
    assert _identifiers(_tree(name)) & CORE_ORACLES == set()


# search alone plans a Y search (search.y_plan): the boxes a width gets and
# the catalog parameters that name them, so no other module holds the
# default boxes or a mode that the parameters write.
PLAN_NAMES = {"DEFAULT_GENERIC_BOUNDS"}
PLAN_MODES = {"proven-boxes", "generic"}


def _plan_terms(tree: ast.Module) -> set[str]:
    """The plan names a module names, and the modes it holds as a whole string."""
    return (_identifiers(tree) & PLAN_NAMES) | {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value in PLAN_MODES}


def test_the_plan_check_sees_each_form():
    for source in ("from .search import DEFAULT_GENERIC_BOUNDS as bounds",
                   "search.DEFAULT_GENERIC_BOUNDS[2]", "DEFAULT_GENERIC_BOUNDS = {}"):
        assert _plan_terms(ast.parse(source)) == PLAN_NAMES
    assert _plan_terms(ast.parse("{'mode': 'proven-boxes'} if x else {'mode': \"generic\"}")) \
        == PLAN_MODES
    assert _plan_terms(ast.parse('"""A generic search outside the proven-boxes."""')) == set()


@pytest.mark.parametrize("name", [m for m in MODULES if m != "search.py"])
def test_no_module_but_search_plans_a_y_search(name):
    assert _plan_terms(_tree(name)) == set()


# _entry_violation alone reads a catalog entry's fields, so verify's orbit
# table is keyed by what the rows show, never by what an entry claims.
def _entry_reads(tree: ast.AST) -> set[str]:
    """Each read of a field of a name `entry`: entry.NAME or entry[...]."""
    return {ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Subscript))
            and isinstance(node.value, ast.Name) and node.value.id == "entry"}


def test_the_entry_check_sees_each_form():
    tree = ast.parse("def f(entry):\n    hint = entry.get('orbit_root')\n"
                     "    g(entry['id'], entry, entry is None)\n")
    assert _entry_reads(tree) == {"entry.get", "entry['id']"}


def test_verify_all_reads_no_field_of_an_entry():
    tree = _tree("verify.py")
    verify_all = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "_verify_all")
    assert _entry_reads(verify_all) == set()
    assert "entry.get" in _entry_reads(tree)
