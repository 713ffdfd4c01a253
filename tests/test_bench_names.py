"""The names the benchmark under bench/ reaches into yfrieze for still exist,
so a deletion that would crash the traced benchmark fails here first."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced_names() -> list[tuple[str, str]]:
    """Every (module, function) of bench/tracing.py's TRACED, read without running it."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])
    return sorted({name for entries in ast.literal_eval(traced).values() for name in entries})


# What bench/workloads.py imports besides the traced functions.
WORKLOAD_NAMES = [("closedform", "SearchBox"), ("closedform", "w4_boxes"),
                  ("search", "enumerate_generic"), ("search", "enumerate_w4")]


def test_traced_names_are_read():
    assert ("core", "check_rows") in _traced_names() and len(_traced_names()) >= 10


@pytest.mark.parametrize("module, name", _traced_names() + WORKLOAD_NAMES)
def test_benchmark_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"yfrieze.{module}"), name, None))
