"""Outside-in tracing of the yfrieze layers, and the per-layer metrics.

The tracer wraps public functions of the package from the outside: each
listed function is replaced, in every ``yfrieze`` module namespace that
binds it, by a wrapper that records a span (name, start, end, parent,
size of the result).  Module globals are looked up at call time, so a call
such as ``PeriodicPattern.__post_init__ -> check_rows`` inside ``core`` is
seen as well as ``cli``'s own imported ``check_rows``.  Leaving the tracer
restores every attribute.  Work done in forked pool workers is not seen.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

# Span name -> (module, function) entry points that record under it.
# glide_shift is a one-line front for glide_shift_of_rows, which cli calls
# directly; both count as the one glide check.
TRACED = {
    "core.check_rows": [("core", "check_rows")],
    "core.cyclic_shift": [("core", "cyclic_shift")],
    "core.propagate_y": [("core", "propagate_y")],
    "core.glide_shift": [("core", "glide_shift"), ("core", "glide_shift_of_rows")],
    "core.intrinsic_period": [("core", "intrinsic_period")],
    "coxeter.all_triangulations": [("coxeter", "all_triangulations")],
    "coxeter.quiddity_of": [("coxeter", "quiddity_of")],
    "coxeter.frieze_from_quiddity": [("coxeter", "frieze_from_quiddity")],
    "coxeter.enumerate_frieze": [("coxeter", "enumerate_frieze")],
    "closedform.w4_entries": [("closedform", "w4_entries")],
    "search.enumerate_generic": [("search", "enumerate_generic")],
    "search.enumerate_w4": [("search", "enumerate_w4")],
    "ymap.orbit_decomposition": [("ymap", "orbit_decomposition")],
    "ymap.fiber_analysis": [("ymap", "fiber_analysis")],
    "io.catalog_to_json": [("io", "catalog_to_json")],
    "io.catalog_to_csv": [("io", "catalog_to_csv")],
    "io.raw_patterns_from_obj": [("io", "raw_patterns_from_obj")],
    "io.render_ascii": [("io", "render_ascii")],
}


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root
    size: Optional[int]  # len() of the result, when it has one


class Tracer:
    """Context manager: patches the traced functions, collects spans in memory."""

    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if name == "yfrieze" or name.startswith("yfrieze.")]
        for span_name, entries in TRACED.items():
            for module_name, fn_name in entries:
                original = getattr(importlib.import_module(f"yfrieze.{module_name}"), fn_name)
                wrapper = self._wrap(span_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        index = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, name, start, None)

    def _open(self) -> int:
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, name: str, start: int, size: Optional[int]) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = Span(name, start, end, parent, size)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open()
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, name, start,
                            len(result) if hasattr(result, "__len__") else None)
        traced.__wrapped__ = fn
        return traced


def self_times_ns(spans: list[Span]) -> list[int]:
    """Span duration minus the time its direct children cover."""
    own = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end_ns - s.start_ns
    return own


def roots(spans: list[Span]) -> list[int]:
    """Index of the root span (the op) above each span."""
    out: list[int] = []
    for i, s in enumerate(spans):
        out.append(i if s.parent < 0 else out[s.parent])
    return out


PER_LAYER_UNITS = {
    "core.check_rows.calls": "count",
    "core.check_rows.self_s": "s",
    "core.cyclic_shift.calls": "count",
    "core.propagate_y.calls": "count",
    "core.propagate_y.self_s": "s",
    "core.glide_shift.self_s": "s",
    "core.intrinsic_period.self_s": "s",
    "coxeter.all_triangulations.self_s": "s",
    "coxeter.quiddity_of.self_s": "s",
    "coxeter.frieze_from_quiddity.self_s": "s",
    "coxeter.friezes_per_s": "1/s",
    "closedform.w4_entries.calls": "count",
    "closedform.w4_entries.self_s": "s",
    "search.enumerate_generic.self_s": "s",
    "search.candidates_per_s": "1/s",
    "search.hit_ratio": "ratio",
    "search.enumerate_w4.self_s": "s",
    "search.enumerate_w4.par2_over_par1": "ratio",
    "ymap.orbit_decomposition.self_s": "s",
    "ymap.fiber_analysis.self_s": "s",
    "io.catalog_to_json.self_s": "s",
    "io.catalog_to_json.mb_per_s": "MB/s",
    "io.raw_patterns_from_obj.self_s": "s",
    "io.render_ascii.self_s": "s",
    "io.output_mb": "MB",
    "cli.startup_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], generic_volume: int,
                  par1_op: str, par2_op: str) -> dict[str, float]:
    """Per-layer figures from the spans of one traced pass.

    `generic_volume` is the box volume the pass's generic searches cover;
    `par1_op` and `par2_op` name the op spans whose enumerate_w4 times are
    compared.  A layer the pass does not reach reads 0.
    """
    own = self_times_ns(spans)
    top = roots(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    incl_ns: dict[str, int] = defaultdict(int)
    size: dict[str, int] = defaultdict(int)
    w4_incl_by_op: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_ns[s.name] += own[i]
        incl_ns[s.name] += s.end_ns - s.start_ns
        size[s.name] += s.size or 0
        if s.name == "search.enumerate_w4":
            w4_incl_by_op[spans[top[i]].name] += s.end_ns - s.start_ns

    def sec(ns: int) -> float:
        return ns / 1e9

    json_mb = size["io.catalog_to_json"] / 1e6
    out = {f"{name}.calls": float(calls[name])
           for name in ("core.check_rows", "core.cyclic_shift", "core.propagate_y",
                        "closedform.w4_entries")}
    out.update({f"{name}.self_s": sec(self_ns[name]) for name in TRACED})
    out.update({
        "coxeter.friezes_per_s": _ratio(size["coxeter.enumerate_frieze"],
                                        sec(incl_ns["coxeter.enumerate_frieze"])),
        "search.candidates_per_s": _ratio(generic_volume,
                                          sec(incl_ns["search.enumerate_generic"])),
        "search.hit_ratio": _ratio(size["search.enumerate_generic"], generic_volume),
        "search.enumerate_w4.par2_over_par1": _ratio(w4_incl_by_op[par2_op],
                                                     w4_incl_by_op[par1_op]),
        "io.catalog_to_json.mb_per_s": _ratio(json_mb, sec(self_ns["io.catalog_to_json"])),
        # Catalog text only: the rendered entry, and so its size, follows the seed.
        "io.output_mb": json_mb + size["io.catalog_to_csv"] / 1e6,
    })
    return {name: out[name] for name in PER_LAYER_UNITS if name in out}
