"""Tests of the benchmark itself (not collected by the package's suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "yfrieze" or name.startswith("yfrieze.")
            for attr, value in vars(module).items()}


def _traced_ops(tmp: Path) -> tuple[tracing.Tracer, int, list]:
    """Trace a small cross-layer pass: Y search, Coxeter catalog, verify, render, map."""
    catalog = str(tmp / "c4.json")
    ops = [("enumerate", "--kind", "y", "--width", "3", "--format", "csv"),
           ("enumerate", "--kind", "coxeter", "--width", "4", "--format", "json",
            "--output", catalog),
           ("verify", catalog), ("render", catalog, "--index", "3"), ("map", "--width", "3")]
    tracer = tracing.Tracer()
    start = time.perf_counter_ns()
    with tracer:
        outcomes = []
        for argv in ops:
            with tracer.span(f"op.{argv[0]}"):
                outcomes.append(workloads.run_in_process(argv, lib=False))
        with tracer.span("op.generic"):
            outcomes.append(workloads.run_in_process(("3", "5,9,11"), lib=True))
    return tracer, time.perf_counter_ns() - start, outcomes


def test_tracer_restores_every_module_attribute(tmp_path):
    import yfrieze.cli  # noqa: F401  (bind every module before the snapshot)
    before = _bindings()
    tracer, _, outcomes = _traced_ops(tmp_path)
    assert all(o.rc == 0 for o in outcomes)
    assert {s.name for s in tracer.spans} >= {"core.check_rows", "core.cyclic_shift",
                                               "coxeter.frieze_from_quiddity",
                                               "io.catalog_to_json", "io.render_ascii",
                                               "search.enumerate_generic", "ymap.fiber_analysis"}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_are_nonnegative_and_within_traced_wall(tmp_path):
    tracer, wall_ns, _ = _traced_ops(tmp_path)
    own = tracing.self_times_ns(tracer.spans)
    assert own and min(own) >= 0
    assert sum(own) <= wall_ns
    metrics = tracing.layer_metrics(tracer.spans, generic_volume=5 * 9 * 11,
                                    par1_op="op.none", par2_op="op.none")
    assert all(metrics[name] >= 0 for name in metrics if name.endswith(".self_s"))
    assert metrics["search.hit_ratio"] == pytest.approx(10 / (5 * 9 * 11))  # all ten width-3 hits


def test_one_changed_byte_in_the_catalog_fails_the_op(tmp_path, monkeypatch):
    ctx = workloads.setup("verify-load", seed=0, tmp=tmp_path / "run", catalog_width=4)
    verify, render = workloads.plan("verify-load", 0, ctx)
    assert verify.check(workloads.run_in_process(verify.argv, verify.lib), ctx)
    assert render.check(workloads.run_in_process(render.argv, render.lib), ctx)

    text = ctx.catalog.read_text(encoding="utf-8")
    at = text.index("2", text.index('"rows"'))
    tampered = (text[:at] + "3" + text[at + 1:]).encode("utf-8")
    ctx.catalog.write_bytes(tampered)
    assert not verify.check(workloads.run_in_process(verify.argv, verify.lib), ctx)
    assert not verify.check(workloads.run_child(verify.argv, verify.lib, ctx.tmp), ctx)

    # The same byte changed while set-up builds the catalog fails set-up.
    build = workloads.run_child

    def build_tampered(argv, lib, tmp):
        out = build(argv, lib, tmp)
        if argv[0] == "enumerate":
            Path(argv[-1]).write_bytes(tampered)
        return out

    monkeypatch.setattr(workloads, "run_child", build_tampered)
    with pytest.raises(workloads.SetupError):
        workloads.setup("verify-load", seed=0, tmp=tmp_path / "again", catalog_width=4)


def test_seed_changes_only_the_render_index(tmp_path):
    ctx = workloads.Context(tmp_path)
    for workload in workloads.WORKLOADS:
        plans = [workloads.plan(workload, seed, ctx) for seed in (1, 2, 3, 4)]
        masked = [[(op.name, op.argv[:-1] if op.name == "render" else op.argv, op.check,
                    op.patterns, op.candidates, op.lib) for op in p] for p in plans]
        assert all(m == masked[0] for m in masked)
        indices = {op.argv[-1] for p in plans for op in p if op.name == "render"}
        assert len(indices) == (4 if workload == "verify-load" else 0)


def test_fails_without_sources(tmp_path):
    bench = Path(workloads.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "y-search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") and "correct" in json.loads(line)
                   for line in proc.stdout.splitlines() if line.startswith("{"))
