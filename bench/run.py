"""yfrieze benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {coxeter-catalog,y-search,verify-load} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run sets up the workload three times,
then repeats passes of its ops, each op a child process, for at least S
seconds and at least two passes, and reports the end-to-end metrics.  With
``--trace 1`` it runs three rounds of one pass as child processes, one
in-process untraced and one in-process traced, and reports the per-layer
metrics.  Every op's output is checked.  The last line of stdout is the
result object; the line before it holds the run metadata.  The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads
from workloads import ROOT, SRC

MIN_PASSES = 2
SETUP_REPEATS = 3
STARTUP_PROBES = 5
TRACE_REPEATS = 3

# Host-speed normalization.  On a shared host other tenants slow every op
# by a third or more for minutes at a time: on a 2-vCPU Xeon VM the per-run
# median of one op spread by 20-30 % (quartile distance over median) across
# ten runs, the per-run fastest sample by up to 34 %.  A fixed computation
# that does not use the package is timed before set-up and after every
# set-up and pass.  Each end-to-end time is scaled by REFERENCE_S over the
# mean of the two readings around it, which gives the time on a host where
# the reference takes REFERENCE_S (about its fastest reading on that VM).
# Over ten runs per workload this cut the spread to 3-12 %.
REFERENCE_S = 0.25

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "patterns_per_s": "1/s",
    "candidates_per_s": "1/s",
    "setup_s": "s",
}


def reference_s() -> float:
    """Time of a fixed Fraction, tuple and dict computation (not the package's)."""
    start = time.perf_counter()
    seen = {}
    for first in range(1, 300):
        row = tuple(Fraction(first + k, k + 1) for k in range(12))
        for _ in range(6):
            row = tuple((row[k] * row[(k + 1) % 12] + 1) / (row[(k + 2) % 12] + 1)
                        for k in range(12))
        seen[row] = first
    return time.perf_counter() - start


def run_metadata(workload: str, seed: int) -> dict:
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in src_files:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = rev.stdout.strip() or None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "workload": workload,
        "why": workloads.WORKLOADS[workload],
        "seed": seed,
        "render_index": workloads.render_index(seed),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src_files),
    }


def run_pass(ops, ctx, runner):
    """Run every op once; returns [(op, outcome, ok)]."""
    results = []
    for op in ops:
        outcome = runner(op)
        try:
            ok = op.check(outcome, ctx)
        except ValueError:  # output that does not even parse
            ok = False
        if not ok:
            print(f"FAILED {op.name}: rc={outcome.rc} {outcome.stderr.strip()[-400:]}",
                  file=sys.stderr)
        results.append((op, outcome, ok))
    return results


def pass_wall(results) -> float:
    return sum(o.wall_s for _, o, _ in results)


def timed_setups(workload: str, seed: int, tmp: Path):
    """Set up SETUP_REPEATS times; returns the context and the normalized median."""
    times = []
    before = reference_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = workloads.setup(workload, seed, tmp)
        elapsed = time.perf_counter() - t0
        after = reference_s()
        times.append(elapsed * 2 * REFERENCE_S / (before + after))
        before = after
    return ctx, statistics.median(times)


def measure(workload: str, seed: int, seconds: float, tmp: Path):
    ctx, setup_s = timed_setups(workload, seed, tmp)
    ops = workloads.plan(workload, seed, ctx)

    passes, references = [], [reference_s()]
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, ctx, lambda op: workloads.run_child(op.argv, op.lib, tmp)))
        references.append(reference_s())
    scales = [2 * REFERENCE_S / (a + b) for a, b in zip(references, references[1:])]

    def op_medians(field, scaled=True):
        return {op.name: statistics.median(getattr(p[i][1], field) * (s if scaled else 1.0)
                                           for p, s in zip(passes, scales))
                for i, op in enumerate(ops)}

    wall = sum(op_medians("wall_s").values())
    metrics = {
        "wall_s": wall,
        "cpu_s": sum(op_medians("cpu_s").values()),
        "peak_rss_mb": max(op_medians("rss_mb", scaled=False).values()),
        "patterns_per_s": sum(op.patterns for op in ops) / wall,
        "candidates_per_s": sum(op.candidates for op in ops) / wall,
        "setup_s": setup_s,
    }
    extra = {"passes": len(passes), "reference_s": statistics.median(references),
             "measured_op_wall_s": op_medians("wall_s", scaled=False)}
    return metrics, [r for p in passes for r in p], extra


def measure_traced(workload: str, seed: int, tmp: Path):
    ctx, setup_s = timed_setups(workload, seed, tmp)
    ops = workloads.plan(workload, seed, ctx)

    children, untraced, traced = [], [], []
    for _ in range(TRACE_REPEATS):
        children.append(run_pass(ops, ctx, lambda op: workloads.run_child(op.argv, op.lib, tmp)))
        untraced.append(run_pass(ops, ctx, lambda op: workloads.run_in_process(op.argv, op.lib)))
        tracer = tracing.Tracer()

        def traced_op(op, tracer=tracer):
            with tracer.span(f"op.{op.name}"):
                return workloads.run_in_process(op.argv, op.lib)

        with tracer:
            traced_pass = run_pass(ops, ctx, traced_op)
        traced.append((traced_pass, tracer.spans))
    # Counts repeat exactly in every traced pass; times come from the
    # fastest, the one least disturbed by other tenants of a shared host.
    best_traced, spans = min(traced, key=lambda t: pass_wall(t[0]))
    startup = [workloads.run_child(("--help",), False, tmp).wall_s for _ in range(STARTUP_PROBES)]
    cli_overheads = [min(p[i][1].wall_s for p in children) - min(p[i][1].wall_s for p in untraced)
                     for i, op in enumerate(ops) if not op.lib]
    untraced_wall = min(pass_wall(p) for p in untraced)
    traced_wall = pass_wall(best_traced)
    metrics = tracing.layer_metrics(
        spans,
        generic_volume=sum(op.candidates for op in ops if op.lib),
        par1_op="op.enumerate-y-w4-csv-par1", par2_op="op.enumerate-y-w4-csv-par2")
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["cli.overhead_s"] = statistics.mean(cli_overheads) if cli_overheads else 0.0
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    trace_file = workloads.OUT / f"trace-{workload}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "size"],
                   "spans": [[s.name, s.start_ns, s.end_ns, s.parent, s.size] for s in spans]},
                  fh)
    extra = {"setup_s": setup_s, "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
             "spans": len(spans), "trace_file": str(trace_file.relative_to(ROOT))}
    results = [r for p in children + untraced + [t[0] for t in traced] for r in p]
    return metrics, results, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "yfrieze" / "__init__.py").is_file():
        print(f"error: no yfrieze sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tmp = workloads.OUT / f"tmp-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            metrics, results, extra = measure_traced(args.workload, args.seed, tmp)
            units = tracing.PER_LAYER_UNITS
        else:
            metrics, results, extra = measure(args.workload, args.seed, args.seconds, tmp)
            units = E2E_UNITS
    except workloads.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for _, _, ok in results if not ok)
    meta = run_metadata(args.workload, args.seed)
    meta.update(extra, ops_failed_ratio=failed / len(results))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
