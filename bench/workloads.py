"""Workloads of the yfrieze benchmark: their ops, set-up and output checks.

An op is one user-visible action: a CLI invocation (``python -m yfrieze.cli
...``) or a named library call.  Either kind yields an exit code and the
bytes it printed, and the op's check judges them.  The same op runs as a
child process in timed passes and in-process under tracing.

All inputs are fixed by the mathematics (Catalan-many Coxeter friezes, the
proven and exploratory Y boxes).  The seed chooses only the catalog entry
that ``render`` draws.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN_W4_CSV = ROOT / "tests" / "data" / "w4_golden.csv"

# Width of the Coxeter catalogs: 1,430 friezes, 2.8 MB of JSON, about 3 s
# per op.  A width-8 op takes 13-16 s, so a run would hold one or two
# samples of it; on a shared host, whose speed drifts by a third over tens
# of seconds, several short samples give a steadier figure.
CATALOG_WIDTH = 7
# Generic-search boxes: the w4 box holds all 42 width-4 diagonals, the w5
# box is the exploratory box the CLI cannot search (see README.md).
GENERIC_W4_BOUNDS = (41, 40, 40, 41)
GENERIC_W5_BOUNDS = (20,) * 5
GENERIC_W5_HITS = 89

EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


def catalan_friezes(width: int) -> int:
    """Number of Coxeter friezes of a width: the Catalan number C_{width+1}."""
    return math.comb(2 * width + 2, width + 1) // (width + 2)


@dataclass
class Context:
    """What set-up leaves for the ops and their checks."""

    tmp: Path
    catalog_width: int = CATALOG_WIDTH
    golden_csv: Optional[bytes] = None
    w4_diagonals: Optional[list] = None
    render_rows: Optional[list] = None

    @property
    def catalog(self) -> Path:
        return self.tmp / f"catalog-w{self.catalog_width}.json"


@dataclass
class Outcome:
    rc: int
    stdout: bytes
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    stderr: str = ""


@dataclass(frozen=True)
class Op:
    """One action of a pass.

    `patterns` counts the patterns the op emits or checks; `candidates`
    counts the candidate patterns it must accept or reject (box points for
    a Y search, triangulations for Coxeter generation, serialized patterns
    for a load).
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[Outcome, Context], bool]
    patterns: int
    candidates: int
    lib: bool = False


def lib_generic(width: str, bounds: str) -> str:
    """The library op: generic Y search over one box; prints the sorted hit
    diagonals.  Run by libop.py in a child, or in-process when traced."""
    from yfrieze import closedform, search
    box = closedform.SearchBox(tuple(int(b) for b in bounds.split(",")))
    sols = search.enumerate_generic(int(width), box)
    return json.dumps([list(d) for d in sols.diagonals]) + "\n"


# ---- checks

def _lines(out: Outcome) -> list[str]:
    return out.stdout.decode("utf-8", "replace").splitlines()


def check_catalog_file(out: Outcome, ctx: Context) -> bool:
    path = ctx.tmp / "enumerated.json"
    ok = out.rc == 0 and path.is_file() and sha256_file(path) == catalog_digest(ctx.catalog_width)
    path.unlink(missing_ok=True)
    return ok


def check_verify(out: Outcome, ctx: Context) -> bool:
    n = catalan_friezes(ctx.catalog_width)
    lines = _lines(out)
    return out.rc == 0 and len(lines) == n + 1 and lines[-1] == f"{n}/{n} patterns ok"


def check_render(out: Outcome, ctx: Context) -> bool:
    # render draws two periods of every row; compare cell by cell with the
    # rows stored in the (digest-checked) catalog.
    lines = _lines(out)
    expected = [[str(v) for v in row] * 2 for row in ctx.render_rows]
    return out.rc == 0 and [line.split() for line in lines] == expected


def check_golden_csv(out: Outcome, ctx: Context) -> bool:
    return out.rc == 0 and out.stdout == ctx.golden_csv


def check_generic_w4(out: Outcome, ctx: Context) -> bool:
    return out.rc == 0 and json.loads(out.stdout) == ctx.w4_diagonals


def check_generic_w5(out: Outcome, ctx: Context) -> bool:
    return (out.rc == 0 and len(json.loads(out.stdout)) == GENERIC_W5_HITS
            and hashlib.sha256(out.stdout).hexdigest() == EXPECTED["generic_w5_hits_sha256"])


def check_bijective(out: Outcome, ctx: Context) -> bool:
    return out.rc == 0 and "verdict: bijective" in _lines(out)


# ---- workloads

WORKLOADS = {
    "coxeter-catalog": "width-7 Coxeter catalog to JSON: generation, core kernel, "
                       "orbit assembly and dump; bypasses the Y search",
    "y-search": "generic w4/w5 box searches, proven-box w4 CSV at parallelism 1 "
                "and 2, and map; bypasses Coxeter generation and large-catalog IO",
    "verify-load": "verify and render a width-7 catalog built at set-up: the read "
                   "and validate side of the IO and core layers",
}


def render_index(seed: int, width: int = CATALOG_WIDTH) -> int:
    return random.Random(seed).randrange(catalan_friezes(width))


def plan(workload: str, seed: int, ctx: Context) -> list[Op]:
    """The ops of one pass, in order."""
    n = catalan_friezes(ctx.catalog_width)
    if workload == "coxeter-catalog":
        return [Op("enumerate-coxeter-json",
                   ("enumerate", "--kind", "coxeter", "--width", str(ctx.catalog_width),
                    "--format", "json", "--output", str(ctx.tmp / "enumerated.json")),
                   check_catalog_file, patterns=n, candidates=n)]
    if workload == "y-search":
        from yfrieze.closedform import w4_boxes
        proven = sum(box.volume() for box in w4_boxes())
        csv = ("enumerate", "--kind", "y", "--width", "4", "--format", "csv", "--parallelism")
        return [
            Op("generic-w4-box", ("4", ",".join(map(str, GENERIC_W4_BOUNDS))),
               check_generic_w4, patterns=42, candidates=math.prod(GENERIC_W4_BOUNDS), lib=True),
            Op("generic-w5-box", ("5", ",".join(map(str, GENERIC_W5_BOUNDS))),
               check_generic_w5, patterns=GENERIC_W5_HITS,
               candidates=math.prod(GENERIC_W5_BOUNDS), lib=True),
            Op("enumerate-y-w4-csv-par1", csv + ("1",), check_golden_csv,
               patterns=42, candidates=proven),
            Op("enumerate-y-w4-csv-par2", csv + ("2",), check_golden_csv,
               patterns=42, candidates=proven),
            Op("map-w4", ("map", "--width", "4"), check_bijective,
               patterns=42, candidates=proven),
        ]
    if workload == "verify-load":
        return [
            Op("verify", ("verify", str(ctx.catalog)), check_verify, patterns=n, candidates=n),
            Op("render", ("render", str(ctx.catalog), "--index", str(render_index(seed, ctx.catalog_width))),
               check_render, patterns=1, candidates=n),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---- set-up

class SetupError(Exception):
    """Set-up could not produce correct inputs."""


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def catalog_digest(width: int) -> str:
    return EXPECTED["coxeter_catalog_sha256"][str(width)]


def setup(workload: str, seed: int, tmp: Path, catalog_width: int = CATALOG_WIDTH) -> Context:
    """Make a fresh `tmp` and the inputs the workload's checks need."""
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    ctx = Context(tmp, catalog_width)
    probe = run_child(("--help",), lib=False, tmp=tmp)
    if probe.rc != 0:
        raise SetupError(f"yfrieze CLI does not start: {probe.stderr.strip()}")
    if workload == "y-search":
        from yfrieze import search
        ctx.golden_csv = GOLDEN_W4_CSV.read_bytes()
        ctx.w4_diagonals = [list(d) for d in search.enumerate_w4().diagonals]
    elif workload == "verify-load":
        built = run_child(("enumerate", "--kind", "coxeter", "--width", str(catalog_width),
                           "--format", "json", "--output", str(ctx.catalog)), lib=False, tmp=tmp)
        if built.rc != 0 or sha256_file(ctx.catalog) != catalog_digest(catalog_width):
            raise SetupError(f"width-{catalog_width} catalog does not match its recorded digest")
        obj = json.loads(ctx.catalog.read_text(encoding="utf-8"))
        ctx.render_rows = obj["patterns"][render_index(seed, catalog_width)]["rows"]
    return ctx


# ---- running ops

def run_child(argv: tuple[str, ...], lib: bool, tmp: Path) -> Outcome:
    """Run one op as a child process, started through launch.py."""
    entry = [str(BENCH / "libop.py")] if lib else ["-m", "yfrieze.cli"]
    err_path, result_path = tmp / "stderr.txt", tmp / "rusage.json"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py"), str(result_path),
                                 sys.executable, *entry, *argv],
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
        stdout, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py failed: {err_path.read_text(encoding='utf-8')}")
    usage = json.loads(result_path.read_text(encoding="utf-8"))
    return Outcome(usage["rc"], stdout, usage["wall_s"], usage["cpu_s"], usage["rss_mb"],
                   err_path.read_text(encoding="utf-8", errors="replace"))


def run_in_process(argv: tuple[str, ...], lib: bool) -> Outcome:
    """Run one op inside this process (for tracing); exit code as the CLI's."""
    from yfrieze import cli
    buf = io.StringIO()
    stderr = ""
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            if lib:
                buf.write(lib_generic(*argv))
                rc = 0
            else:
                rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error in the program is a failed op
        rc, stderr = 1, traceback.format_exc()
    wall = time.perf_counter() - t0
    return Outcome(rc, buf.getvalue().encode("utf-8"), wall, stderr=stderr)
