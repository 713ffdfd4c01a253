"""Command line front end.

Subcommands: enumerate, verify, map, render, orbits.  Exit codes: 0 ok,
1 verification failure, 2 usage, parse or write error, 3 capability or
limit error (unsupported width, search box over the candidate ceiling or
cutting a shift orbit in two).  The ceiling can be raised via the
FRIEZE_MAX_CANDIDATES environment variable.

Each command imports the modules only it runs when it runs: `verify` and
`render` the streamed reader (read), `verify` its checks (verify), a
search, a Coxeter catalog or `map` search, coxeter or ymap.  So no command
compiles code that only another one calls.  `enumerate` writes a built
catalog's `patterns` through io; `orbits` and `map` read their orbit table.
"""

from __future__ import annotations

import argparse
import os
import sys
from io import FileIO
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TextIO

from . import io
from .core import (InconsistentDomain, NotShiftClosed, PatternKind, PeriodicPattern,
                   candidate_ceiling)

if TYPE_CHECKING:
    from . import ymap

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


# The buffer of an --output file: the 44 MB width-9 catalog takes 700 writes, not 5,600.
_OUTPUT_BUFFER = 1 << 16


class _Failure(Exception):
    """_Failure(exit code, message) ends a command; main prints the message as one line."""


def _check_output(output: Optional[str]) -> None:
    """Fail now if `output` cannot be opened for writing.

    An existing file is opened for appending, so it keeps its bytes; a
    missing one is created and removed again.
    """
    if not output:
        return
    try:
        try:
            open(output, "x").close()
        except FileExistsError:
            open(output, "a").close()
        else:
            os.remove(output)
    except OSError as exc:
        raise _Failure(EXIT_USAGE, f"cannot write {output}: {exc}")


def _write(output: Optional[str], write: Callable[[TextIO], object]) -> None:
    """Call write on the opened `output` file, or on stdout.  An OSError from
    a write or the close, a closed pipe included, ends the command with one
    line.  An unbuffered stdout would drop the rest of a short write without
    an error, so it is written through a buffered file on its descriptor."""
    try:
        if output:
            with open(output, "w", encoding="utf-8", buffering=_OUTPUT_BUFFER) as fh:
                write(fh)
        elif isinstance(getattr(sys.stdout, "buffer", None), FileIO):
            with open(sys.stdout.fileno(), "w", encoding="utf-8", closefd=False) as fh:
                write(fh)
        else:
            write(sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if not output:  # point stdout at /dev/null, so the flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise _Failure(EXIT_USAGE, f"cannot write {output or 'stdout'}: {exc}")


def _emit(text: str, output: Optional[str]) -> None:
    _write(output, lambda fh: fh.write(text))


def _table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Right-aligned columns.  The rows are read twice, for the widths and
    for the lines, so no cell's text is kept."""
    widths = list(map(len, header))
    for row in rows:
        widths = list(map(max, widths, map(len, map(str, row))))
    lines = ["  ".join(map(str.rjust, header, widths))]
    lines += ["  ".join(map(str.rjust, map(str, row), widths)) for row in rows]
    return "\n".join(lines) + "\n"


def _plan(kind: "PatternKind | str", width: int, bounds_text: Optional[str] = None,
          parallelism: int = 1) -> Callable[[], io.Catalog]:
    """Check the arguments enumerate, orbits and map share, plan a Y search
    (search.y_plan), and return the function that builds the catalog."""
    if width < 1:
        raise _Failure(EXIT_USAGE, f"width must be >= 1, got {width}")
    if parallelism < 1:
        raise _Failure(EXIT_USAGE, f"--parallelism must be >= 1, got {parallelism}")
    try:
        candidate_ceiling()
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc))
    kind = PatternKind(kind)
    bounds = None
    if bounds_text is not None:
        if kind is not PatternKind.Y:
            raise _Failure(EXIT_USAGE, "--bounds applies to --kind y only")
        try:
            bounds = tuple(map(int, bounds_text.split(",")))
        except ValueError:
            bounds = (0,)
        if min(bounds) < 1:
            raise _Failure(EXIT_USAGE, "--bounds must be comma-separated positive integers, "
                                       f"got {bounds_text!r}")
        if len(bounds) != width:
            raise _Failure(EXIT_USAGE, f"--bounds needs {width} values, got {len(bounds)}")
    if kind is PatternKind.COXETER:
        from . import coxeter
        if width > coxeter.MAX_ENUM_WIDTH:
            raise _Failure(EXIT_LIMIT,
                           f"coxeter enumeration supports widths up to {coxeter.MAX_ENUM_WIDTH}")
        return lambda: io.coxeter_catalog(width)
    from . import search
    try:
        search.y_plan(width, bounds)
    except search.BoxTooLarge as exc:
        raise _Failure(EXIT_LIMIT, str(exc))
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc))
    return lambda: io.y_catalog(width, bounds, parallelism)


def _catalog(kind: "PatternKind | str", width: int, bounds_text: Optional[str] = None,
             parallelism: int = 1, output: Optional[str] = None) -> io.Catalog:
    """_plan the catalog, check that `output` can be written, then build it."""
    build = _plan(kind, width, bounds_text, parallelism)
    _check_output(output)
    try:
        return build()
    except NotShiftClosed as exc:
        raise _Failure(EXIT_LIMIT, f"the box cuts a shift orbit in two ({exc}); widen --bounds")


def cmd_enumerate(args) -> int:
    catalog = _catalog(args.kind, args.width, args.bounds, args.parallelism, args.output)
    if args.format == "json":
        _write(args.output, lambda fh: io.write_catalog_json(catalog, fh))
    elif args.format == "csv":
        _emit(io.catalog_to_csv(catalog), args.output)
    else:
        header = io.tuple_header(catalog.kind, args.width)
        _emit(_table(header, list(io.entry_keys(catalog))), args.output)
    return EXIT_OK


def _read(path: str, consume: Callable):
    """read.read_patterns(path, consume), a malformed file ending the command with one line."""
    from . import read
    try:
        return read.read_patterns(path, consume)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise _Failure(EXIT_USAGE, f"cannot parse {path}: {exc}")


def cmd_verify(args) -> int:
    """Verify every pattern of the file, then write the report one line per
    pattern and a count; nothing is written before the whole file is read."""
    from . import verify
    violations = _read(args.input, verify._verify_all)
    if not violations:
        raise _Failure(EXIT_VERIFY, f"{args.input} holds no patterns")
    ok = violations.count(None)

    def report(fh: TextIO) -> None:
        fh.writelines(f"pattern {i}: {'ok' if v is None else v}\n"
                      for i, v in enumerate(violations))
        fh.write(f"{ok}/{len(violations)} patterns ok\n")

    _write(None, report)
    return EXIT_OK if ok == len(violations) else EXIT_VERIFY


def _verdict(report: ymap.FiberReport) -> str:
    if report.surjective and report.injective:
        return "bijective"
    if report.surjective:
        return "surjective, not injective"
    if report.injective:
        return "injective, not surjective"
    return "neither surjective nor injective"


def cmd_map(args) -> int:
    from . import ymap
    if args.width == 1:
        raise _Failure(EXIT_LIMIT, "width 1 has a single interior row, so the "
                                   "transfer map is not computable there")
    if args.width > 4:
        raise _Failure(EXIT_LIMIT, f"no enumerations available for width {args.width}")
    build_friezes = _plan(PatternKind.COXETER, args.width)
    build_ypatterns = _plan(PatternKind.Y, args.width)
    _check_output(args.output)
    report = ymap.fiber_analysis(build_friezes(), build_ypatterns())
    verdict = _verdict(report)
    if args.format == "json":
        import json
        text = json.dumps({
            "width": args.width,
            "records": [{"frieze_id": r.frieze_id, "yfrieze_id": r.yfrieze_id,
                         "s": r.frieze_orbit_size, "t": r.y_orbit_size}
                        for r in report.records],
            "fiber_sizes": list(report.fiber_sizes),
            "image_size": report.image_size,
            "surjective": report.surjective,
            "injective": report.injective,
            "verdict": verdict,
        }, indent=2) + "\n"
    elif args.format == "csv":
        text = io.csv_text(("frieze_id", "yfrieze_id", "s", "t"), report.records)
        text += f"# verdict: {verdict}\n"
    else:
        rows = [(r.frieze_id, r.yfrieze_id,
                 f"{r.frieze_orbit_size}:{r.y_orbit_size}") for r in report.records]
        text = _table(("frieze", "yfrieze", "s:t"), rows)
        text += f"verdict: {verdict}\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_orbits(args) -> int:
    catalog = _catalog(args.kind, args.width, args.bounds, output=args.output)
    orbits = catalog.patterns.orbits
    if args.format == "json":
        import json
        text = json.dumps({
            "kind": catalog.kind.value,
            "width": args.width,
            "orbits": [{"root": orbit[0], "size": len(orbit), "members": orbit}
                       for orbit in orbits],
        }, indent=2) + "\n"
    else:
        header = ("root", "size", "members")
        rows = [(orbit[0], len(orbit), ";".join(map(str, orbit))) for orbit in orbits]
        text = io.csv_text(header, rows) if args.format == "csv" else _table(header, rows)
    _emit(text, args.output)
    return EXIT_OK


def cmd_render(args) -> int:
    if args.index is not None and args.index < 0:
        raise _Failure(EXIT_USAGE, f"--index must be >= 0, got {args.index}")

    def pick(entries) -> list:
        """Every entry, or entry --index alone: decoding stops there, and
        reads on to the end only to count the entries for the error."""
        if args.index is None:
            return list(entries)
        n = 0
        for entry in entries:
            if n == args.index:
                return [entry]
            n += 1
        if n:
            raise _Failure(EXIT_USAGE, f"index {args.index} out of range (0..{n - 1})")
        return []

    try:
        patterns = [PeriodicPattern(kind, width, rows)
                    for kind, width, rows, _ in _read(args.input, pick)]
    except InconsistentDomain as exc:
        raise _Failure(EXIT_USAGE, f"{args.input} holds an invalid pattern: {exc}")
    if not patterns:
        raise _Failure(EXIT_USAGE, f"{args.input} holds no patterns")
    text = "\n".join(io.render_ascii(p) for p in patterns)
    _emit(text, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yfrieze",
        description="Enumerate, verify and map arithmetic frieze patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, kinds=True):
        if kinds:
            p.add_argument("--kind", choices=["y", "coxeter"], required=True)
        p.add_argument("--width", type=int, required=True)
        p.add_argument("--format", choices=["json", "csv", "table"], default="table")
        p.add_argument("--output", help="write to a file instead of stdout")

    p_enum = sub.add_parser("enumerate", help="enumerate all patterns of a width")
    add_common(p_enum)
    p_enum.add_argument("--parallelism", type=int, default=1,
                        help="processes that share the Y search's box scan: this "
                             "one and N-1 forked children (POSIX only; serial elsewhere)")
    p_enum.add_argument("--bounds",
                        help="comma-separated diagonal bounds for generic widths")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="check a serialized pattern or catalog")
    p_verify.add_argument("input")
    p_verify.set_defaults(func=cmd_verify)

    p_map = sub.add_parser("map", help="fibers and orbit correspondence of the "
                                       "frieze-to-Y transfer map")
    add_common(p_map, kinds=False)
    p_map.set_defaults(func=cmd_map)

    p_orbits = sub.add_parser("orbits", help="cyclic-shift orbit decomposition")
    add_common(p_orbits)
    p_orbits.add_argument("--bounds",
                          help="comma-separated diagonal bounds for generic widths")
    p_orbits.set_defaults(func=cmd_orbits)

    p_render = sub.add_parser("render", help="staggered ASCII rendering")
    p_render.add_argument("input")
    p_render.add_argument("--index", type=int, help="render one catalog entry")
    p_render.add_argument("--output", help="write to a file instead of stdout")
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
