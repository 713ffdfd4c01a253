"""Command line front end.

Subcommands: enumerate, verify, map, render, orbits.  Exit codes: 0 ok,
1 verification failure, 2 usage, parse or write error, 3 capability or
limit error (unsupported width, search box over the candidate ceiling or
cutting a shift orbit in two).  The ceiling can be raised via the
FRIEZE_MAX_CANDIDATES environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import io
from .core import (InconsistentDomain, PatternKind, PeriodicPattern, Violation,
                   check_rows, glide_shift_of_rows)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class _Failure(Exception):
    """_Failure(exit code, message) ends a command; main prints the message as one line."""


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _Failure(EXIT_USAGE, f"cannot write {output}: {exc}")
    else:
        sys.stdout.write(text)


def _table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    cells = [[str(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join(lines) + "\n"


def _parse_bounds(text: str) -> tuple[int, ...]:
    bounds = tuple(int(part) for part in text.split(","))
    if any(b < 1 for b in bounds):
        raise ValueError(f"bounds must be positive, got {text!r}")
    return bounds


def _catalog(kind: "PatternKind | str", width: int, bounds_text: Optional[str] = None,
             parallelism: int = 1) -> io.Catalog:
    """Check the arguments enumerate, orbits and map share, then build the catalog."""
    from . import search, ymap
    if width < 1:
        raise _Failure(EXIT_USAGE, f"width must be >= 1, got {width}")
    if parallelism < 1:
        raise _Failure(EXIT_USAGE, f"--parallelism must be >= 1, got {parallelism}")
    try:
        search.candidate_ceiling()
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc))
    kind = PatternKind(kind)
    bounds = None
    if bounds_text is not None:
        if kind is not PatternKind.Y:
            raise _Failure(EXIT_USAGE, "--bounds applies to --kind y only")
        try:
            bounds = _parse_bounds(bounds_text)
        except ValueError as exc:
            raise _Failure(EXIT_USAGE, str(exc))
        if len(bounds) != width:
            raise _Failure(EXIT_USAGE, f"--bounds needs {width} values, got {len(bounds)}")
    if kind is PatternKind.COXETER:
        from . import coxeter
        if width > coxeter.MAX_ENUM_WIDTH:
            raise _Failure(EXIT_LIMIT,
                           f"coxeter enumeration supports widths up to {coxeter.MAX_ENUM_WIDTH}")
        return io.coxeter_catalog(width)
    if width not in (1, 2, 3, 4) and bounds is None:
        raise _Failure(EXIT_USAGE, f"width {width} has no proven boxes; pass --bounds")
    try:
        return io.y_catalog(width, bounds=bounds, parallelism=parallelism)
    except search.BoxTooLarge as exc:
        raise _Failure(EXIT_LIMIT, str(exc))
    except ymap.NotShiftClosed as exc:
        raise _Failure(EXIT_LIMIT, f"the box cuts a shift orbit in two ({exc}); widen --bounds")


def cmd_enumerate(args) -> int:
    catalog = _catalog(args.kind, args.width, args.bounds, args.parallelism)
    kind = catalog.kind
    if args.format == "json":
        text = io.catalog_to_json(catalog)
    elif args.format == "csv":
        text = io.catalog_to_csv(catalog)
    else:
        header = io.tuple_header(kind, args.width)
        text = _table(header, [entry.key_tuple for entry in catalog.entries])
    _emit(text, args.output)
    return EXIT_OK


def _verify_one(kind: PatternKind, width: int, rows) -> Optional[Violation]:
    violation = check_rows(kind, width, rows)
    if violation is not None:
        return violation
    interior_start = 1 if kind is PatternKind.Y else 2
    for m in range(interior_start, interior_start + width):
        for k, v in enumerate(rows[m]):
            if v <= 0 or v.denominator != 1:
                return Violation("positivity", m, k,
                                 f"interior entry {v} is not a positive integer")
    if glide_shift_of_rows(rows, width + 3) is None:
        return Violation("glide", -1, -1, "no reflection-shift maps the pattern to itself")
    return None


def _load(path: str) -> list:
    """The raw patterns of a pattern or catalog file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return io.raw_patterns_from_obj(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise _Failure(EXIT_USAGE, f"cannot parse {path}: {exc}")


def cmd_verify(args) -> int:
    raw = _load(args.input)
    violations = [_verify_one(*entry) for entry in raw]
    text = "".join(f"pattern {i}: {'ok' if v is None else v}\n" for i, v in enumerate(violations))
    ok = violations.count(None)
    sys.stdout.write(f"{text}{ok}/{len(raw)} patterns ok\n")
    return EXIT_OK if ok == len(raw) else EXIT_VERIFY


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
    sides = [[entry.pattern for entry in _catalog(kind, args.width).entries]
             for kind in (PatternKind.COXETER, PatternKind.Y)]
    report = ymap.fiber_analysis(args.width, *sides)
    records = ymap.correspondence_table(args.width, *sides)
    verdict = _verdict(report)
    if args.format == "json":
        text = json.dumps({
            "width": args.width,
            "records": [{"frieze_id": r.frieze_id, "yfrieze_id": r.yfrieze_id,
                         "s": r.frieze_orbit_size, "t": r.y_orbit_size}
                        for r in records],
            "fiber_sizes": list(report.fiber_sizes),
            "image_size": report.image_size,
            "surjective": report.surjective,
            "injective": report.injective,
            "verdict": verdict,
        }, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["frieze_id,yfrieze_id,s,t"]
        lines += [f"{r.frieze_id},{r.yfrieze_id},{r.frieze_orbit_size},{r.y_orbit_size}"
                  for r in records]
        lines.append(f"# verdict: {verdict}")
        text = "\n".join(lines) + "\n"
    else:
        rows = [(r.frieze_id, r.yfrieze_id,
                 f"{r.frieze_orbit_size}:{r.y_orbit_size}") for r in records]
        text = _table(("frieze", "yfrieze", "s:t"), rows)
        text += f"verdict: {verdict}\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_orbits(args) -> int:
    catalog = _catalog(args.kind, args.width, args.bounds)
    members = {}
    for entry in catalog.entries:
        members.setdefault(entry.orbit_root, []).append(entry.id)
    orbits = sorted(members.values(), key=lambda orbit: (-len(orbit), orbit[0]))
    if args.format == "json":
        text = json.dumps({
            "kind": catalog.kind.value,
            "width": args.width,
            "orbits": [{"root": orbit[0], "size": len(orbit), "members": orbit}
                       for orbit in orbits],
        }, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["root,size,members"]
        lines += [f"{orbit[0]},{len(orbit)},{';'.join(map(str, orbit))}"
                  for orbit in orbits]
        text = "\n".join(lines) + "\n"
    else:
        text = _table(("root", "size", "members"),
                      [(orbit[0], len(orbit), ";".join(map(str, orbit)))
                       for orbit in orbits])
    _emit(text, args.output)
    return EXIT_OK


def cmd_render(args) -> int:
    raw = _load(args.input)
    if args.index is not None:
        # the whole file is decoded, but only the drawn entry is built
        if not 0 <= args.index < len(raw):
            raise _Failure(EXIT_USAGE, f"index {args.index} out of range (0..{len(raw) - 1})")
        raw = [raw[args.index]]
    try:
        patterns = [PeriodicPattern(kind, width, rows) for kind, width, rows in raw]
    except InconsistentDomain as exc:
        raise _Failure(EXIT_USAGE, f"{args.input} holds an invalid pattern: {exc}")
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
