"""List the statements of src/yfrieze that no tier-1 test executes.

Run from the repository root:

    python tests/untested_statements.py [--check] [pytest arguments]

It starts a sys.settrace tracer before importing anything else, runs the
tests in this process through pytest.main (all of tests/ unless arguments
are given), and prints, per module, the line and text of each statement
that never ran.  A statement counts as run when any line of it, or of a
compound statement's header, produced a line event.  Function docstrings
and nonlocal/global declarations compile to no code and are skipped, and
so are the bodies of `if TYPE_CHECKING:` and `if __name__ == "__main__":`,
which no test run executes by design.
Children forked by the parallel search are traced too, but their lines
die with them, so code that only a child runs is listed.  The whole suite
takes a few minutes under the tracer; `coverage` is not needed.

With --check it also exits 1 when a statement goes untested outside the
branch that only the forked child runs (the body of `if pid == 0:` in
search._fork_scan); when the tests fail it exits with pytest's code.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "yfrieze")
executed: dict[str, set[int]] = {}
_targets: dict[str, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    hit = _targets.get(name)
    if hit is None:
        hit = _targets[name] = os.path.dirname(os.path.realpath(name)) == PACKAGE
        if hit:
            executed.setdefault(name, set())
    if not hit:
        return None
    executed[name].add(frame.f_code.co_firstlineno)
    return _local


sys.settrace(_global)

import ast  # noqa: E402  (after the tracer starts, so yfrieze's imports are seen)

import pytest  # noqa: E402


# The tests of the `if` statements whose bodies never run under pytest.
NEVER_RUN = {"TYPE_CHECKING", "__name__ == '__main__'"}
# The module, function and `if` test of the branch only a forked child runs.
CHILD_ONLY = ("search.py", "_fork_scan", "pid == 0")


def statement_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """(first, last) line of each statement that compiles to code and may
    run under pytest; for a compound statement, of its header (decorators
    included)."""
    spans, skipped = [], set()
    for node in ast.walk(tree):  # breadth-first: a statement before its body
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            skipped.add(body[0])  # a function docstring runs no code
        if isinstance(node, ast.If) and ast.unparse(node.test) in NEVER_RUN:
            skipped.update(child for statement in body for child in ast.walk(statement))
        if (not isinstance(node, ast.stmt) or isinstance(node, (ast.Nonlocal, ast.Global))
                or node in skipped):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = max(node.lineno, body[0].lineno - 1) if isinstance(body, list) else node.end_lineno
        spans.append((first, last))
    return sorted(spans)


def child_only_lines(tree: ast.Module) -> set[int]:
    """The lines of the CHILD_ONLY branch's body in the module's tree."""
    _, function, test = CHILD_ONLY
    return {line for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == function
            for branch in ast.walk(node)
            if isinstance(branch, ast.If) and ast.unparse(branch.test) == test
            for statement in branch.body
            for line in range(statement.lineno, statement.end_lineno + 1)}


def main() -> int:
    args = sys.argv[1:]
    check = "--check" in args
    args = [arg for arg in args if arg != "--check"] or [os.path.join(ROOT, "tests")]
    code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    sys.settrace(None)
    ran: dict[str, set[int]] = {}
    for name, lines in executed.items():
        ran.setdefault(os.path.realpath(name), set()).update(lines)
    unexpected: list[str] = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as f:
            source = f.read()
        lines, seen = source.splitlines(), ran.get(path, set())
        tree = ast.parse(source)
        spans = statement_spans(tree)
        missed = [first for first, last in spans if seen.isdisjoint(range(first, last + 1))]
        print(f"src/yfrieze/{name}: {len(missed)} of {len(spans)} statements untested")
        for line in missed:
            print(f"  {line}: {lines[line - 1].strip()}")
        child = child_only_lines(tree) if name == CHILD_ONLY[0] else set()
        unexpected += [f"src/yfrieze/{name}:{line}" for line in missed if line not in child]
    if check and not code and unexpected:
        print(f"--check: {len(unexpected)} untested outside the forked child: "
              + ", ".join(unexpected))
        return 1
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
