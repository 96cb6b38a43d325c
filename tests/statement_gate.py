"""Statement gate: run the test suite in this process under ``sys.settrace``
and fail on any statement of ``src/passive_decoy/*.py`` that never ran.

Usage, from the repository root::

    python tests/statement_gate.py [pytest arguments]

The arguments go to ``pytest.main`` (default ``-q``).  Tracing needs only the
standard library.  A statement ran when the tracer saw any line it owns: its
lines, its decorators' lines included, less those of the statements nested
in it, that hold code.  Exit status: pytest's when the suite fails, else 1
when a statement outside ``ALLOWED`` never ran or an ``ALLOWED`` entry names
no never-run statement, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "passive_decoy"

# Statements no in-process test can run, keyed by (file, innermost function
# or "<module>", first source line).
ALLOWED = {
    # Imports for type checkers alone, under ``if TYPE_CHECKING:``.
    ("cli.py", "<module>", "from .config import RunConfig"),
    ("reports.py", "<module>", "from .config import RunConfig"),
    ("reports.py", "<module>", "from .optimize import OptimizationResult, ScanRow"),
    # The console script, which CI runs in a child process.
    ("cli.py", "entry_point", "sys.exit(main())"),
    ("cli.py", "<module>", "entry_point()"),
    # A forked worker starting; tests/test_simulate.py runs the worker's
    # life, _work, in this process.
    ("forkjoin.py", "fork_join", "_work(work, rank, write)"),
    # Invariants that no input can break.
    ("config.py", "_from_json",
     'raise TypeError(f"no JSON form for {path} of type {tp!r}")'),
    ("records.py", "_bad_record",
     'raise AssertionError("the bulk parser rejected a block of canonical records")'),
}


def code_lines(code) -> set[int]:
    """Lines that hold bytecode in ``code`` and the code objects it nests."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(source: str, path: str):
    """``(scope, node, owned lines)`` for each statement of a module, where
    ``scope`` names the innermost enclosing function or is "<module>"."""
    executable = code_lines(compile(source, path, "exec"))

    def span(node) -> set[int]:
        decorators = getattr(node, "decorator_list", [])
        first = min([node.lineno, *(d.lineno for d in decorators)])
        return set(range(first, node.end_lineno + 1))

    def walk(body, scope):
        for node in body:
            nested = [child for child in ast.walk(node)
                      if child is not node and isinstance(child, ast.stmt)]
            owned = span(node) & executable
            for child in nested:
                owned -= span(child)
            yield scope, node, owned
            inner = (node.name if isinstance(node, (ast.FunctionDef,
                                                    ast.AsyncFunctionDef))
                     else scope)
            for field in ("body", "orelse", "finalbody"):
                yield from walk(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                yield from walk(handler.body, inner)
            for case in getattr(node, "cases", []):
                yield from walk(case.body, inner)

    yield from walk(ast.parse(source, path).body, "<module>")


def never_run(hits: dict[str, set[int]]) -> tuple[list[tuple[str, int, tuple]], int]:
    """``(file, line, allowlist key)`` of each statement whose owned lines
    hold code and none of which ran, and the number of statements whose
    owned lines hold code."""
    missed, total = [], 0
    for path in sorted(hits):
        source = Path(path).read_text(encoding="utf-8")
        lines = source.splitlines()
        for scope, node, owned in statements(source, path):
            total += bool(owned)
            if owned and not owned & hits[path]:
                text = lines[node.lineno - 1].strip()
                missed.append((path, node.lineno,
                               (Path(path).name, scope, text)))
    return missed, total


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines of the package it ran."""
    hits = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def local_tracer(lines):
        add = lines.add

        def trace(frame, event, arg):
            add(frame.f_lineno)
            return trace
        return trace

    tracers = {path: local_tracer(lines) for path, lines in hits.items()}
    resolved: dict[str, object] = {}

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return resolved[name]
        except KeyError:
            resolved[name] = tracers.get(os.path.realpath(name))
            return resolved[name]

    import pytest  # before tracing: only the package's own lines matter

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(trace_calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = traced_run(argv or ["-q"])
    if code != 0:
        print(f"statement gate: the suite failed (exit {code})")
        return code
    missed, total = never_run(hits)
    seen = {key for _, _, key in missed}
    for path, line, key in missed:
        if key not in ALLOWED:
            print(f"{os.path.relpath(path, ROOT)}:{line}: never ran: {key[2]}")
    for key in sorted(ALLOWED - seen):
        print(f"statement gate: allowed statement {key} ran or no longer exists")
    print(f"statement gate: {len(missed)} of {total} statements never ran, "
          f"{len(seen & ALLOWED)} of them allowed")
    return 1 if seen != ALLOWED else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
