#!/usr/bin/env python3
"""Statements of the library that no test executes, with the standard
library only.

It runs pytest in this process under `trace.Trace(count=1)`, with `src/`
and the repository root on `sys.path` and `src/` on `PYTHONPATH`, then
prints each statement of `src/specrepair/` that never ran, as
`path:line: text`, and per module its statements and how many never ran.
A statement is one that `ast` finds with no statement inside it, so each
unexecuted branch shows as the statements it holds; docstrings are not
statements here.

Code that runs only in a subprocess (the CLI tests that start
`python -m specrepair`) is not counted, so it shows as never run.
Tracing is slow: the whole suite takes about a quarter of an hour this
way on a 2-vCPU machine, against a minute and a half without it.

Usage:

    python scripts/coverage.py [PYTEST_ARG ...]

The arguments go to pytest as given; with none it runs the whole suite.
The exit status is pytest's, so a failing test is not read as coverage.
"""

import ast
import os
import sys
import threading
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "specrepair"


def statements(path: Path) -> list[tuple[int, int, str]]:
    """(first line, last line, first line's text) of each statement in the
    module at `path` that holds no other statement, docstrings left out."""
    text = path.read_text()
    lines = text.splitlines()
    out = []
    for stmt in ast.walk(ast.parse(text)):
        if not isinstance(stmt, ast.stmt) or any(
                isinstance(child, ast.stmt)
                for child in ast.iter_child_nodes(stmt)):
            continue
        if isinstance(stmt, ast.Expr) and \
                isinstance(stmt.value, ast.Constant) and \
                isinstance(stmt.value.value, str):
            continue
        out.append((stmt.lineno, stmt.end_lineno,
                    lines[stmt.lineno - 1].strip()))
    return sorted(out)


def main(args: list[str]) -> int:
    import pytest

    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    tracer = trace.Trace(count=1, trace=0)
    package = str(PACKAGE)

    def library_frames(frame, why, arg):
        """`tracer`'s line counter for the library's frames only, chosen
        by path: `trace.Trace`'s own filter caches its choice by a
        module's base name, so it would take `specrepair/__init__.py` for
        the first `__init__.py` it skipped."""
        if frame.f_code.co_filename.startswith(package):
            return tracer.localtrace
        return None

    threading.settrace(library_frames)
    sys.settrace(library_frames)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {(str(Path(name).resolve()), line)
           for name, line in tracer.results().counts}
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        found = statements(path)
        name = str(path.resolve())
        missed = [(first, text) for first, last, text in found
                  if not any((name, line) in ran
                             for line in range(first, last + 1))]
        shown = path.relative_to(ROOT)
        for first, text in missed:
            print(f"{shown}:{first}: {text}")
        rows.append((path.name, len(found), len(missed)))
    print(f"{'module':<16}{'statements':>12}{'unexecuted':>12}")
    for name, count, missed in rows + [
            ("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]:
        print(f"{name:<16}{count:>12}{missed:>12}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
