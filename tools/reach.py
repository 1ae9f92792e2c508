"""Run the tier-1 suite under a stdlib line tracer and list the statements
of src/collapsekit that no test runs.

    PYTHONPATH=src python -X dev tools/reach.py

A statement counts as reached only when a test that draws no example runs
it: hypothesis properties run untraced, so what they reach depends on what
they draw, and the listing is the same on every run.  Exits 1 if a test
fails, a property included, a statement outside ALLOWED never runs, or an
ALLOWED entry is stale: it names no unreached statement, and would excuse
the next one that matches its text.  Subprocesses started by a test are not
traced.  On Python 3.11 CI this run is the tier-1 run.
"""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "collapsekit"
# (module, enclosing function, first line of the statement): why no
# in-process test runs it
ALLOWED = {
    ("cli.py", "<module>", "import numpy as np"): "under TYPE_CHECKING: read by type checkers only",
    ("cli.py", "<module>", "from .tables import CategoricalScheme, ContingencyTable"): "under TYPE_CHECKING",
    ("errors.py", "<module>", "import numpy as np"): "under TYPE_CHECKING",
    ("cli.py", "<module>", "sys.exit(main())"): "the __main__ entry; runs in the subprocess tests",
    ("cli.py", "main", "except BrokenPipeError:"): "runs in TestBrokenPipe's child, whose reader closes the pipe",
    ("cli.py", "main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"): "as above; "
    "in process it would point the test runner's own stdout at devnull",
    ("cli.py", "read_records", "raise"): "if the rescan of a faulty block names no fault, "
    "the re-raise keeps the read from silently truncating",
}
hit = set()


def trace_lines(frame, event, arg):
    if event == "line":
        hit.add((frame.f_code.co_filename, frame.f_lineno))
    return trace_lines


def trace_calls(frame, event, arg):
    return trace_lines if frame.f_code.co_filename.startswith(str(SRC)) else None


class Retrace:
    # a test or a library may replace the trace function; reinstall it per
    # test, and only for a test that draws no example
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(None if getattr(item.obj, "is_hypothesis_test", False) else trace_calls)
        yield

    pytest_runtest_call = pytest_runtest_setup


def lines(code):
    yield from (line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from lines(const)


def innermost(nodes, line):
    return min((n for n in nodes if n.lineno <= line <= n.end_lineno),
               key=lambda n: n.end_lineno - n.lineno, default=None)


def unreached(path):
    source = path.read_text()
    text = source.splitlines()
    nodes = list(ast.walk(ast.parse(source)))
    stmts = [n for n in nodes if isinstance(n, (ast.stmt, ast.excepthandler))]
    defs = [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    missed = set(lines(compile(source, str(path), "exec"))) - {
        line for name, line in hit if name == str(path)
    }
    for line in sorted(missed):
        # one report per innermost statement, at its first line
        stmt = innermost(stmts, line)
        scope = innermost([d for d in defs if d is not stmt], line)
        yield stmt.lineno, scope.name if scope else "<module>", text[stmt.lineno - 1].strip()


if __name__ == "__main__":
    sys.settrace(trace_calls)
    code = pytest.main(["-q"], plugins=[Retrace()])
    sys.settrace(None)
    found = sorted({(p.name, *u) for p in SRC.glob("*.py") for u in unreached(p)})
    left = [f for f in found if (f[0], *f[2:]) not in ALLOWED]
    stale = sorted(ALLOWED.keys() - {(f[0], *f[2:]) for f in found})
    for name, line, scope, stmt in found:
        mark = "UNREACHED" if (name, line, scope, stmt) in left else "allowed"
        print(f"{mark} src/collapsekit/{name}:{line} in {scope}: {stmt}")
    for name, scope, stmt in stale:
        print(f"STALE allow-list entry src/collapsekit/{name} in {scope}: {stmt}")
    print(f"{len(left)} statements unreached outside the allow-list, {len(stale)} stale allow-list entries")
    sys.exit(code or int(bool(left or stale)))
