"""List the statements of src/pellzero that no test executes.

Runs pytest in this process under a stdlib line tracer (sys.settrace and
threading.settrace) that records only frames of src/pellzero, then
prints each statement whose line never ran, as path:line: source, and a
count.  A statement is the first line of an ast statement that the
compiled file maps an instruction to, so docstrings and lines such as
`else:` are not counted.  Arguments go to pytest (default: -q tests);
the exit code is pytest's.

Code that a test runs in another process is not traced: the tests that
start a fresh interpreter (the command-line entry point, the lazy-import
checks, the benchmark harness) and the workers of `verify --jobs`.  A
statement that only they reach is listed as not executed.  The tracer
makes the suite about three times slower (about 150 s against 50 s on a
2-vCPU machine).

    python tools/linecov.py [pytest args]
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pellzero"


def statement_lines(path: Path) -> list[int]:
    """The first lines of the statements of path that have code."""
    source = path.read_text()
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    return sorted(starts & lines)


def run_traced(args: list[str]) -> tuple[int, dict]:
    """pytest's exit code for args, and the lines run per resolved path
    of a src/pellzero file."""
    import pytest

    hits: dict[str, set] = {}
    adders: dict[str, object] = {}
    prefix = str(SRC) + os.sep

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in adders:
            path = os.path.realpath(name)
            adders[name] = (hits.setdefault(path, set()).add
                            if path.startswith(prefix) else None)
        add = adders[name]
        if add is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    # pellzero from src, here and in the interpreters that tests start.
    sys.path.insert(0, str(SRC.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    os.chdir(ROOT)
    code, hits = run_traced(argv or ["-q", "tests"])
    missed = total = 0
    for path in sorted(SRC.glob("*.py")):
        ran = hits.get(os.path.realpath(path), set())
        text = path.read_text().splitlines()
        lines = statement_lines(path)
        total += len(lines)
        for line in lines:
            if line not in ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} statements in {SRC.relative_to(ROOT)} not executed")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
