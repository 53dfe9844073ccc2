"""Line coverage of ``src/hypertest`` under the test suite, standard library only.

Runs pytest in this process with a line tracer on every thread
(``sys.settrace`` plus ``threading.settrace``), takes each module's
statements from its compiled code objects, and prints per module the
statements run out of the total and the lines of those that never ran.
Arguments go to pytest unchanged; the exit status is pytest's.

    python tools/linecov.py -q -p no:cacheprovider

Tracing slows the suite several times over.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypertest"


def statement_lines(path: Path) -> set[int]:
    """The first lines of the statements in ``path`` that compile to code.

    A line counts when some code object compiled from the file runs an
    instruction on it and a statement starts there; a docstring or a bare
    ``else:`` does not count.
    """
    source = path.read_text()
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines & {node.lineno for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.stmt)}


def _ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    modules = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in modules}

    @lru_cache(maxsize=None)
    def tracked(filename: str) -> set[int] | None:
        return hits.get(os.path.realpath(filename))

    def local(frame, event, arg):
        if event == "line":
            tracked(frame.f_code.co_filename).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        seen = tracked(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest  # imported before tracing starts; the package is imported by the tests

    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    run_total = all_total = 0
    for name, path in modules.items():
        lines = statement_lines(path)
        missed = sorted(lines - hits[name])
        run, total = len(lines) - len(missed), len(lines)
        run_total, all_total = run_total + run, all_total + total
        print(f"{path.name:<14} {run:>5}/{total:<5} {100 * run / total:5.1f} %"
              + (f"  not run: {_ranges(missed)}" if missed else ""))
    print(f"{'total':<14} {run_total:>5}/{all_total:<5} {100 * run_total / all_total:5.1f} %")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
