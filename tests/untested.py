"""The statements of ``src/vorwaves`` that no tier-1 test executes.

Run it from the root of a checkout, as CI does; the suite takes about a minute
under the trace:

    PYTHONPATH=src python tests/untested.py [pytest options]

It runs the tier-1 suite (``tests/``) in this process under a stdlib
``sys.settrace`` hook that follows only frames of code in
``src/vorwaves``, then prints ``file:line: text`` for each statement that
no test executed, and their count.  A statement is one of a function's
body (module top level and class bodies run at import, and are skipped
with the annotations of a class body), and it counts as executed when a
line event fires on any of its own lines.  The CLI runs that tests start in
subprocesses are not traced.  It exits with pytest's status when the suite
fails, with 1 when it lists a statement, and with 0 otherwise.  pytest does
not collect this file.
"""

import ast
import inspect
import os
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "vorwaves"


def statements(path: Path) -> dict:
    """``{line: (text, lines)}`` for each statement of ``path`` that lies in
    a function and owns code (a docstring owns none): its first line, that
    line's text, and the lines it owns."""
    source = path.read_text(encoding="utf-8")
    code_lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            code_lines.update(line for _, _, line in code.co_lines() if line)
    lines, out = source.splitlines(), {}

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and in_function:
                own = own_lines(child) & code_lines
                if own:
                    out[child.lineno] = (lines[child.lineno - 1].strip(), own)
            visit(child, in_function or isinstance(child, (ast.FunctionDef,
                                                           ast.AsyncFunctionDef)))

    visit(ast.parse(source), False)
    return out


def own_lines(node: ast.stmt) -> set:
    """The lines of ``node`` that none of its nested statements holds."""
    own = set(range(node.lineno, node.end_lineno + 1))
    for child in ast.walk(node):
        if child is not node and isinstance(child, ast.stmt):
            own -= set(range(child.lineno, child.end_lineno + 1))
    return own


def main(args) -> int:
    prefix, executed, known = str(PACKAGE) + os.sep, set(), {}

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            known[name] = os.path.realpath(name).startswith(prefix)
        return local if known[name] else None

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS), *args])
    finally:
        sys.settrace(None)
    ran = {}
    for name, line in executed:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hit = ran.get(str(path), set())
        for line, (text, own) in sorted(statements(path).items()):
            if not own & hit:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{missed} statements of src/vorwaves not executed")
    return int(status) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
