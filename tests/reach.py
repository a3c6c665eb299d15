"""Which lines of ``src/repro/protocols/`` a pytest run never executes.

    PYTHONPATH=src python tests/reach.py [pytest arguments]

Runs pytest in this process under a ``sys.settrace`` line recorder that
traces only frames of ``src/repro/protocols/``, then prints each file's
executable lines that no test reached (docstrings excluded), as markdown,
and appends them to ``$GITHUB_STEP_SUMMARY`` when that is set.  Worker
processes (``--jobs`` > 1) are not traced.  Exits with pytest's status.
"""

import ast
import dis
import os
import sys
import threading
import types

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PROTOCOLS = os.path.abspath(os.path.join(ROOT, "src", "repro", "protocols"))
hits = {}


def _line(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    if not frame.f_code.co_filename.startswith(PROTOCOLS):
        return None
    hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _line


def executable(path):
    """Line numbers that start bytecode, without docstring lines."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant):
                lines -= set(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def report():
    rows = ["### Protocol reach: unexecuted lines of src/repro/protocols/", ""]
    for name in sorted(os.listdir(PROTOCOLS)):
        if name.endswith(".py"):
            path = os.path.join(PROTOCOLS, name)
            missed = sorted(executable(path) - hits.get(path, set()))
            rows.append(f"- `{name}`: {', '.join(map(str, missed)) or 'none'}")
    return "\n".join(rows) + "\n"


if __name__ == "__main__":
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(sys.argv[1:])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    text = report()
    print(text)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a", encoding="utf-8") as out:
            out.write(text)
    sys.exit(status)
