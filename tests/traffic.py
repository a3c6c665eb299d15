"""Which functions of ``src/repro`` the program's own traffic never enters.

    PYTHONPATH=src python tests/traffic.py

Runs, in this process and under :mod:`reach`'s ``sys.settrace``
recorder, the traffic the program serves: every ``python -m
repro.bench`` command line that ``.github/workflows/ci.yml`` runs, each
with ``--jobs 1 --no-cache``, then the six examples.  It prints, as
markdown, each function of ``src/repro`` that none of them entered
(lambdas and comprehensions aside), and appends the list to
``$GITHUB_STEP_SUMMARY`` when that is set.  Exits 1 when a command
fails, since the reading is then incomplete.

Two CI sweeps run at their smallest size here, to keep the traced run in
minutes: the sequential symbolic sweep (CI: n = 64, 128, 256) and the
full real-engine sweep (CI: n = 32 … 1024).  CI's ``REPRO_BIGNUM``
settings are not applied; the backend is the default one.  Worker
processes and the spawned ``bench live`` daemon are not traced.

A function this run never enters is a candidate for deletion; the tests
(``tests/reach.py``) are a second, wider reading, since they also reach
what only tests use.
"""

import contextlib
import glob
import inspect
import io
import os
import runpy
import sys
import tempfile
import threading
import types

import reach

BASELINE = os.path.join(reach.ROOT, "benchmarks", "results", "scale_baseline_n64.json")
ALL = ["--protocols", "BD", "CKD", "GDH", "STR", "TGDH"]
SOME = ["--protocols", "BD", "GDH", "TGDH"]
LOAD = ["--groups", "4", "--group-size", "3", "--rate", "15",
        "--duration-ms", "1000", "--seed", "7"]


def commands():
    """CI's bench command lines, in CI order, duplicates run once."""
    from repro.protocols import available

    yield ["scale", "--sizes", "16", "32", "64", *ALL, "--engine", "symbolic",
           "--seed", "0", "-o", "BENCH_regression.json"]
    yield ["compare", BASELINE, "BENCH_regression.json"]
    yield ["scale", "--sizes", "64", "--engine", "symbolic", "-o", "BENCH_scale_seq.json"]
    yield ["scale", "--sizes", "32", "--engine", "real", "-o", "BENCH_scale_real.json"]
    yield ["scale", "--sizes", "16", "32", *ALL, "--engine", "real", "--seed", "0",
           "-o", "SCALE_PY.json"]
    yield ["scale", "--sizes", "16", "32", *SOME, "--engine", "symbolic",
           "--seed", "7", "-o", "SWEEP_SEQ.json"]
    yield ["figure", "14", "--sizes", "3", "5", "--repeats", "1", "--engine",
           "symbolic", "--seed", "7", "-o", "FIG14_SEQ.txt"]
    yield ["scale", "--sizes", "16", "32", *SOME, "--engine", "symbolic",
           "--seed", "7", "--observe", "-o", "WARM_1.json"]
    yield ["trace", "--protocol", "TGDH", "--size", "16", "--event", "join",
           "-o", "trace.json", "--jsonl", "trace.jsonl"]
    yield ["report", "--protocol", "GDH", "--size", "13", "--event", "leave"]
    yield ["scale", "--sizes", "32", "64", "128", "--protocols", "TGDH",
           "--engine", "symbolic", "-o", "BENCH_scale.json"]
    yield ["scale", "--sizes", "8", "16", *ALL, "--engine", "symbolic",
           "--seed", "3", "-o", "OBS_OFF.json"]
    yield ["scale", "--sizes", "8", "16", *ALL, "--engine", "symbolic",
           "--seed", "3", "--observe", "-o", "OBS_ON.json"]
    mode = "inline"
    for protocol in available():
        yield ["live", "--protocol", protocol, "-n", "4", "--timeout", "60",
               "--daemon", mode, "-o", f"BENCH_live_{protocol}.json"]
        mode = "spawn"
    yield ["chaos", "--protocols", "BD", "GDH", "--drops", "0", "0.15",
           "--size", "4", "--repeats", "1", "-o", "BENCH_chaos.json"]
    yield ["load", "--arrivals", "poisson", "flash", *LOAD, "-o", "BENCH_load.json"]
    yield ["load", "--arrivals", "flash", "poisson", *LOAD, "-o", "BENCH_load_rev.json"]
    yield ["compare", "BENCH_load.json", "BENCH_load_rev.json"]


def run_traffic():
    """Run every command and example; return the ones that failed.
    ``repro`` is imported here, under the recorder, so what runs at
    import time counts as traffic too."""
    from repro.bench.cli import main as bench

    failed = []
    pooled = {"figure", "scale", "chaos", "load"}
    for argv in commands():
        if argv[0] in pooled:
            argv = [*argv, "--jobs", "1", "--no-cache"]
        with contextlib.redirect_stdout(io.StringIO()):
            status = bench(argv)
        print(f"{'ok  ' if status == 0 else 'FAIL'} bench {' '.join(argv)}", file=sys.stderr)
        if status:
            failed.append(" ".join(argv))
    for path in sorted(glob.glob(os.path.join(reach.ROOT, "examples", "*.py"))):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(path, run_name="__main__")
            status = 0
        except SystemExit as stop:
            status = stop.code or 0
        print(f"{'ok  ' if status == 0 else 'FAIL'} {os.path.basename(path)}", file=sys.stderr)
        if status:
            failed.append(path)
    return failed


def functions(path):
    """``(first line, qualified name)`` of every function in ``path``
    (class bodies and module code, which run at import, are not)."""
    with open(path, encoding="utf-8") as handle:
        stack = [compile(handle.read(), path, "exec")]
    found = []
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            found.append((code.co_firstlineno, getattr(code, "co_qualname", code.co_name)))
    return sorted(found)


def report(entered):
    rows, total = [], 0
    for path in sorted(glob.glob(os.path.join(reach.PACKAGE, "**", "*.py"), recursive=True)):
        missed = [
            f"{name} ({line})" for line, name in functions(path)
            if (path, line) not in entered
        ]
        total += len(missed)
        if missed:
            rows.append(f"- `{os.path.relpath(path, reach.PACKAGE)}`: {', '.join(missed)}")
    head = f"### Traffic: {total} functions of src/repro never entered"
    return "\n".join([head, ""] + rows) + "\n"


if __name__ == "__main__":
    entered = set()

    def _call(frame, event, arg):
        tracer = reach._call(frame, event, arg)
        if tracer is not None:
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        return tracer

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        threading.settrace(_call)
        sys.settrace(_call)
        try:
            failed = run_traffic()
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(here)
    text = report(entered)
    print(text)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a", encoding="utf-8") as out:
            out.write(text)
    if failed:
        print(f"{len(failed)} command(s) failed: {failed}", file=sys.stderr)
    sys.exit(1 if failed else 0)
