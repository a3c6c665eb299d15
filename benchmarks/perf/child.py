"""One fresh process per (workload, run): the unit every number comes from.

``run.py`` starts this file once per run.  A fresh process matters:
``RealEngine.power_cache`` and the fixed-base table cache are process-wide
and every cell is seeded identically, so a second in-process run of the
same cells would be served from the cache and measure nothing.  The
process therefore refuses to run a second workload.

Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import resource
import sys
import time

_STARTED_WALL = time.time()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

_workload_ran = False


def load_reference(path, workload, profile, seed):
    """The reference cells one run is checked against, or ``None``.

    Sweep points and the churn-faults load cells do not depend on the
    seed (simulated time comes from the operation ledger, never from the
    key material; the self-check proves it on seeds 0 and 1); chaos cells
    exist per seed.
    """
    if profile != "full" or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        entry = json.load(handle)["workloads"].get(workload)
    if entry is None:
        return None
    return {**entry["cells"], **entry["seeds"].get(str(seed), {})}


def run_pass(workload, seed, profile="full", trace=False, sizes=None,
             reference_path=REFERENCE_PATH, out_dir=None, run_id="run",
             spawned_at=_STARTED_WALL):
    """Run one workload once in this process and return its result dict."""
    global _workload_ran
    if _workload_ran:
        raise RuntimeError(
            "this process already ran a workload; the power cache and "
            "fixed-base tables are warm, so a second one would measure "
            "nothing — start a fresh process"
        )
    _workload_ran = True

    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro
    import tracing
    import workloads

    if sizes is None:
        sizes = workloads.SIZES[profile][workload]
    spans = tracing.SpanRecorder(workload, run_id)
    profiler = cProfile.Profile() if trace else None
    timing = {}
    setup_span = contextlib.ExitStack()
    setup_span.enter_context(spans.span("setup"))

    @contextlib.contextmanager
    def measured():
        setup_span.close()
        timing["setup_s"] = time.time() - spawned_at
        with spans.span("measure"):
            if profiler is not None:
                profiler.enable()
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                yield
            finally:
                timing["wall_s"] = time.perf_counter() - wall
                timing["cpu_s"] = time.process_time() - cpu
                if profiler is not None:
                    profiler.disable()

    run = workloads.Pass(
        seed, sizes,
        load_reference(reference_path, workload, profile, seed),
        spans, measured,
    )
    workloads.WORKLOADS[workload](run)

    result = {
        "workload": workload,
        "seed": seed,
        "profile": profile,
        "run": run_id,
        "traced": bool(trace),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "drift_checked": run.drift_checked,
        "cells": run.cells,
        "op_ms": run.op_ms,
        "layer_ms": run.layer_ms,
        "counts": run.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result.update(timing)
    if trace:
        fold, profiled = tracing.fold_profile(
            profiler, os.path.dirname(os.path.abspath(repro.__file__))
        )
        result["fold_s"] = fold
        result["profiled_s"] = profiled
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            stem = os.path.join(out_dir, f"trace-{workload}-seed{seed}")
            spans.write(stem + ".spans.jsonl")
            with open(stem + ".fold.json", "w", encoding="utf-8") as handle:
                json.dump(
                    {"fold_s": fold, "profiled_s": profiled,
                     "wall_s": timing["wall_s"]},
                    handle, indent=2,
                )
            result["spans_path"] = os.path.relpath(stem + ".spans.jsonl", ROOT)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--probes", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", help="JSON object overriding the profile")
    parser.add_argument("--reference", default=REFERENCE_PATH)
    parser.add_argument("--out-dir")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--spawned-at", type=float, default=_STARTED_WALL)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.probes:
        sys.path.insert(0, SRC)
        import probes

        result = probes.run_all(args.profile)
    else:
        result = run_pass(
            args.workload, args.seed, args.profile, bool(args.trace),
            json.loads(args.sizes) if args.sizes else None,
            args.reference, args.out_dir, args.run_id, args.spawned_at,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
