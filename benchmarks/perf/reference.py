"""``reference.json``: the exact simulated outputs every run is checked
against, and the self-checks that anchor it to the repository's own
gates rather than to whatever one machine printed.

Sweep points are generated on the symbolic engine (seconds instead of
minutes; simulated time comes from the operation ledger, so real and
symbolic agree exactly).  The self-check then proves what the reference
assumes:

* seeds 0 and 1 give identical sweep points (so one entry covers every
  seed),
* the symbolic n=64 cells equal the committed
  ``benchmarks/results/scale_baseline_n64.json`` CI baseline,
* every ``figures-lan`` and ``crypto-dh2048`` real-engine cell equals
  its symbolic twin in the reference,
* the ``churn-faults`` entries regenerate bit-identically.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
BASELINE_PATH = os.path.join(
    ROOT, "benchmarks", "results", "scale_baseline_n64.json"
)
SEEDS = (0, 1)


def _imports():
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def scale_points(w, seed, n, dh_group, engine):
    """``{point key: exact simulated outputs}`` of one scale sweep."""
    from repro.bench import run_scale_cell

    points = {}
    for spec in w.scale_specs(seed, n, dh_group, engine):
        result = run_scale_cell(spec)
        for m in (result["join"], result["leave"]):
            points[w.point_key(m)] = w.point_value(m)
    return points


def sweep_points(w, workload, seed, engine):
    """The same for one sweep workload at its committed sizes."""
    from repro.bench import run_figure_cell

    sizes = w.SIZES["full"][workload]
    if workload == "figures-lan":
        return {
            w.point_key(m): w.point_value(m)
            for spec in w.figure_specs(seed, sizes, engine=engine)
            for m in run_figure_cell(spec)["measurements"]
        }
    dh_group = "dh-2048" if workload == "crypto-dh2048" else "dh-512"
    return scale_points(w, seed, sizes["n"], dh_group, engine)


def load_cells(w):
    from repro.bench import run_load_cell

    sizes = w.SIZES["full"]["churn-faults"]
    return {
        key: run_load_cell(spec)["cell"] for key, spec in w.load_specs(sizes)
    }


def chaos_cells(w, seed):
    from repro.bench import run_chaos_cell

    sizes = w.SIZES["full"]["churn-faults"]
    return {
        key: run_chaos_cell(spec)["cell"]
        for key, spec in w.chaos_specs(seed, sizes)
    }


def build():
    w = _imports()
    reference = {
        "schema": "perf-reference/v1",
        "sizes": w.SIZES["full"],
        "workloads": {},
        # the symbolic n=64 LAN dh-512 cells the CI baseline also holds
        "anchor_scale_symbolic_n64": scale_points(
            w, 0, 64, "dh-512", "symbolic"
        ),
    }
    for workload in ("figures-lan", "scale-symbolic", "crypto-dh2048"):
        reference["workloads"][workload] = {
            "cells": sweep_points(w, workload, SEEDS[0], "symbolic"),
            "seeds": {},
        }
    reference["workloads"]["churn-faults"] = {
        "cells": load_cells(w),
        "seeds": {str(seed): chaos_cells(w, seed) for seed in SEEDS},
    }
    return reference


def self_check(reference):
    """Every way the reference could be wrong, as a list of messages."""
    w = _imports()
    problems = []
    if reference["sizes"] != w.SIZES["full"]:
        problems.append("reference was generated for other workload sizes")
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = {
            w.point_key(m): w.point_value(m)
            for m in json.load(handle)["measurements"]
            if m["group_size"] == 64
        }
    if reference["anchor_scale_symbolic_n64"] != baseline:
        problems.append(
            "symbolic n=64 cells differ from benchmarks/results/"
            "scale_baseline_n64.json"
        )
    for workload in ("figures-lan", "scale-symbolic", "crypto-dh2048"):
        want = reference["workloads"][workload]["cells"]
        if sweep_points(w, workload, SEEDS[1], "symbolic") != want:
            problems.append(f"{workload}: seed {SEEDS[1]} differs from seed "
                            f"{SEEDS[0]} — sweep points depend on the seed")
    for workload in ("figures-lan", "crypto-dh2048"):
        want = reference["workloads"][workload]["cells"]
        if sweep_points(w, workload, SEEDS[0], w.REAL_ENGINE) != want:
            problems.append(
                f"{workload}: real-engine cells differ from their symbolic twin"
            )
    churn = reference["workloads"]["churn-faults"]
    if load_cells(w) != churn["cells"]:
        problems.append("churn-faults load cells do not regenerate")
    for seed in SEEDS:
        if chaos_cells(w, seed) != churn["seeds"][str(seed)]:
            problems.append(f"churn-faults chaos seed {seed} does not regenerate")
    return problems


def main(write):
    if write:
        reference = build()
    else:
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            reference = json.load(handle)
    # JSON round-trip first, so the check compares what a run will load
    reference = json.loads(json.dumps(reference))
    problems = self_check(reference)
    for problem in problems:
        print(f"self-check FAILED: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("reference self-checks pass")
    if write:
        with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(REFERENCE_PATH)}")
    return 0
