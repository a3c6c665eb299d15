"""``run.py compare A.json B.json``: one row per (workload, end-to-end
metric) with a verdict against the bounds fixed in ``BENCHMARK.json``.

Each side's reported ``value`` is compared; each side's own runs
(``samples``, with their quartiles) say how far to trust it.

* ``regressed`` — B's value is worse than A's by more than the bound,
  and either the spread is within the bound or every run of B is worse
  than every run of A;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, so the runs
  cannot say, unless every run of B reads better than every run of A;
* ``ok`` — otherwise.

Exits 1 on any ``regressed`` row or when B fails a larger share of its
operations than A on any workload.
"""

from __future__ import annotations

import argparse
import json


def spread(row):
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def verdict(a, b, better, bound):
    """``(verdict, worse_by)`` where ``worse_by`` is B's value against
    A's as a share of A's, positive when B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    a_runs = [sign * value for value in a["samples"]]
    b_runs = [sign * value for value in b["samples"]]
    all_worse = min(b_runs) > max(a_runs)
    all_better = max(b_runs) < min(a_runs)
    noisy = max(spread(a), spread(b)) > bound
    if worse_by > bound and (all_worse or not noisy):
        return "regressed", worse_by
    if noisy and not all_better:
        return "unresolved", worse_by
    return "ok", worse_by


def compare(a, b, contract):
    """Rows plus the exit code for two ``perf/v1`` documents."""
    rows = []
    failed = False
    for entry in contract["workloads"]:
        workload = entry["name"]
        side_a = a["workloads"].get(workload)
        side_b = b["workloads"].get(workload)
        if side_a is None or side_b is None:
            continue
        if side_b["ops_failed_share"] > side_a["ops_failed_share"]:
            failed = True
            rows.append((workload, "ops_failed_share", side_a["ops_failed_share"],
                         side_b["ops_failed_share"], None, "regressed"))
        for metric in contract["end_to_end"]:
            name = metric["name"]
            result, worse_by = verdict(
                side_a["end_to_end"][name], side_b["end_to_end"][name],
                metric["better"], metric["bound"],
            )
            failed = failed or result == "regressed"
            rows.append((workload, name, side_a["end_to_end"][name],
                         side_b["end_to_end"][name], worse_by, result))
    return rows, 1 if failed else 0


def render(rows):
    lines = [
        f"{'workload':<16s} {'metric':<14s} {'A value [runs q1, q3]':>34s} "
        f"{'B value [runs q1, q3]':>34s} {'worse by':>9s}  verdict"
    ]
    for workload, name, a, b, worse_by, result in rows:
        if worse_by is None:
            lines.append(
                f"{workload:<16s} {name:<14s} {a:>34g} {b:>34g} {'':>9s}  {result}"
            )
            continue
        cells = [
            f"{row['value']:.4f} [{row['q1']:.4f}, {row['q3']:.4f}]"
            for row in (a, b)
        ]
        lines.append(
            f"{workload:<16s} {name:<14s} {cells[0]:>34s} {cells[1]:>34s} "
            f"{worse_by:>+9.2%}  {result}"
        )
    return "\n".join(lines)


def main(argv, contract):
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__)
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows, code = compare(documents[0], documents[1], contract)
    print(render(rows))
    return code
