"""Host-time benchmark of the reproduction: five workloads, end-to-end
metrics with regression bounds, and a per-layer budget under them.

    python3 benchmarks/perf/run.py                      every workload, traced
                                                        run and layer probes;
                                                        writes out/perf.json
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
                                                        one workload, one JSON
                                                        object on the last line
                                                        (the BENCHMARK.json
                                                        contract)
    python3 benchmarks/perf/run.py --smoke              everything at toy size
    python3 benchmarks/perf/run.py --write-reference    regenerate reference.json
    python3 benchmarks/perf/run.py --self-check         anchor reference.json
    python3 benchmarks/perf/run.py compare A.json B.json

The system is a simulator plus a live transport, so two clocks exist:
simulated milliseconds are outputs, checked for identity; host seconds
are the performance being measured.  Every number comes from a fresh
single-threaded child process (``child.py``); this file only starts
children, aggregates and prints.  Metric names, units, directions and
bounds are read from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

#: a child that runs longer than this is killed and the run fails; the
#: contract allows 180 s for a whole invocation
CHILD_TIMEOUT_S = 150.0

PROTOCOLS = ("bd", "ckd", "gdh", "str", "tgdh")


class ChildFailed(RuntimeError):
    pass


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- children ---------------------------------------------------------------


def spawn(arguments):
    """Run ``child.py`` to completion and return the JSON it printed."""
    command = [sys.executable, CHILD, "--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(
            command + arguments, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(
            f"child {' '.join(arguments)} exceeded {CHILD_TIMEOUT_S:g} s"
        ) from None
    if done.returncode != 0:
        raise ChildFailed(
            f"child {' '.join(arguments)} exited {done.returncode}:\n"
            + done.stderr[-2000:]
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pass(workload, seed, profile, run_id, trace=False):
    return spawn([
        "--workload", workload, "--seed", str(seed), "--profile", profile,
        "--run-id", run_id, "--trace", "1" if trace else "0",
        "--out-dir", OUT_DIR,
    ])


def measure(workload, seed, seconds, profile):
    """Fresh untraced children until their measured regions add up to
    ``seconds`` (always at least one)."""
    passes = []
    spent = 0.0
    while not passes or spent < seconds:
        result = run_pass(workload, seed, profile, f"run{len(passes)}")
        passes.append(result)
        spent += result["wall_s"]
    return passes


# -- aggregation ------------------------------------------------------------


def geomean(values):
    return math.exp(sum(math.log(value) for value in values) / len(values))


def percentile(samples, q):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def class_geomean(op_ms, q):
    """Geometric mean over operation classes of each class's ``q``
    percentile — a pooled percentile of a ten-mode mixture is unstable."""
    return geomean([percentile(samples, q) for samples in op_ms.values()])


def pass_end_to_end(result):
    """One run's own value of every end-to-end metric."""
    return {
        "setup_s": result["setup_s"],
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "rekey_ms_p50": class_geomean(result["op_ms"], 0.5),
    }


def least_disturbed(passes, key):
    """The measured region's ``key`` (``wall_s``/``cpu_s``) with each
    cell taken from the run where it was fastest.

    Everything that disturbs a run on a shared box — a neighbour on the
    sibling hyperthread, a frequency dip — only ever adds time, in bursts
    shorter than a run.  Taking each cell's minimum over the fresh runs
    (and the minimum of what lies between cells) votes the bursts out
    cell by cell; a median of whole-run totals cannot, because most runs
    catch a burst somewhere.
    """
    names = [[cell["name"] for cell in result["cells"]] for result in passes]
    if any(row != names[0] for row in names):
        return min(result[key] for result in passes)  # a cell died somewhere
    columns = zip(*(result["cells"] for result in passes))
    between = min(
        result[key] - sum(cell[key] for cell in result["cells"])
        for result in passes
    )
    return between + sum(min(cell[key] for cell in column) for column in columns)


def least_disturbed_p50(passes):
    """``rekey_ms_p50`` with each class's median taken from the run
    where it was lowest."""
    classes = passes[0]["op_ms"]
    return geomean([
        min(
            percentile(result["op_ms"][cls], 0.5)
            for result in passes if cls in result["op_ms"]
        )
        for cls in classes
    ])


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def end_to_end(passes, contract):
    """Every end-to-end metric over one invocation's fresh runs.

    ``value`` is what the benchmark reports: the least-disturbed
    estimate for every timing (for set-up, simply the fastest of the
    fresh runs), the median over runs for memory.  ``samples`` keeps each
    run's own reading so ``compare`` can show the spread.
    """
    per_pass = [pass_end_to_end(result) for result in passes]
    summary = {}
    for metric in contract["end_to_end"]:
        name = metric["name"]
        samples = [values[name] for values in per_pass]
        if name in ("wall_s", "cpu_s"):
            value = least_disturbed(passes, name)
        elif name == "rekey_ms_p50":
            value = least_disturbed_p50(passes)
        elif name == "setup_s":
            value = min(samples)
        else:
            value = statistics.median(samples)
        q1, q3 = quartiles(samples)
        summary[name] = {
            "unit": metric["unit"], "value": value,
            "median": statistics.median(samples), "q1": q1, "q3": q3,
            "samples": samples,
        }
    return summary


def per_layer(base, traced, probe_values, contract):
    """Every per-layer metric for one workload.

    ``base`` is an untraced run (exact counts and host times), ``traced``
    the profiled run of the same cells, ``probe_values`` the layer
    probes.  A metric the workload does not exercise reads 0.
    """
    counts = base["counts"]
    values = dict(probe_values)
    for package, seconds in traced["fold_s"].items():
        values[f"{package}.self_s"] = seconds
    values["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    lookups = counts.get("powercache.hits", 0) + counts.get("powercache.misses", 0)
    values["crypto.powercache_hit_ratio"] = (
        counts.get("powercache.hits", 0) / lookups if lookups else 0.0
    )
    for name in (
        "crypto.exponentiations", "faults.stalls", "faults.restarts",
        "faults.drops", "faults.retries", "workload.member_epochs",
        "workload.sim_drift_cells",
    ):
        values[name] = counts.get(name, 0)
    epochs = counts.get("workload.member_epochs", 0)
    values["workload.member_epochs_per_host_s"] = epochs / base["wall_s"]
    values["core.restart_ratio"] = (
        counts.get("load.restarts", 0) / epochs if epochs else 0.0
    )
    values["net.idle_s"] = base["wall_s"] - base["cpu_s"]
    connects = base["layer_ms"].get("net.connect_join_ms")
    values["net.connect_join_ms"] = statistics.median(connects) if connects else 0.0
    live = base["op_ms"] if base["workload"] == "live-loopback" else {}
    values["net.rekey_ms_p90"] = class_geomean(live, 0.9) if live else 0.0
    for protocol in PROTOCOLS:
        for event in ("join", "leave"):
            samples = live.get(f"{protocol.upper()}:{event}")
            values[f"net.{protocol}.{event}_ms_p50"] = (
                statistics.median(samples) if samples else 0.0
            )
    layer = {}
    for metric in contract["per_layer"]:
        layer[metric["name"]] = {
            "unit": metric["unit"], "value": values[metric["name"]],
        }
    extras = {
        name: value for name, value in values.items() if name not in layer
    }
    return layer, extras


def fold_check(traced):
    """The packages' self times against the profiled region's wall."""
    total = sum(traced["fold_s"].values())
    return {
        "fold_sum_s": total,
        "profiled_s": traced["profiled_s"],
        "traced_wall_s": traced["wall_s"],
        "fold_vs_wall": total / traced["wall_s"],
        "spans": traced.get("spans_path"),
    }


# -- environment ------------------------------------------------------------


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment():
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "REPRO_BIGNUM": os.environ.get("REPRO_BIGNUM", ""),
        "gmpy2_available": importlib.util.find_spec("gmpy2") is not None,
        "git_commit": git_commit(),
        "loadavg_1min_at_start": load,
        "noisy": load > nproc,
        "network": "host loopback (127.0.0.1), not a link",
    }


# -- printing ---------------------------------------------------------------


def print_end_to_end(workload, summary, passes):
    attempted = sum(result["attempted"] for result in passes)
    failed = sum(result["failed"] for result in passes)
    print(
        f"== {workload}: {len(passes)} runs, {attempted} operations attempted, "
        f"{failed} failed, ops_failed_share {failed / attempted:g}"
    )
    if not all(result["drift_checked"] for result in passes):
        print("   (no reference for this seed/profile: drift check skipped)")
    for result in passes:
        for why in result["failures"]:
            print(f"   FAILED {why}")
    for name, row in summary.items():
        print(
            f"   {name:<14s} {row['value']:12.4f} {row['unit']:<4s} "
            f"[runs: median {row['median']:.4f}, q1 {row['q1']:.4f}, "
            f"q3 {row['q3']:.4f}, n={len(row['samples'])}]"
        )


def print_per_layer(workload, layer, extras, check):
    print(
        f"-- {workload} per layer (traced run: fold {check['fold_sum_s']:.3f} s "
        f"= {check['fold_vs_wall']:.3f} x traced wall {check['traced_wall_s']:.3f} s)"
    )
    for name, row in layer.items():
        print(f"   {name:<40s} {row['value']:16.4f} {row['unit']}")
    for name, value in extras.items():
        print(f"   {name:<40s} {value:16.4f} (informational)")


# -- modes ------------------------------------------------------------------


def trace_workload(workload, seed, profile, probe_values, contract):
    """The per-layer half: one untraced run for counts and the overhead
    base, one traced run of the same cells."""
    base = run_pass(workload, seed, profile, "trace-base")
    traced = run_pass(workload, seed, profile, "traced", trace=True)
    layer, extras = per_layer(base, traced, probe_values, contract)
    return base, traced, layer, extras


def contract_run(args, contract, profile):
    """``--workload``: the BENCHMARK.json driver contract."""
    if args.trace:
        probe_values = spawn(["--probes", "--profile", profile])["values"]
        base, traced, layer, extras = trace_workload(
            args.workload, args.seed, profile, probe_values, contract
        )
        print_per_layer(args.workload, layer, extras, fold_check(traced))
        passes = [base, traced]
        metrics = {
            name: {"value": row["value"], "unit": row["unit"]}
            for name, row in layer.items()
        }
    else:
        passes = measure(args.workload, args.seed, args.seconds, profile)
        summary = end_to_end(passes, contract)
        print_end_to_end(args.workload, summary, passes)
        metrics = {
            name: {"value": row["value"], "unit": row["unit"]}
            for name, row in summary.items()
        }
    attempted = sum(result["attempted"] for result in passes)
    failed = sum(result["failed"] for result in passes)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


def full_run(args, contract, profile):
    """Every workload, its traced run, and the probes; one document."""
    env = environment()
    print("environment: " + json.dumps(env))
    if env["noisy"]:
        print("   load average exceeds nproc: this run is marked noisy")
    probes = spawn(["--probes", "--profile", profile])
    document = {
        "schema": "perf/v1", "environment": env, "profile": profile,
        "seed": args.seed, "seconds": args.seconds, "workloads": {},
        "probe_seconds": probes["probe_seconds"],
    }
    failed_total = 0
    for entry in contract["workloads"]:
        workload = entry["name"]
        passes = measure(workload, args.seed, args.seconds, profile)
        summary = end_to_end(passes, contract)
        print_end_to_end(workload, summary, passes)
        base, traced, layer, extras = trace_workload(
            workload, args.seed, profile, probes["values"], contract
        )
        check = fold_check(traced)
        print_per_layer(workload, layer, extras, check)
        counted = passes + [base, traced]
        attempted = sum(result["attempted"] for result in counted)
        failed = sum(result["failed"] for result in counted)
        failed_total += failed
        document["workloads"][workload] = {
            "runs": len(passes),
            "attempted": attempted,
            "failed": failed,
            "ops_failed_share": failed / attempted,
            "drift_checked": all(r["drift_checked"] for r in counted),
            "failures": [why for r in counted for why in r["failures"]],
            "end_to_end": summary,
            "per_layer": layer,
            "informational": extras,
            "trace": check,
        }
    os.makedirs(OUT_DIR, exist_ok=True)
    out = args.out or os.path.join(OUT_DIR, "perf.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.relpath(out)}")
    return 1 if failed_total else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    contract = load_contract()
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:], contract)
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help="measured time per workload; fresh runs repeat until it is spent",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="document path (default out/perf.json)")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    if args.write_reference or args.self_check:
        import reference

        return reference.main(write=args.write_reference)
    profile = "smoke" if args.smoke else "full"
    if args.smoke:
        args.seconds = 0.0
    try:
        if args.workload:
            return contract_run(args, contract, profile)
        return full_run(args, contract, profile)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
