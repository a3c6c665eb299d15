"""Command-line front end: regenerate figures, trace/attribute a rekey,
or stress the stack at scale and under faults.

One subcommand per job, all sharing the same core options
(``--engine``, ``--seed``, ``-o/--out``)::

    python -m repro.bench figure 11              # LAN join, 512 & 1024
    python -m repro.bench figure 14 --repeats 1
    python -m repro.bench figure 12 --sizes 4 13 26 --csv out/
    python -m repro.bench table 1
    python -m repro.bench trace --protocol TGDH --size 16 --event join \
        -o trace.json                            # Chrome/Perfetto trace
    python -m repro.bench report --protocol BD --size 13 --event leave
                                                 # §6 phases + their chains
    python -m repro.bench scale                  # join/leave up to n=1024
    python -m repro.bench scale --observe        # + rekey percentile table
    python -m repro.bench scale --sizes 32 128 512 --protocols TGDH STR
    python -m repro.bench scale --jobs 4         # shard cells over 4 workers
    python -m repro.bench chaos                  # rekeying under link faults
    python -m repro.bench chaos --drops 0 0.05 0.2 --size 8
    python -m repro.bench load                   # sustained churn, many groups
    python -m repro.bench load --arrivals poisson diurnal --no-storm
    python -m repro.bench load --replay churn.json --protocols TGDH
    python -m repro.bench compare OLD.json NEW.json   # exact regression gate
    python -m repro.bench live --protocol tgdh -n 8   # real TCP on localhost

The subcommand picks the substrate.  ``live`` is the only one that
runs on the asyncio transport: a real daemon process and one TCP client
per member on localhost, measuring wall-clock rekey latency next to the
simulator's virtual-time prediction in ``BENCH_live.json``.  Every other
subcommand runs on the simulator: fault injection, tracing and virtual
time have no live equivalent.

The grid-shaped subcommands (``figure``, ``scale``, ``chaos``, ``load``)
all take
``--jobs N`` (worker processes, default: every CPU), ``--cache-dir``
and ``--no-cache``: cells shard across workers and merge
deterministically, and previously computed cells are served from a
content-addressed on-disk cache keyed by the cell spec, the seed and a
fingerprint of the ``src/repro`` tree (see :mod:`repro.bench.pool`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.table1 import render_table1
from repro.bench.chaos import CHAOS_DROP_RATES, render_chaos_table, run_chaos
from repro.bench.compare import compare_files
from repro.bench.load import (
    LOAD_ARRIVALS,
    LOAD_DURATION_MS,
    LOAD_GROUP_SIZE,
    LOAD_GROUPS,
    LOAD_RATE_HZ,
    describe_unkeyed,
    load_cells_grid,
    render_load_table,
)
from repro.bench.plot import render_plot
from repro.bench.pool import DEFAULT_CACHE_DIR, pool_stats, run_cells
from repro.bench.report import artifact, render_series, series_to_csv, write_json
from repro.bench.scale import SCALE_SIZES, render_scale_table, run_scale
from repro.bench.series import DEFAULT_SIZES, sweep_group_sizes
from repro.core.driver import GroupDriver
from repro.core.framework import SecureSpreadFramework
from repro.gcs.topology import TESTBEDS, resolve_testbed
from repro.protocols import available
from repro.workload.engine import DEFAULT_STALL_TIMEOUT_MS, WorkloadResult
from repro.obs import (
    MetricsRegistry,
    render_percentiles,
    render_report,
    validate_chrome_trace,
)

#: figure number -> list of (title, testbed name, event, dh group)
FIGURES = {
    "11": [
        ("Figure 11 (left): Join - DH 512 (LAN)", "lan", "join", "dh-512"),
        ("Figure 11 (right): Join - DH 1024 (LAN)", "lan", "join", "dh-1024"),
    ],
    "12": [
        ("Figure 12 (left): Leave - DH 512 (LAN)", "lan", "leave", "dh-512"),
        ("Figure 12 (right): Leave - DH 1024 (LAN)", "lan", "leave", "dh-1024"),
    ],
    "14": [
        ("Figure 14 (left): Join - DH 512 (WAN)", "wan", "join", "dh-512"),
        ("Figure 14 (right): Leave - DH 512 (WAN)", "wan", "leave", "dh-512"),
    ],
    "medium-wan": [
        ("Future work: Join (70ms RTT WAN)", "medium-wan", "join", "dh-512"),
        ("Future work: Leave (70ms RTT WAN)", "medium-wan", "leave", "dh-512"),
    ],
}


# ---------------------------------------------------------------------------
# parsers


def add_protocol_args(
    parser: argparse.ArgumentParser,
    singular: bool = False,
    default: Optional[str] = None,
) -> None:
    """Add the protocol-selection flag, wired to the live registry.

    The choices come from :func:`repro.protocols.available` at parser
    build time, so a protocol registered by an extension shows up in
    every subcommand without touching this module — the registry is the
    single source of truth for protocol names.  ``singular`` adds
    ``--protocol NAME`` (one protocol, default ``default`` or TGDH);
    otherwise ``--protocols NAME...`` (default: all registered).
    """
    choices = available()
    if singular:
        parser.add_argument(
            "--protocol", type=str.upper, choices=choices,
            default=default or "TGDH",
            help=f"key agreement protocol, case-insensitive "
            f"(default {default or 'TGDH'})",
        )
    else:
        parser.add_argument(
            "--protocols", nargs="+", type=str.upper, choices=choices,
            default=list(choices),
            help="protocols to include (default: all registered)",
        )


def build_common_parser() -> argparse.ArgumentParser:
    """The options every subcommand shares (used via ``parents=``)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--engine",
        choices=("real", "real:gmpy2", "real:python", "symbolic"),
        default=None,
        help="crypto engine (default: real bignum arithmetic; scale and "
        "chaos default to symbolic, whose simulated times are identical "
        "by construction; 'real:gmpy2'/'real:python' pin the bignum "
        "backend explicitly, overriding REPRO_BIGNUM)",
    )
    common.add_argument(
        "--seed", type=int, default=0, help="simulation seed"
    )
    common.add_argument(
        "-o", "--out", "--output", dest="out", default=None, metavar="PATH",
        help="output artifact path (each subcommand has its own default)",
    )
    return common


def _add_figure_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="group sizes to sample (default: the paper's 2-50 sweep)",
    )
    add_protocol_args(parser)
    parser.add_argument(
        "--repeats", type=int, default=2, help="events averaged per size"
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write each series as CSV into this directory",
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="also render each series as an ASCII chart",
    )


def _add_event_options(parser: argparse.ArgumentParser) -> None:
    add_protocol_args(parser, singular=True)
    parser.add_argument(
        "--size", type=int, default=16,
        help="settled group size before the event (default 16)",
    )
    parser.add_argument(
        "--event", choices=("join", "leave"), default="join",
        help="membership event to trace (default join)",
    )
    _add_testbed_options(parser)


def _add_testbed_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology", choices=sorted(TESTBEDS), default="lan",
        help="testbed to simulate (default lan)",
    )
    parser.add_argument(
        "--dh-group", default="dh-512", help="DH group (default dh-512)"
    )


def _add_pool_options(parser: argparse.ArgumentParser) -> None:
    """Sharding/caching flags shared by the grid-shaped subcommands."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for grid cells (default: every CPU)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help="content-addressed result cache directory "
        f"(default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", dest="use_cache", action="store_false",
        help="always execute every cell (skip cache reads and writes)",
    )


def build_subcommand_parser() -> argparse.ArgumentParser:
    """The unified subcommand interface.

    Every subparser gets its *own* copy of the common parser: argparse
    ``parents=`` shares the action objects, so a per-subcommand
    ``set_defaults`` on a shared instance would leak its default (e.g.
    chaos's ``BENCH_chaos.json``) into every sibling.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the evaluation of 'On the Performance of "
        "Group Key Agreement Protocols' (ICDCS 2002) on the simulated "
        "testbeds, or stress it at scale and under injected faults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser(
        "figure", parents=[build_common_parser()],
        help="regenerate a paper figure (group-size sweep)",
    )
    figure.add_argument(
        "number", choices=sorted(FIGURES), help="figure to regenerate"
    )
    _add_figure_options(figure)
    _add_pool_options(figure)

    table = sub.add_parser(
        "table", parents=[build_common_parser()], help="print a paper table"
    )
    table.add_argument("number", choices=["1"], help="table to print")

    trace = sub.add_parser(
        "trace", parents=[build_common_parser()],
        help="emit a Chrome trace-event JSON (Perfetto-loadable)",
    )
    _add_event_options(trace)
    trace.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also dump raw spans + metrics as JSON lines",
    )
    trace.set_defaults(out="trace.json")

    report = sub.add_parser(
        "report", parents=[build_common_parser()],
        help="print the per-epoch membership/communication/computation "
        "decomposition, reconciled against the rekey timeline, then the "
        "critical-path chain each row was read from and the rekey-latency "
        "percentile table",
    )
    _add_event_options(report)

    scale = sub.add_parser(
        "scale", parents=[build_common_parser()],
        help="measure join/leave total elapsed time at large group sizes "
        "(batched growth; symbolic crypto engine by default)",
    )
    scale.add_argument(
        "--sizes", type=int, nargs="+", default=list(SCALE_SIZES),
        help="group sizes to sample (default: 32..1024, powers of two)",
    )
    add_protocol_args(scale)
    _add_testbed_options(scale)
    scale.add_argument(
        "--repeats", type=int, default=1, help="events averaged per size"
    )
    scale.add_argument(
        "--observe", action="store_true",
        help="run cells with tracing enabled and print the merged "
        "rekey-latency percentile table (observability is passive, so "
        "the measured times are unchanged)",
    )
    _add_pool_options(scale)
    scale.set_defaults(engine="symbolic", out="BENCH_scale.json")

    chaos = sub.add_parser(
        "chaos", parents=[build_common_parser()],
        help="measure rekey completion under injected link faults "
        "(drop-rate sweep with the epoch watchdog armed)",
    )
    chaos.add_argument(
        "--drops", type=float, nargs="+", default=list(CHAOS_DROP_RATES),
        help="per-frame drop probabilities to sweep (default: "
        f"{' '.join(str(r) for r in CHAOS_DROP_RATES)})",
    )
    add_protocol_args(chaos)
    chaos.add_argument(
        "--size", dest="group_size", metavar="SIZE", type=int, default=6,
        help="settled group size before the faulty join (default 6)",
    )
    _add_testbed_options(chaos)
    chaos.add_argument(
        "--repeats", type=int, default=2, help="samples per cell"
    )
    chaos.add_argument(
        "--stall-timeout-ms", type=float, default=DEFAULT_STALL_TIMEOUT_MS,
        help="epoch watchdog timeout in virtual ms "
        f"(default {DEFAULT_STALL_TIMEOUT_MS:g})",
    )
    chaos.add_argument(
        "--trace", dest="trace_log", default=None, metavar="PATH",
        help="also write every sample's observability span records as "
        "JSON lines, each labelled with its protocol, drop_rate and sample",
    )
    _add_pool_options(chaos)
    chaos.set_defaults(engine="symbolic", out="BENCH_chaos.json")

    load = sub.add_parser(
        "load", parents=[build_common_parser()],
        help="sustained-churn workload: many concurrent groups under "
        "seeded join/leave traffic (rekey latency percentiles, "
        "throughput, post-storm convergence)",
    )
    add_protocol_args(load)
    load.add_argument(
        "--arrivals", nargs="+", default=list(LOAD_ARRIVALS),
        choices=("poisson", "flash", "diurnal"),
        help="arrival processes to sweep (default: "
        f"{' '.join(LOAD_ARRIVALS)})",
    )
    load.add_argument(
        "--groups", type=int, default=LOAD_GROUPS,
        help=f"concurrent groups on the testbed (default {LOAD_GROUPS})",
    )
    load.add_argument(
        "--group-size", type=int, default=LOAD_GROUP_SIZE,
        help=f"settled members per group (default {LOAD_GROUP_SIZE})",
    )
    load.add_argument(
        "--rate", dest="rate_hz", metavar="HZ", type=float, default=LOAD_RATE_HZ,
        help=f"churn events per second across all groups "
        f"(default {LOAD_RATE_HZ:g})",
    )
    load.add_argument(
        "--duration-ms", type=float, default=LOAD_DURATION_MS,
        help=f"sustained-phase length in virtual ms "
        f"(default {LOAD_DURATION_MS:g})",
    )
    load.add_argument(
        "--no-storm", dest="storm", action="store_false",
        help="drop the composed partition storm (a half/half testbed "
        "split at 75%% of the run, healed 300 ms later)",
    )
    load.add_argument(
        "--replay", metavar="PATH", default=None,
        help="replay a recorded churn trace (a JSON list of "
        "{at_ms, group, action} entries) instead of the generated "
        "arrival processes",
    )
    load.add_argument(
        "--stall-timeout-ms", type=float, default=DEFAULT_STALL_TIMEOUT_MS,
        help="epoch watchdog timeout in virtual ms; always armed here — "
        "sustained churn stalls agreements even fault-free "
        f"(default {DEFAULT_STALL_TIMEOUT_MS:g})",
    )
    _add_testbed_options(load)
    _add_pool_options(load)
    load.set_defaults(engine="symbolic", out="BENCH_load.json")

    live = sub.add_parser(
        "live", parents=[build_common_parser()],
        help="run a secure group of N members over real localhost TCP "
        "(a spawned daemon process + one client per member), measure "
        "wall-clock join/leave rekey latency, and cross-validate against "
        "the simulator's virtual-time prediction",
    )
    add_protocol_args(live, singular=True)
    live.add_argument(
        "-n", "--size", type=int, default=8,
        help="settled group size before the measured events (default 8)",
    )
    live.add_argument(
        "--dh-group", default="dh-512", help="DH group (default dh-512)"
    )
    live.add_argument(
        "--host", default="127.0.0.1",
        help="daemon bind address (default 127.0.0.1)",
    )
    live.add_argument(
        "--port", type=int, default=None,
        help="daemon TCP port (default: pick a free one)",
    )
    live.add_argument(
        "--daemon", choices=("spawn", "inline"), default="spawn",
        help="daemon placement: a separate process over real TCP "
        "(default) or embedded in this process's event loop",
    )
    live.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="hard limit for each settle phase (default 60)",
    )
    live.set_defaults(out="BENCH_live.json")

    compare = sub.add_parser(
        "compare",
        help="diff two benchmark JSON artifacts cell-by-cell; exits "
        "nonzero on any drift (exact match by default — the simulator "
        "is deterministic)",
    )
    compare.add_argument("old", metavar="OLD.json", help="baseline artifact")
    compare.add_argument("new", metavar="NEW.json", help="candidate artifact")
    compare.add_argument(
        "--tolerance", type=float, default=0.0, metavar="ABS",
        help="absolute tolerance per numeric field (default 0: exact)",
    )
    compare.add_argument(
        "--relative", type=float, default=0.0, metavar="REL",
        help="relative tolerance per numeric field (default 0: exact)",
    )

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _emit(args, lines: List[str]) -> None:
    """Print the rendered text, and copy it to ``--out`` when given."""
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nwrote {args.out}")


def _progress(line: str) -> None:
    print(f"  {line}", flush=True)


def _pool_kwargs(args, metrics: MetricsRegistry) -> dict:
    """The pool arguments of a parsed command line."""
    return {
        "jobs": args.jobs,
        "cache_dir": args.cache_dir,
        "use_cache": args.use_cache,
        "metrics": metrics,
        "progress": _progress,
    }


def _print_pool_stats(metrics: MetricsRegistry) -> None:
    stats = pool_stats(metrics)
    livelocks = int(metrics.counter_total("bench.cell.livelock"))
    if stats["cells"]:
        print(
            f"cells: {stats['cells']} "
            f"({stats['cache_hits']} cache hits, "
            f"{stats['executed']} executed)"
            + (f", {livelocks} livelocked settles" if livelocks else "")
        )


def run_figures(args) -> int:
    lines: List[str] = []
    metrics = MetricsRegistry(enabled=True)
    for title, topology, event, dh_group in FIGURES[args.number]:
        series = sweep_group_sizes(
            topology,
            args.protocols,
            event,
            dh_group=dh_group,
            sizes=args.sizes,
            repeats=args.repeats,
            seed=args.seed,
            name=title,
            engine=args.engine,
            **_pool_kwargs(args, metrics),
        )
        lines.append(render_series(series, title))
        lines.append("")
        if args.plot:
            lines.append(render_plot(series, title=title))
            lines.append("")
        if args.csv:
            slug = title.split(":")[0].lower().replace(" ", "_")
            path = os.path.join(args.csv, f"{slug}_{event}_{dh_group}.csv")
            series_to_csv(series, path)
            lines.append(f"  wrote {path}\n")
    _emit(args, lines)
    _print_pool_stats(metrics)
    return 0


def run_table(args) -> int:
    _emit(args, [render_table1(), "", render_table1(n=10, m=4, p=4)])
    return 0


def _options(args, *names: str) -> dict:
    """The named parsed options, in order: an artifact's run metadata."""
    return {name: getattr(args, name) for name in names}


def _sweep(args, benchmark: str, meta: dict, key: str, run):
    """Run one pooled sweep — ``run(**pool)`` with the command line's pool
    arguments — and write its rows to ``--out`` as the ``benchmark``
    artifact; returns the rows and the pool's registry."""
    metrics = MetricsRegistry(enabled=True)
    rows = run(**_pool_kwargs(args, metrics))
    write_json(args.out, artifact(benchmark, meta, key, rows))
    return rows, metrics


def _report(args, metrics, table: str, summary: str, shortfall=None) -> int:
    """Print a pooled sweep's table, "wrote" line and pool stats; exit 1
    with ``shortfall`` as the error when the sweep fell short of full
    convergence — the watchdog is supposed to recover every rekey, so
    that is a failure, not a statistic to print and forget."""
    print()
    print(table)
    print(f"\nwrote {args.out}: {summary}")
    _print_pool_stats(metrics)
    if shortfall:
        print(f"error: {shortfall}", file=sys.stderr)
        return 1
    return 0


def run_scale_command(args) -> int:
    meta = dict(
        sizes=sorted(set(args.sizes)),
        **_options(
            args, "protocols", "engine", "topology", "dh_group", "repeats", "seed"
        ),
    )
    rows, metrics = _sweep(
        args, "scale", meta, "measurements",
        lambda **pool: run_scale(observe=args.observe, **meta, **pool),
    )
    table = render_scale_table(rows)
    if args.observe:
        table += "\n\n" + render_percentiles(
            metrics.log_histograms(), "Rekey latency percentiles (ms)"
        )
    return _report(args, metrics, table, f"{len(rows)} measurements")


def run_chaos_command(args) -> int:
    trace_events: Optional[List[dict]] = [] if args.trace_log else None
    meta = _options(
        args, "protocols", "group_size", "engine", "topology", "dh_group",
        "repeats", "seed", "stall_timeout_ms",
    )
    cells, metrics = _sweep(
        args, "chaos", {"drops": args.drops, **meta}, "cells",
        lambda **pool: run_chaos(
            drop_rates=args.drops, trace_events=trace_events, **meta, **pool
        ),
    )
    converged = sum(cell.converged for cell in cells)
    samples = sum(cell.samples for cell in cells)
    summary = f"{len(cells)} cells, {converged}/{samples} samples converged"
    if trace_events is not None:
        with open(args.trace_log, "w", encoding="utf-8") as handle:
            for event in trace_events:
                handle.write(json.dumps(event, sort_keys=True, default=str) + "\n")
        summary += f"\nwrote {args.trace_log}: {len(trace_events)} span records"
    shortfall = None
    if converged < samples:
        shortfall = (
            f"{samples - converged} of {samples} samples did not converge "
            "on a shared key"
        )
    return _report(args, metrics, render_chaos_table(cells), summary, shortfall)


def run_load_command(args) -> int:
    arrivals = list(args.arrivals)
    trace: List[dict] = []
    if args.replay:
        with open(args.replay, encoding="utf-8") as handle:
            recorded = json.load(handle)
        if isinstance(recorded, dict):
            recorded = recorded.get("events", recorded.get("trace"))
        if not isinstance(recorded, list):
            raise ValueError(
                f"{args.replay}: expected a JSON list of churn events "
                "(or an object with an 'events' list)"
            )
        trace = recorded  # validated by WorkloadSpec at grid build time
        arrivals = ["trace"]
    meta = dict(
        protocols=args.protocols,
        arrivals=arrivals,
        **_options(
            args, "groups", "group_size", "rate_hz", "duration_ms", "storm",
            "engine", "topology", "dh_group", "seed", "stall_timeout_ms",
        ),
    )
    results: List[dict] = []  # the raw cells, for their unkeyed groups

    def run(**pool):
        results.extend(run_cells(load_cells_grid(trace=trace, **meta), **pool))
        return [WorkloadResult.from_dict(result["cell"]) for result in results]

    cells, metrics = _sweep(args, "load", meta, "cells", run)
    converged = sum(cell.converged for cell in cells)
    summary = f"{len(cells)} cells, {converged}/{len(cells)} fully converged"
    shortfall = None
    if converged < len(cells):
        shortfall = (
            f"{len(cells) - converged} of {len(cells)} cells did not converge "
            "every group on a shared key: unkeyed " + "; ".join(
                f"{cell.protocol} {cell.arrival} "
                + describe_unkeyed(result["unkeyed"])
                for cell, result in zip(cells, results)
                if result["unkeyed"]
            )
        )
    return _report(args, metrics, render_load_table(cells), summary, shortfall)


def run_live_command(args) -> int:
    from repro.bench.live import render_live_table, run_live_benchmark

    document = run_live_benchmark(
        protocol=args.protocol,
        size=args.size,
        dh_group=args.dh_group,
        engine=args.engine,
        seed=args.seed,
        host=args.host,
        port=args.port,
        daemon_mode=args.daemon,
        timeout_s=args.timeout,
        progress=_progress,
    )
    write_json(args.out, document, sort_keys=True)
    print()
    print(render_live_table(document))
    print(f"\nwrote {args.out}")
    return 0


def run_compare_command(args) -> int:
    drifts = compare_files(
        args.old, args.new,
        tolerance=args.tolerance, relative=args.relative,
    )
    if drifts:
        print(f"DRIFT: {args.new} diverges from {args.old}:")
        for line in drifts:
            print(f"  {line}")
        print(
            f"{len(drifts)} drifting field(s); the simulator is "
            "deterministic, so this is a behavioral change — refresh the "
            "baseline only if it is intended"
        )
        return 1
    print(f"OK: {args.new} matches {args.old}")
    return 0


def _run_observed_event(args):
    """Grow a group and run one observed membership event; returns the
    framework and the event's one-line title."""
    framework = SecureSpreadFramework(
        resolve_testbed(args.topology),
        default_protocol=args.protocol,
        dh_group=args.dh_group,
        seed=args.seed,
        observe=True,
        engine=args.engine,
    )
    driver = GroupDriver(framework)
    driver.run(driver.grow(args.size))
    driver.run(driver.join() if args.event == "join" else driver.leave())
    return framework, (
        f"{args.event} at n={args.size}, {args.protocol}, {args.dh_group}, "
        f"{framework.world.topology.name}"
    )


def run_trace_command(args) -> int:
    framework, title = _run_observed_event(args)
    trace = framework.obs.write_chrome_trace(args.out)
    validate_chrome_trace(trace)
    print(
        f"wrote {args.out}: {len(trace['traceEvents'])} trace events "
        f"({len(framework.obs.spans)} spans, "
        f"{framework.obs.spans.dropped} dropped) — {title}"
    )
    print("open in Perfetto (https://ui.perfetto.dev) or chrome://tracing")
    if args.jsonl:
        lines = framework.obs.to_jsonl(args.jsonl)
        print(f"wrote {args.jsonl}: {lines} JSON lines (spans + metrics)")
    return 0


def run_report_command(args) -> int:
    framework, title = _run_observed_event(args)
    _emit(args, [render_report(framework.timeline, framework.obs.spans, title)])
    return 0


#: subcommand name -> body; the single dispatch table
COMMANDS = {
    "figure": run_figures,
    "table": run_table,
    "trace": run_trace_command,
    "report": run_report_command,
    "scale": run_scale_command,
    "chaos": run_chaos_command,
    "load": run_load_command,
    "compare": run_compare_command,
    "live": run_live_command,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Every failure — an unreadable artifact, a malformed trace, a sweep
    that trips the livelock guard — exits nonzero with a one-line error
    instead of a traceback, so shell pipelines and CI can gate on it.
    """
    args = build_subcommand_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError, RuntimeError, AssertionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
