"""Sustained-load benchmark: many groups under churn (``repro.bench load``).

The paper measures one membership event at a time on a quiet testbed.
This benchmark drives the deployment the system was built for: many
concurrent groups multiplexed over the 13-machine testbed's daemons,
each under a sustained stream of joins and leaves drawn from a seeded
arrival process (:mod:`repro.workload`), optionally with a partition
storm composed on top.  Each (protocol, arrival) cell reports:

* ``rekey_p50_ms`` / ``p95`` / ``p99`` — per-member rekey latency over
  the sustained phase, from the exact ``member.rekey_ms`` log-histograms
  merged across all groups,
* ``throughput_eps`` — member-epochs per virtual second (how many key
  installs the substrate sustained),
* ``converge_ms`` — the quiet tail between the last injection (churn or
  fault) and simulator idle: the time-to-converge after the storm,
* ``stalls`` / ``restarts`` — epoch-watchdog activity (the watchdog is
  always armed here; cascaded churn stalls agreements even fault-free),
* ``converged`` — whether every group ended on one confirmed shared key
  (the acceptance bar, same as the chaos benchmark's).

Cells shard over the benchmark pool like every other grid: byte-identical
results at any ``--jobs``, content-addressed caching, deterministic merge
order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bench.pool import SWEEPS, Cell, Sweep
from repro.faults.schedule import partition_storm
from repro.obs.metrics import MetricsRegistry
from repro.workload.engine import (
    DEFAULT_STALL_TIMEOUT_MS,
    WorkloadEngine,
    WorkloadResult,
)
from repro.workload.spec import WorkloadSpec

#: Arrival processes swept by default.  ``diurnal`` is one ``--arrivals``
#: away; the default pair keeps the smoke-sized sweep under a second per
#: cell while still contrasting steady-state against bursty traffic.
LOAD_ARRIVALS = ("poisson", "flash")

#: Default sweep shape: enough concurrent groups to multiplex every
#: testbed machine several times over, small enough that a full
#: five-protocol sweep stays interactive.
LOAD_GROUPS = 6
LOAD_GROUP_SIZE = 4
LOAD_RATE_HZ = 20.0
LOAD_DURATION_MS = 1500.0

#: The composed partition storm: one partition/heal cycle splitting the
#: testbed in half, landing at 75% of the run so rekey traffic is in
#: full flight when the network tears.
LOAD_STORM_PERIOD_MS = 300.0
LOAD_STORM_FRACTION = 0.75

#: Event budget per cell (a sustained run schedules far more events than
#: a single-rekey benchmark; beyond this the cell reports non-convergence
#: rather than looping).
LOAD_MAX_EVENTS = 5_000_000


def storm_faults(duration_ms: float, machines: int = 13) -> List[dict]:
    """The default composed storm, as ``WorkloadSpec.faults`` entries:
    split the testbed in half at ``LOAD_STORM_FRACTION`` of the run,
    heal ``LOAD_STORM_PERIOD_MS`` later."""
    half = machines // 2 + machines % 2
    schedule = partition_storm(
        [list(range(half)), list(range(half, machines))],
        rounds=1,
        period_ms=LOAD_STORM_PERIOD_MS,
        start_ms=duration_ms * LOAD_STORM_FRACTION,
    )
    return [event.to_dict() for event in schedule]


def run_load_cell(spec: dict) -> dict:
    """One (protocol, arrival) cell: a full sustained run.

    ``spec["workload"]`` is a :meth:`WorkloadSpec.to_spec` dict — the
    exact serialized scenario, so the cell is reproducible from its spec
    alone and the pool's content-addressed cache key covers everything
    that matters.  Returns ``{"cell": WorkloadResult dict, "unkeyed":
    [...], "livelocks": int}``: :meth:`WorkloadEngine.unkeyed` — empty
    exactly when every group converged — and the count of settles that
    tripped the event budget.
    """
    stall = spec.get("stall_timeout_ms", DEFAULT_STALL_TIMEOUT_MS)
    engine = WorkloadEngine(
        WorkloadSpec.from_spec(spec["workload"]),
        topology=spec.get("topology", "lan"),
        dh_group=spec.get("dh_group", "dh-512"),
        engine=spec.get("engine", "symbolic"),
        stall_timeout_ms=None if stall is None else float(stall),
        max_events=int(spec.get("max_events", LOAD_MAX_EVENTS)),
    )
    engine.metrics = MetricsRegistry()
    with engine.framework:
        result = engine.run()
        return {
            "cell": result.to_dict(),
            "unkeyed": engine.unkeyed(),
            "livelocks": int(engine.metrics.counter_total("bench.cell.livelock")),
        }


def describe_unkeyed(unkeyed: Sequence[dict]) -> str:
    """:func:`run_load_cell`'s ``unkeyed`` list as one line: each group,
    its newest view, and every member's installed epoch and key
    fingerprint (``-`` for none)."""
    return "; ".join(
        f"{group['group']} at view {group['view'] or '-'} ["
        + ", ".join(
            f"{m['name']} epoch {m['epoch'] or '-'} key {m['key'] or '-'}"
            for m in group["members"]
        )
        + "]"
        for group in unkeyed
    )


def _load_summary(result: dict) -> str:
    cell = WorkloadResult.from_dict(result["cell"])
    line = (
        f"{cell.protocol} {cell.arrival}: "
        f"{cell.converged_groups}/{cell.groups} converged, "
        f"p50={cell.rekey_p50_ms:.1f} ms, "
        f"{cell.throughput_eps:.1f} epochs/s"
    )
    if result["unkeyed"]:
        line += f"; unkeyed {describe_unkeyed(result['unkeyed'])}"
    return line


def load_cells(
    protocols: Sequence[str],
    arrivals: Sequence[str] = LOAD_ARRIVALS,
    groups: int = LOAD_GROUPS,
    group_size: int = LOAD_GROUP_SIZE,
    rate_hz: float = LOAD_RATE_HZ,
    duration_ms: float = LOAD_DURATION_MS,
    seed: int = 0,
    topology: str = "lan",
    dh_group: str = "dh-512",
    engine="symbolic",
    stall_timeout_ms: Optional[float] = DEFAULT_STALL_TIMEOUT_MS,
    max_events: int = LOAD_MAX_EVENTS,
    storm: bool = False,
    trace: Sequence[dict] = (),
    faults: Sequence[dict] = (),
) -> List[Cell]:
    """The sweep's cell grid, protocol-major with arrivals in given order.

    Every cell of the grid shares the same seed, so all protocols face
    the *identical* churn stream per arrival process — the comparison
    the benchmark exists to make.  ``storm`` composes the default
    partition storm on top of every cell; explicit ``faults`` (fault
    schedule spec dicts) are appended after it.
    """
    composed = list(faults)
    if storm:
        composed = storm_faults(duration_ms) + composed
    cells: List[Cell] = []
    for protocol in protocols:
        for arrival in arrivals:
            workload = WorkloadSpec(
                protocol=protocol,
                arrival=arrival,
                groups=groups,
                group_size=group_size,
                rate_hz=rate_hz,
                duration_ms=duration_ms,
                seed=seed,
                trace=tuple(trace),
                faults=tuple(composed),
            )
            spec = {
                "workload": workload.to_spec(),
                "topology": topology,
                "dh_group": dh_group,
                "engine": engine,
                "stall_timeout_ms": stall_timeout_ms,
                "max_events": max_events,
            }
            cells.append(Cell("load", spec))
    return cells


def _load_rows(results: List[dict]) -> List[WorkloadResult]:
    return [WorkloadResult.from_dict(result["cell"]) for result in results]


def render_load_table(results: Sequence[WorkloadResult]) -> str:
    """One row per (protocol, arrival): latency, throughput, recovery."""
    lines = [
        "sustained churn across concurrent groups",
        (
            f"{'protocol':>8s} {'arrival':>8s} {'ok':>5s} {'events':>7s} "
            f"{'p50 ms':>8s} {'p95 ms':>8s} {'p99 ms':>8s} "
            f"{'epochs/s':>9s} {'stalls':>7s} {'conv ms':>8s}"
        ),
    ]
    for cell in results:
        lines.append(
            f"{cell.protocol:>8s} {cell.arrival:>8s} "
            f"{cell.converged_groups:2d}/{cell.groups:<2d} {cell.events:7d} "
            f"{cell.rekey_p50_ms:8.2f} {cell.rekey_p95_ms:8.2f} "
            f"{cell.rekey_p99_ms:8.2f} {cell.throughput_eps:9.1f} "
            f"{cell.stalls:7d} {cell.converge_ms:8.1f}"
        )
    return "\n".join(lines)


SWEEPS["load"] = Sweep(run_load_cell, load_cells, _load_rows, _load_summary)
