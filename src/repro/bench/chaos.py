"""Chaos benchmark: rekeying under injected faults (``repro.bench chaos``).

The paper measures key agreement on a quiet, reliable network.  This
benchmark asks the complementary question the fault-injection subsystem
exists to answer: *does every protocol still reach a confirmed shared key
when the network misbehaves, and what does the recovery cost?*

For each (protocol, drop-rate) cell the group is grown fault-free, then a
uniform per-frame drop policy (:class:`repro.faults.LinkFaults`) is
installed and a join is injected.  The epoch watchdog
(``stall_timeout_ms``) is armed, so a rekey whose messages were eaten by
the network is aborted and restarted in coordinated fashion.  Each cell
reports:

* ``completion_rate`` — fraction of samples where every member converged
  on one confirmed group key (the acceptance bar is 1.0),
* ``stalls`` / ``restarts`` — watchdog activity summed over the samples,
* ``fault_drops`` / ``fault_retries`` — what the fault layer actually did,
* ``time_to_key_ms`` — mean total elapsed time of the *converged*
  samples, i.e. the paper's §6 metric degraded by faults.

Drop rate 0.0 is always worth including: it pins down that the fault
machinery is inert when no faults are configured (zero stalls, zero
restarts, baseline time-to-key).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Sequence

from repro.bench.pool import Cell, register_runner, run_cells
from repro.core.driver import GroupDriver
from repro.core.framework import SecureSpreadFramework
from repro.faults import LinkFaults
from repro.gcs.topology import resolve_testbed
from repro.obs.export import span_record
from repro.obs.metrics import MetricsRegistry
from repro.protocols import available
from repro.workload.engine import DEFAULT_STALL_TIMEOUT_MS

#: Drop rates swept by default.  0.0 is the inertness control.
CHAOS_DROP_RATES = (0.0, 0.05, 0.15)

#: Every registered protocol (the paper's five, plus any plug-ins
#: registered before this module is imported).
CHAOS_PROTOCOLS = available()

#: Event budget per sample.  A faulty rekey retries and restarts, but a
#: sample that needs more than this is reported as non-converged rather
#: than looping forever.
CHAOS_MAX_EVENTS = 3_000_000


@dataclass
class ChaosCell:
    """Aggregated outcome of one (protocol, drop-rate) cell."""

    protocol: str
    drop_rate: float
    group_size: int
    topology: str
    samples: int
    converged: int
    stalls: int
    restarts: int
    fault_drops: int
    fault_retries: int
    time_to_key_ms: Optional[float]
    engine: str = "symbolic"

    @property
    def completion_rate(self) -> float:
        return self.converged / self.samples if self.samples else 0.0

    def to_dict(self) -> dict:
        data = {field.name: getattr(self, field.name) for field in fields(self)}
        data["completion_rate"] = self.completion_rate
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosCell":
        known = {field.name for field in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


@register_runner("chaos")
def run_chaos_cell(
    spec: dict, metrics: Optional[MetricsRegistry] = None
) -> dict:
    """One (protocol, drop-rate) cell: ``repeats`` independent samples.

    Every sample runs on a fresh framework seeded ``seed + sample_index``
    so the cell is deterministic in isolation (same protocol, rate, and
    sample seed ⇒ identical run).  Returns
    ``{"cell": ChaosCell dict, "trace_events": [...] | None}`` — JSON-
    ready, so the cell can cross process boundaries and live in the
    result cache.
    """
    registry = metrics if metrics is not None else MetricsRegistry(enabled=False)
    protocol = spec["protocol"]
    rate = float(spec["drop_rate"])
    group_size = int(spec.get("group_size", 6))
    topology = spec.get("topology", "lan")
    repeats = int(spec.get("repeats", 2))
    seed = int(spec.get("seed", 0))
    engine = spec.get("engine", "symbolic")
    stall_timeout_ms = float(
        spec.get("stall_timeout_ms", DEFAULT_STALL_TIMEOUT_MS)
    )
    max_events = int(spec.get("max_events", CHAOS_MAX_EVENTS))
    trace = bool(spec.get("trace", False))
    trace_events: Optional[List[dict]] = [] if trace else None
    converged = 0
    stalls = restarts = fault_drops = fault_retries = 0
    times: List[float] = []
    engine_name = str(engine)
    for sample in range(repeats):
        sample_seed = seed + sample
        with SecureSpreadFramework(
            resolve_testbed(topology),
            default_protocol=protocol,
            dh_group=spec.get("dh_group", "dh-512"),
            seed=sample_seed,
            engine=engine,
            stall_timeout_ms=stall_timeout_ms,
            observe=trace,
        ) as framework:
            engine_name = framework.engine.name
            driver = GroupDriver(
                framework, max_events=max_events, metrics=registry, kind="chaos"
            )
            driver.run(driver.grow(group_size))
            if rate > 0.0:
                framework.world.install_link_faults(
                    LinkFaults.uniform(seed=sample_seed, drop=rate)
                )
            # A tripped livelock guard is counted on the registry and the
            # sample reported as non-converged; the sweep keeps going.
            driver.run(driver.join(group_size % driver.machines))
            outcome = driver.converged_key()
            if outcome is not None:
                converged += 1
                view_id, _key = outcome
                record = framework.timeline.epochs.get(view_id)
                if record is not None and record.complete():
                    times.append(record.total_elapsed())
            stalls += framework.rekey_stalls
            restarts += framework.rekey_restarts
            fault_drops += framework.world.network.fault_drops
            fault_retries += framework.world.network.fault_retries
            if trace_events is not None:
                for span in framework.obs.spans.spans:
                    trace_events.append({
                        "protocol": protocol,
                        "drop_rate": rate,
                        "sample": sample,
                        **span_record(span),
                    })
    cell = ChaosCell(
        protocol=protocol,
        drop_rate=rate,
        group_size=group_size,
        topology=topology,
        samples=repeats,
        converged=converged,
        stalls=stalls,
        restarts=restarts,
        fault_drops=fault_drops,
        fault_retries=fault_retries,
        time_to_key_ms=sum(times) / len(times) if times else None,
        engine=engine_name,
    )
    return {"cell": cell.to_dict(), "trace_events": trace_events}


def _chaos_summary(result: dict) -> str:
    cell = ChaosCell.from_dict(result["cell"])
    line = (
        f"{cell.protocol} drop={cell.drop_rate:.2f}: "
        f"{cell.converged}/{cell.samples} converged, "
        f"{cell.restarts} restarts"
    )
    if cell.time_to_key_ms is not None:
        line += f", {cell.time_to_key_ms:.1f} ms to key"
    return line


def run_chaos(
    protocols: Sequence[str] = CHAOS_PROTOCOLS,
    drop_rates: Sequence[float] = CHAOS_DROP_RATES,
    group_size: int = 6,
    topology: str = "lan",
    dh_group: str = "dh-512",
    engine="symbolic",
    repeats: int = 2,
    seed: int = 0,
    stall_timeout_ms: float = DEFAULT_STALL_TIMEOUT_MS,
    max_events: int = CHAOS_MAX_EVENTS,
    progress: Optional[Callable[[str], None]] = None,
    trace_events: Optional[List[dict]] = None,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> List[ChaosCell]:
    """Sweep drop rates × protocols; one :class:`ChaosCell` per pair.

    Cells shard over ``jobs`` worker processes and merge in grid order
    (protocol-major, rates in given order) regardless of completion
    order; with ``cache_dir`` set, unchanged cells are served from the
    content-addressed cache.  An engine *instance* (rather than a name)
    forces the inline uncached path.  Trace events are collected inside
    each cell and appended in grid order, so tracing parallelizes too.

    Pass a list as ``trace_events`` to run with observability on; every
    sample's span records are appended to it as dicts labeled with the
    (protocol, drop rate, sample) cell coordinates.
    """
    cells = [
        Cell(
            "chaos",
            {
                "protocol": protocol,
                "drop_rate": rate,
                "group_size": group_size,
                "topology": topology,
                "dh_group": dh_group,
                "engine": engine,
                "repeats": repeats,
                "seed": seed,
                "stall_timeout_ms": stall_timeout_ms,
                "max_events": max_events,
                "trace": trace_events is not None,
            },
            summarize=_chaos_summary,
        )
        for protocol in protocols
        for rate in drop_rates
    ]
    results = run_cells(
        cells,
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        metrics=metrics,
        progress=progress,
    )
    out: List[ChaosCell] = []
    for result in results:
        out.append(ChaosCell.from_dict(result["cell"]))
        if trace_events is not None and result.get("trace_events"):
            trace_events.extend(result["trace_events"])
    return out


def render_chaos_table(cells: Sequence[ChaosCell]) -> str:
    """One row per (protocol, drop rate): convergence and recovery cost."""
    lines = [
        "rekeying under injected link faults",
        (
            f"{'protocol':>8s} {'drop':>6s} {'ok':>5s} {'stalls':>7s} "
            f"{'restarts':>9s} {'drops':>7s} {'retries':>8s} {'to-key ms':>10s}"
        ),
    ]
    for cell in cells:
        to_key = (
            f"{cell.time_to_key_ms:10.1f}"
            if cell.time_to_key_ms is not None
            else f"{'-':>10s}"
        )
        lines.append(
            f"{cell.protocol:>8s} {cell.drop_rate:6.2f} "
            f"{cell.converged:2d}/{cell.samples:<2d} {cell.stalls:7d} "
            f"{cell.restarts:9d} {cell.fault_drops:7d} "
            f"{cell.fault_retries:8d} {to_key}"
        )
    return "\n".join(lines)
