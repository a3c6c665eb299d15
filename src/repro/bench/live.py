"""``bench live``: real wall-clock rekey latency on localhost TCP.

Runs the same scenario twice:

1. **simulated** — the paper's LAN testbed in virtual time (the
   prediction): grow a settled group of *n*, measure one join and one
   middle-member leave;
2. **live** — :class:`~repro.net.runner.LiveGroupRunner` drives the
   identical scenario over a real :class:`~repro.net.daemon.NetDaemon`
   and TCP sockets, measuring wall-clock time on the same
   :class:`~repro.core.timing.RekeyTimeline`, whose per-group
   ``member.rekey_ms`` log-histogram is the ``rekey_ms`` block.

The two halves land side by side in ``BENCH_live.json`` so the live
numbers can be sanity-checked against the simulator's virtual-time
prediction.  They are *not* expected to match exactly — the simulator
models thirteen dual-CPU Pentium III machines, the live run multiplexes
every member onto this host's event loop — but both follow the same
protocol message flow, so gross disagreement (a deadlock, a quadratic
blowup) is immediately visible.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.bench.harness import ExperimentSpec
from repro.core.driver import GroupDriver
from repro.net.runner import DEFAULT_MACHINES, LiveGroupRunner
from repro.obs.histo import render_percentiles

SCHEMA = "bench-live/v1"


def simulate_prediction(
    protocol: str,
    size: int,
    dh_group: str = "dh-512",
    engine=None,
    seed: int = 0,
    topology: str = "lan",
) -> Dict:
    """The virtual-time prediction for the live scenario: the same
    :meth:`~repro.core.driver.GroupDriver.join_leave_scenario` body
    :class:`~repro.net.runner.LiveGroupRunner` awaits over TCP, drained
    on the simulated testbed instead."""
    spec = ExperimentSpec(
        protocol, "join", size, dh_group, topology, seed=seed, engine=engine
    )
    with spec.build_framework() as framework:
        driver = GroupDriver(framework)
        result = driver.run(driver.join_leave_scenario(size))
        return {"topology": framework.world.topology.name, **result}


def run_live_benchmark(
    protocol: str = "TGDH",
    size: int = 8,
    dh_group: str = "dh-512",
    engine=None,
    seed: int = 0,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    daemon_mode: str = "spawn",
    machines: int = DEFAULT_MACHINES,
    timeout_s: float = 60.0,
    progress=None,
) -> Dict:
    """Run both halves and assemble the ``BENCH_live.json`` document."""
    protocol = protocol.upper()
    if progress:
        progress(f"simulating {protocol} n={size} (virtual-time prediction)")
    simulated = simulate_prediction(
        protocol, size, dh_group=dh_group, engine=engine, seed=seed
    )
    if progress:
        progress(
            f"running live {protocol} n={size} over TCP "
            f"({daemon_mode} daemon on {host})"
        )
    runner = LiveGroupRunner(
        protocol=protocol,
        size=size,
        dh_group=dh_group,
        engine=engine,
        seed=seed,
        host=host,
        port=port,
        daemon_mode=daemon_mode,
        machines=machines,
        timeout_s=timeout_s,
    )
    live = asyncio.run(runner.run())
    document = {
        "schema": SCHEMA,
        "spec": {
            "protocol": protocol,
            "group_size": size,
            "dh_group": dh_group,
            "engine": live["engine"],
            "seed": seed,
            "daemon_mode": daemon_mode,
            "machines": machines,
        },
        "simulated": simulated,
        "live": live,
        "cross_validation": {
            "join_live_over_sim": _ratio(
                live["join"]["total_ms"], simulated["join"]["total_ms"]
            ),
            "leave_live_over_sim": _ratio(
                live["leave"]["total_ms"], simulated["leave"]["total_ms"]
            ),
        },
    }
    return document


def _ratio(live_ms: float, sim_ms: float) -> Optional[float]:
    return live_ms / sim_ms if sim_ms > 0 else None


def render_live_table(document: Dict) -> str:
    """Side-by-side live vs simulated summary of one bench-live run."""
    spec = document["spec"]
    live = document["live"]
    simulated = document["simulated"]
    header = (
        f"Live rekey on localhost — {spec['protocol']} n={spec['group_size']} "
        f"{spec['dh_group']} ({spec['engine']} engine, "
        f"{spec['daemon_mode']} daemon)"
    )
    columns = (
        f"{'event':<8s} {'live total':>12s} {'sim total':>12s} "
        f"{'live member':>12s} {'sim member':>12s} {'ratio':>8s}"
    )
    lines = [header, columns, "-" * len(columns)]
    ratios = document["cross_validation"]
    for event, ratio_key in (
        ("join", "join_live_over_sim"),
        ("leave", "leave_live_over_sim"),
    ):
        ratio = ratios[ratio_key]
        ratio_text = f"{ratio:8.2f}" if ratio is not None else f"{'n/a':>8s}"
        lines.append(
            f"{event:<8s} {live[event]['total_ms']:12.3f} "
            f"{simulated[event]['total_ms']:12.3f} "
            f"{live[event]['membership_ms']:12.3f} "
            f"{simulated[event]['membership_ms']:12.3f} "
            + ratio_text
        )
    rekey = live["rekey_ms"]
    lines.append("")
    lines.append(
        f"live member.rekey_ms: count={rekey['count']} "
        f"p50={rekey['p50']:.3f} p95={rekey['p95']:.3f} "
        f"p99={rekey['p99']:.3f} max={rekey['max']:.3f} (wall-clock ms)"
    )
    lines.append(
        f"wall elapsed: {live['wall_elapsed_ms'] / 1000.0:.2f}s "
        f"(daemon on {live['daemon']['host']}:{live['daemon']['port']})"
    )
    return "\n".join(lines)


__all__ = [
    "SCHEMA",
    "render_live_table",
    "render_percentiles",
    "run_live_benchmark",
    "simulate_prediction",
]
