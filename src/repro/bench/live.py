"""``bench live``: real wall-clock rekey latency on localhost TCP.

Runs the same scenario twice:

1. **simulated** — the paper's LAN testbed in virtual time (the
   prediction): grow a settled group of *n*, measure one join and one
   middle-member leave;
2. **live** — the identical scenario awaited by
   :meth:`~repro.core.driver.GroupDriver.arun` over a real
   :class:`~repro.net.daemon.NetDaemon` and TCP sockets, measuring
   wall-clock time on the same :class:`~repro.core.timing.RekeyTimeline`,
   whose per-group ``member.rekey_ms`` log-histogram is the ``rekey_ms``
   block.  The daemon is a separate process (``spawn``: client traffic
   crosses process boundaries over real TCP) or runs in this event loop
   (``inline``).  The flight recorder is off: it would sit on the
   wall-clock path being measured.

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
import os
import sys
from contextlib import asynccontextmanager
from pathlib import Path
from typing import Dict, Optional

from repro.core.driver import GroupDriver
from repro.core.framework import SecureSpreadFramework
from repro.gcs.topology import lan_testbed
from repro.net.daemon import NetDaemon
from repro.net.runner import DEFAULT_MACHINES, AsyncioTransport

SCHEMA = "bench-live/v1"


def simulate_prediction(
    protocol: str,
    size: int,
    dh_group: str = "dh-512",
    engine=None,
    seed: int = 0,
) -> Dict:
    """The virtual-time prediction for the live scenario: the same
    :meth:`~repro.core.driver.GroupDriver.join_leave_scenario` body the
    live half awaits over TCP, drained on the simulated LAN testbed
    instead."""
    with SecureSpreadFramework(
        lan_testbed(),
        default_protocol=protocol,
        dh_group=dh_group,
        seed=seed,
        engine=engine,
    ) as framework:
        driver = GroupDriver(framework)
        result = driver.run(driver.join_leave_scenario(size))
        return {"topology": framework.world.topology.name, **result}


@asynccontextmanager
async def _daemon(mode: str, host: str, port: int, timeout_s: float):
    """A running daemon for the block; yields its bound port.

    ``inline`` serves from this event loop.  ``spawn`` starts
    ``python -m repro.net.daemon`` and reads the port off its
    ``LISTENING`` banner; interpreter warnings (e.g. runpy's ``-m`` note
    about the package import) may precede it on the merged stream.
    """
    if mode == "inline":
        daemon = NetDaemon(host=host, port=port)
        bound = await daemon.start()
        try:
            yield bound
        finally:
            await daemon.stop()
        return
    src_root = str(Path(sys.modules["repro"].__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src_root, os.environ.get("PYTHONPATH"))))
    argv = ("-m", "repro.net.daemon", "--host", host, "--port", str(port))
    proc = await asyncio.create_subprocess_exec(
        sys.executable,
        *argv,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.STDOUT,
        env={**os.environ, "PYTHONPATH": path},
    )
    try:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        noise = []
        while True:
            try:
                line = await asyncio.wait_for(
                    proc.stdout.readline(), deadline - loop.time()
                )
            except asyncio.TimeoutError:
                raise RuntimeError(
                    f"daemon did not report LISTENING within {timeout_s:g}s; "
                    f"output so far: {noise}"
                ) from None
            if not line:
                raise RuntimeError(f"daemon failed to start: {noise}")
            text = line.decode(errors="replace").strip()
            if text.startswith("LISTENING "):
                break
            noise.append(text)
        yield int(text.split()[1])
    finally:
        if proc.returncode is None:
            proc.terminate()
        try:
            await asyncio.wait_for(proc.wait(), timeout=5.0)
        except asyncio.TimeoutError:  # pragma: no cover - stuck daemon
            proc.kill()
            await proc.wait()


def run_live_benchmark(
    protocol: str = "TGDH",
    size: int = 8,
    dh_group: str = "dh-512",
    engine=None,
    seed: int = 0,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    daemon_mode: str = "spawn",
    timeout_s: float = 60.0,
    progress=None,
) -> Dict:
    """Run both halves and assemble the ``BENCH_live.json`` document.

    Bad arguments raise ``ValueError`` before either half starts.
    """
    protocol = protocol.upper()
    if size < 2:
        raise ValueError(
            f"size (-n) must be at least 2 to measure a join and a leave, "
            f"not {size}"
        )
    if not timeout_s > 0:
        raise ValueError(
            f"timeout_s (--timeout) must be positive, not {timeout_s:g}"
        )
    if daemon_mode not in ("spawn", "inline"):
        raise ValueError(
            f"daemon_mode must be 'spawn' or 'inline', not {daemon_mode!r}"
        )
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

    async def live_half() -> Dict:
        async with _daemon(daemon_mode, host, port or 0, timeout_s) as bound:
            transport = AsyncioTransport(
                host, bound, machines=DEFAULT_MACHINES, heartbeat_interval_s=1.0
            )
            try:
                framework = SecureSpreadFramework(
                    transport,
                    default_protocol=protocol,
                    dh_group=dh_group,
                    seed=seed,
                    engine=engine,
                )
                started = transport.now
                driver = GroupDriver(framework, timeout_s=timeout_s)
                result = await driver.arun(driver.join_leave_scenario(size))
                result.update(
                    protocol=protocol,
                    group_size=size,
                    dh_group=dh_group,
                    engine=framework.engine.name,
                    seed=seed,
                    daemon={"mode": daemon_mode, "host": host, "port": bound},
                    wall_elapsed_ms=transport.now - started,
                )
                for member in driver.members:
                    member.client.disconnect()
                return result
            finally:
                await transport.aclose()

    live = asyncio.run(live_half())
    return {
        "schema": SCHEMA,
        "spec": {
            "protocol": protocol,
            "group_size": size,
            "dh_group": dh_group,
            "engine": live["engine"],
            "seed": seed,
            "daemon_mode": daemon_mode,
            "machines": DEFAULT_MACHINES,
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
    "run_live_benchmark",
    "simulate_prediction",
]
