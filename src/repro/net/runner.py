"""Run a whole secure group live: the asyncio Transport and its driver.

:class:`AsyncioTransport` is the :class:`~repro.transport.Transport`
implementation for the live backend: channels are
:class:`~repro.net.client.NetClient` sockets into one
:class:`~repro.net.daemon.NetDaemon`, the scheduler is the event loop's
wall clock (:class:`~repro.net.compat.WallScheduler`), and "machines"
are :class:`~repro.net.compat.WallMachine` pass-throughs — thirteen by
default, mirroring the paper's LAN testbed layout so member-to-machine
assignment matches the simulator's even though every process actually
runs on this host.

:class:`LiveGroupRunner` drives the ``bench live`` scenario end to end:
spawn (or embed) a daemon, grow a secure group of *n* members by
sequential joins, measure one join and one leave rekey with real
wall-clock time on the shared :class:`~repro.core.timing.RekeyTimeline`,
and report the timeline's ``member.rekey_ms`` percentiles alongside.  The
flight recorder is off: it would sit on the wall-clock path being
measured, and the run returns nothing the recorder holds.
"""

from __future__ import annotations

import asyncio
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.driver import GroupDriver
from repro.core.framework import SecureSpreadFramework
from repro.net.client import NetClient
from repro.net.compat import WallMachine, WallScheduler
from repro.net.daemon import NetDaemon

#: default machine count: the paper's LAN testbed (13 dual-CPU hosts)
DEFAULT_MACHINES = 13


class AsyncioTransport:
    """The live substrate: one daemon endpoint, NetClient channels."""

    kind = "asyncio"
    #: no virtual time, no fault injection, no causal tracing — callers
    #: gate those features on this set (see ``repro.transport.base``)
    capabilities = frozenset()

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        machines: int = DEFAULT_MACHINES,
        heartbeat_interval_s: float = 2.0,
    ) -> None:
        if machines < 1:
            raise ValueError("the transport needs at least one machine")
        self.host = host
        self.port = port
        self.heartbeat_interval_s = heartbeat_interval_s
        self._machines = [
            WallMachine(f"live{i:02d}") for i in range(machines)
        ]
        self._scheduler: Optional[WallScheduler] = None
        #: every channel handed out, in creation order (the runner
        #: connects and closes them)
        self.channels: List[NetClient] = []
        self.obs = None

    # -- Transport interface ----------------------------------------------

    @property
    def scheduler(self) -> WallScheduler:
        """Created lazily so the transport can be built before the event
        loop is running; first touched inside the loop."""
        if self._scheduler is None:
            self._scheduler = WallScheduler()
        return self._scheduler

    @property
    def now(self) -> float:
        return self.scheduler.now

    def channel(self, name: str, machine_index: int) -> NetClient:
        client = NetClient(
            name,
            host=self.host,
            port=self.port,
            heartbeat_interval_s=self.heartbeat_interval_s,
        )
        self.channels.append(client)
        return client

    def machine(self, machine_index: int) -> WallMachine:
        return self._machines[machine_index]

    def machine_count(self) -> int:
        return len(self._machines)

    def bind(self, obs) -> None:
        self.obs = obs

    def run_until_idle(self, max_events: int = 0) -> None:
        raise RuntimeError(
            "the asyncio transport runs in real time; there is no virtual "
            "clock to drain — await the group's progress instead (see "
            "repro.net.runner.LiveGroupRunner)"
        )

    # -- lifecycle helpers -------------------------------------------------

    async def aclose(self) -> None:
        for client in self.channels:
            await client.aclose()


class LiveGroupRunner:
    """Drive one live secure group through the bench scenario.

    ``daemon_mode`` is ``"spawn"`` (a real separate daemon process —
    what ``bench live`` uses, so client traffic crosses process
    boundaries over real TCP) or ``"inline"`` (the daemon shares this
    event loop — no subprocess, used by the loopback tests).
    """

    def __init__(
        self,
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
        heartbeat_interval_s: float = 1.0,
        group_name: str = "secure-group",
    ) -> None:
        if size < 2:
            raise ValueError("a live group needs at least 2 members")
        if daemon_mode not in ("spawn", "inline"):
            raise ValueError("daemon_mode must be 'spawn' or 'inline'")
        self.protocol = protocol.upper()
        self.size = size
        self.dh_group = dh_group
        self.engine = engine
        self.seed = seed
        self.host = host
        self.port = port
        self.daemon_mode = daemon_mode
        self.machines = machines
        self.timeout_s = timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.group_name = group_name
        self.framework: Optional[SecureSpreadFramework] = None
        self.transport: Optional[AsyncioTransport] = None
        self._daemon: Optional[NetDaemon] = None
        self._daemon_proc = None

    # -- daemon lifecycle --------------------------------------------------

    async def _start_daemon(self) -> int:
        if self.daemon_mode == "inline":
            self._daemon = NetDaemon(host=self.host, port=self.port or 0)
            return await self._daemon.start()
        env = dict(os.environ)
        src_root = str(Path(sys.modules["repro"].__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        self._daemon_proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.net.daemon",
            "--host",
            self.host,
            "--port",
            str(self.port or 0),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=env,
        )
        # Scan for the LISTENING banner: interpreter warnings (e.g.
        # runpy's -m note about the package import) may precede it on the
        # merged stream.
        noise = []
        deadline = asyncio.get_event_loop().time() + self.timeout_s
        while True:
            remaining = deadline - asyncio.get_event_loop().time()
            if remaining <= 0:
                raise RuntimeError(
                    f"daemon did not report LISTENING within "
                    f"{self.timeout_s:g}s; output so far: {noise}"
                )
            line = await asyncio.wait_for(
                self._daemon_proc.stdout.readline(), timeout=remaining
            )
            if not line:
                raise RuntimeError(f"daemon failed to start: {noise}")
            text = line.decode(errors="replace").strip()
            if text.startswith("LISTENING "):
                return int(text.split()[1])
            noise.append(text)

    async def _stop_daemon(self) -> None:
        if self._daemon is not None:
            await self._daemon.stop()
            self._daemon = None
        if self._daemon_proc is not None:
            if self._daemon_proc.returncode is None:
                self._daemon_proc.terminate()
            try:
                await asyncio.wait_for(self._daemon_proc.wait(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - stuck daemon
                self._daemon_proc.kill()
                await self._daemon_proc.wait()
            self._daemon_proc = None

    # -- the scenario ------------------------------------------------------

    async def run(self) -> Dict:
        """Grow the group, measure one join and one leave rekey, clean up.

        Returns the live half of the ``BENCH_live.json`` document (see
        :mod:`repro.bench.live` for the full schema).
        """
        port = await self._start_daemon()
        self.transport = AsyncioTransport(
            host=self.host,
            port=port,
            machines=self.machines,
            heartbeat_interval_s=self.heartbeat_interval_s,
        )
        try:
            return await self._run_scenario(port)
        finally:
            await self.transport.aclose()
            await self._stop_daemon()

    async def _run_scenario(self, port: int) -> Dict:
        framework = SecureSpreadFramework(
            self.transport,
            default_protocol=self.protocol,
            dh_group=self.dh_group,
            seed=self.seed,
            engine=self.engine,
        )
        self.framework = framework
        started = self.transport.now
        driver = GroupDriver(framework, self.group_name, timeout_s=self.timeout_s)
        result = await driver.arun(driver.join_leave_scenario(self.size))
        result.update(
            protocol=self.protocol,
            group_size=self.size,
            dh_group=self.dh_group,
            engine=framework.engine.name,
            seed=self.seed,
            daemon={"mode": self.daemon_mode, "host": self.host, "port": port},
            wall_elapsed_ms=self.transport.now - started,
        )
        for member in driver.members:
            member.client.disconnect()
        return result


def run_live(**kwargs) -> Dict:
    """Synchronous convenience wrapper: ``asyncio.run`` a LiveGroupRunner."""
    return asyncio.run(LiveGroupRunner(**kwargs).run())
