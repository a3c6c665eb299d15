"""The asyncio :class:`~repro.transport.Transport`: live channels and clock.

:class:`AsyncioTransport` is the :class:`~repro.transport.Transport`
implementation for the live backend: channels are
:class:`~repro.net.client.NetClient` sockets into one
:class:`~repro.net.daemon.NetDaemon`, the scheduler is the event loop's
wall clock (:class:`~repro.net.compat.WallScheduler`), and "machines"
are :class:`~repro.net.compat.WallMachine` pass-throughs — thirteen by
default, mirroring the paper's LAN testbed layout so member-to-machine
assignment matches the simulator's even though every process actually
runs on this host.

A group is driven over it like over the simulator, by
:meth:`~repro.core.driver.GroupDriver.arun`; ``bench live``
(:func:`repro.bench.live.run_live_benchmark`) is that driver on a
daemon it starts and stops itself.
"""

from __future__ import annotations

from typing import List

from repro.net.client import NetClient
from repro.net.compat import WallMachine, WallScheduler

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
        #: the event loop's clock; it starts ticking with the loop
        self.scheduler = WallScheduler()
        #: every channel handed out, in creation order (``aclose`` closes
        #: them)
        self.channels: List[NetClient] = []
        self.obs = None

    # -- Transport interface ----------------------------------------------

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
            "repro.core.driver.GroupDriver.arun)"
        )

    # -- lifecycle helpers -------------------------------------------------

    async def aclose(self) -> None:
        for client in self.channels:
            await client.aclose()
