"""Construction and control of a simulated Spread deployment.

:class:`GcsWorld` wires together the simulator, network, one daemon per
machine and the bootstrap token ring, and offers the fault-injection knobs
(partition / heal) the paper's membership events require.

It is the *simulated* implementation of the
:class:`repro.transport.Transport` interface: :meth:`channel` hands out
:class:`~repro.gcs.client.SpreadClient` group channels, :attr:`scheduler`
is the virtual-time simulator, and :meth:`machine` returns the contended
CPU model of a testbed machine.  Everything beyond the interface —
partitions, crashes, link faults, tracing — is the simulator's own
value-add on top of the transport contract.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.gcs.client import SpreadClient
from repro.gcs.daemon import Config, Daemon
from repro.gcs.network import Network
from repro.gcs.ring import TokenRing
from repro.gcs.topology import Topology
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.transport.base import CAP_FAULTS, CAP_TRACE, CAP_VIRTUAL_TIME


class GcsWorld:
    """A running group communication deployment on a topology."""

    kind = "sim"
    capabilities = frozenset({CAP_VIRTUAL_TIME, CAP_FAULTS, CAP_TRACE})

    def __init__(
        self,
        topology: Topology,
        obs: Optional[Observability] = None,
    ) -> None:
        self.topology = topology
        self.params = topology.params
        self.sim = Simulator()
        self.obs = obs or Observability(enabled=False)
        if self.obs.enabled:
            # Thread causal context along the event graph: scheduling
            # stamps the ambient cause on each event, firing restores it.
            self.sim.cause_hook = self.obs.causality
        for machine in topology.machines:
            machine.obs = self.obs
        self.network = Network(self.sim, topology, obs=self.obs)
        self.daemons: Dict[int, Daemon] = {}
        self.client_directory: Dict[str, Daemon] = {}
        for index, machine in enumerate(topology.machines):
            daemon = Daemon(index, machine, self)
            self.daemons[index] = daemon
            self.network.register(daemon)
        ring = TokenRing(topology, topology.machines, self.sim)
        config = Config(
            config_id=(1, 0), daemon_ids=tuple(sorted(self.daemons)), ring=ring
        )
        for daemon in self.daemons.values():
            daemon.install_initial(config)
        self._bootstrap_cycle_ms = ring.cycle_ms

    # -- the Transport interface -------------------------------------------

    def channel(self, name: str, machine_index: int) -> SpreadClient:
        """Create a client process on the given machine's daemon."""
        return SpreadClient(name, self.daemons[machine_index])

    def spawn_clients(self, names: Sequence[str]) -> List[SpreadClient]:
        """Create clients distributed uniformly across machines (§6.1.1:
        "group members are uniformly distributed on the thirteen machines")."""
        count = len(self.topology.machines)
        return [self.channel(name, i % count) for i, name in enumerate(names)]

    @property
    def scheduler(self) -> Simulator:
        """The transport's clock/timer service: the simulator itself."""
        return self.sim

    def machine(self, machine_index: int):
        """CPU-accounting handle for a process slot: the testbed machine."""
        return self.topology.machines[machine_index]

    def machine_count(self) -> int:
        return len(self.topology.machines)

    def bind(self, obs: Observability) -> None:
        """Late-attach a flight recorder (no-op here: the world receives
        its recorder at construction; the method completes the Transport
        interface for substrates built before their framework)."""
        if obs is not self.obs and obs.enabled:
            raise RuntimeError(
                "GcsWorld takes its Observability at construction; build "
                "the framework with observe=... instead of rebinding"
            )

    # -- fault injection -----------------------------------------------------

    def _detection_ms(self, override: Optional[float]) -> float:
        """Failure-detector latency: ``override`` when given, else a few
        bootstrap ring cycles."""
        if override is not None:
            return override
        return self.params.failure_detection_cycles * self._bootstrap_cycle_ms

    def partition(
        self,
        components: Iterable[Iterable[int]],
        detection_delay_ms: Optional[float] = None,
    ) -> None:
        """Partition the network into components of machine indices."""
        self.network.set_partition(components, self._detection_ms(detection_delay_ms))

    def heal(self, detection_delay_ms: Optional[float] = None) -> None:
        """Heal all partitions (a network merge event)."""
        self.network.heal(self._detection_ms(detection_delay_ms))

    def isolate_machine(
        self, machine_index: int, detection_delay_ms: Optional[float] = None
    ) -> None:
        """Cut one machine off from the rest (its daemon and clients with
        it) — the closest simulable analogue of a machine crash from the
        surviving group's perspective (the paper treats a member crash as
        a leave, §5)."""
        others = [i for i in self.daemons if i != machine_index]
        self.partition([[machine_index], others], detection_delay_ms)

    def install_link_faults(self, faults) -> None:
        """Attach a :class:`repro.faults.link.LinkFaults` injector to the
        network (or detach it with ``None``)."""
        self.network.install_faults(faults)

    def crash_daemon(
        self, machine_index: int, detection_delay_ms: Optional[float] = None
    ) -> None:
        """Crash a machine's daemon: its volatile state and clients are
        lost, and the survivors reconfigure once their failure detectors
        notice."""
        delay = self._detection_ms(detection_delay_ms)
        # Capture the peer set before the network marks the daemon dead.
        peers = self.network.component_of(machine_index) - {machine_index}
        self.daemons[machine_index].crash()
        self.network.note_crash(machine_index)
        self.network.notify_peers(peers, delay)

    def restart_daemon(
        self, machine_index: int, detection_delay_ms: Optional[float] = None
    ) -> None:
        """Restart a crashed daemon as a singleton configuration; it then
        merges back with its component through an ordinary heavyweight
        membership event."""
        delay = self._detection_ms(detection_delay_ms)
        self.network.note_restart(machine_index)
        self.daemons[machine_index].restart()
        self.network.notify_peers(self.network.component_of(machine_index), delay)

    def crash_client(self, name: str) -> None:
        """Disconnect a client process abruptly (a member crash: the
        daemon notices immediately and the group sees a leave)."""
        daemon = self.client_directory.get(name)
        if daemon is None:
            raise KeyError(f"no connected client named {name!r}")
        daemon.clients[name].disconnect()

    def close(self) -> None:
        """Drop every daemon, client and queued event (the end of a run)."""
        for daemon in self.daemons.values():
            daemon.clients.clear()
        self.daemons.clear()
        self.client_directory.clear()
        self.network.close()
        self.sim.clear()

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation (see :meth:`repro.sim.engine.Simulator.run`)."""
        self.sim.run(until=until)

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Run until no events remain."""
        self.sim.run_until_idle(max_events=max_events)
        if self.obs.enabled:
            self.obs.gauge("sim.events_processed").set(self.sim.events_processed)
            self.obs.gauge("sim.active_pending").set(self.sim.active_pending)
            self.obs.gauge("sim.now_ms").set(self.sim.now)

    @property
    def now(self) -> float:
        return self.sim.now
