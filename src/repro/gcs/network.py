"""Frame delivery between daemons, with partitions, healing and faults.

The network is an oracle for reachability: frames between daemons in
different components are silently dropped (as a partitioned IP network
would), and daemons are informed of connectivity changes only after a
failure-detection delay — reproducing the paper's model where "an
unreliable network can split into disjoint components" and the group
communication system reacts (§5).

Beyond clean partitions, the network accepts a
:class:`~repro.faults.link.LinkFaults` injector (see
:meth:`Network.install_faults`): per-link drop/delay/duplicate/reorder
policies applied to inter-machine frames; a frame lost to one is
counted in :attr:`Network.fault_drops` (and, under the flight recorder,
``net.fault_drops``), one lost to a partition or crash in the recorder's
``net.frames_dropped``.  Crashed daemons
(see :meth:`repro.gcs.daemon.Daemon.crash`) are unreachable in both
directions until restarted.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from repro.gcs.daemon import arrive
from repro.gcs.topology import Topology
from repro.obs import NULL_OBS, Observability
from repro.sim.engine import Simulator


class Network:
    """Delivers frames between registered daemons according to the topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        obs: Observability = NULL_OBS,
    ):
        self.sim = sim
        self.topology = topology
        self.obs = obs
        self._daemons: Dict[int, Any] = {}
        self._component_of: Dict[int, int] = {}
        self._crashed: Set[int] = set()
        #: optional :class:`repro.faults.link.LinkFaults` injector
        self.faults = None
        self.fault_drops = 0
        self.fault_retries = 0

    # -- registration ----------------------------------------------------

    def register(self, daemon: Any) -> None:
        """Register a daemon (anything with ``daemon_id``, ``machine`` and
        ``on_reachability``).

        Daemons register while the world is built, before any partition,
        so each joins component 0: the whole network.
        """
        self._daemons[daemon.daemon_id] = daemon
        self._component_of[daemon.daemon_id] = 0

    def close(self) -> None:
        """Forget every daemon (the end of the world's lifetime)."""
        self._daemons.clear()

    # -- fault injection ---------------------------------------------------

    def install_faults(self, faults) -> None:
        """Attach (or, with ``None``, detach) a link-fault injector."""
        self.faults = faults

    def note_crash(self, daemon_id: int) -> None:
        """Mark a daemon crashed: unreachable in both directions."""
        self._crashed.add(daemon_id)

    def note_restart(self, daemon_id: int) -> None:
        """Mark a crashed daemon as running again."""
        self._crashed.discard(daemon_id)

    # -- reachability ----------------------------------------------------

    def component_of(self, daemon_id: int) -> Set[int]:
        """All running daemon ids in ``daemon_id``'s component."""
        if daemon_id in self._crashed:
            return {daemon_id}
        mine = self._component_of[daemon_id]
        return {
            d
            for d, c in self._component_of.items()
            if c == mine and d not in self._crashed
        }

    def set_partition(
        self, components: Iterable[Iterable[int]], detection_delay_ms: float = 0.0
    ) -> None:
        """Split the network into the given components.

        Every registered daemon must appear in exactly one component.
        Daemons learn their new reachable set ``detection_delay_ms`` later
        (their failure detector timing out).
        """
        assignment: Dict[int, int] = {}
        for index, component in enumerate(components):
            for daemon_id in component:
                if daemon_id in assignment:
                    raise ValueError(f"daemon {daemon_id} in two components")
                assignment[daemon_id] = index
        if set(assignment) != set(self._daemons):
            raise ValueError("components must cover all daemons exactly")
        self._component_of = assignment
        self._notify_all(detection_delay_ms)

    def heal(self, detection_delay_ms: float = 0.0) -> None:
        """Merge all components back into one network."""
        self._component_of = {d: 0 for d in self._daemons}
        self._notify_all(detection_delay_ms)

    def _notify_all(self, delay_ms: float) -> None:
        self.notify_peers(self._daemons, delay_ms)

    def notify_peers(self, daemon_ids: Iterable[int], delay_ms: float) -> None:
        """Deliver fresh reachability sets to the given daemons after the
        failure-detection delay (crashed daemons are skipped)."""
        for daemon_id in daemon_ids:
            if daemon_id in self._crashed:
                continue
            reachable = frozenset(self.component_of(daemon_id))
            self.sim.schedule(
                delay_ms, self._daemons[daemon_id].on_reachability, reachable
            )

    # -- frame delivery ---------------------------------------------------

    def send(
        self,
        src_id: int,
        dst_id: int,
        size_bytes: int,
        fn: Callable,
        *args: Any,
        control: bool = False,
        retry_faults: bool = False,
        _attempt: int = 0,
    ) -> Optional[float]:
        """Deliver a frame from one daemon to another.

        Returns the delivery time, or None when the destination is
        unreachable or the frame fell to a link fault (the frame is
        lost).  ``control`` marks configuration-change frames, which link
        faults leave alone unless their policy says otherwise.

        ``retry_faults`` models Totem's token-driven recovery of the
        Agreed multicast stream: a frame lost to a link fault is re-sent
        by the origin after the retransmission timeout, up to the
        topology's retry cap, for as long as both ends stay reachable.
        Frames lost to a partition or crash are never retried — that loss
        is the configuration change's to resolve.
        """
        landing = self._route(
            src_id, (dst_id,), size_bytes, 0.0, control,
            fn, args, retry_faults, _attempt,
        )
        for at, cause in landing:
            # caused by the frame in flight, not the sender's context
            self.sim.schedule_at(at, fn, *args).cause = cause
        return next(iter(landing))[0] if landing else None

    def broadcast_frame(
        self,
        src_id: int,
        dst_ids: Iterable[int],
        size_bytes: int,
        smsg: Any,
        *,
        extra_delay_ms: float = 0.0,
    ) -> None:
        """Fan one sequenced frame out to every daemon in ``dst_ids``.

        Each destination is routed as :meth:`send` with
        ``retry_faults=True`` routes a frame, and the landings are grouped
        by instant into one :func:`~repro.gcs.daemon.arrive` event each,
        which hands the frame to that instant's daemons in destination
        order.  That is exact: per-landing events would have been
        scheduled back to back, so those sharing an instant were
        consecutive there.  A dropped frame's retry only re-sends, later,
        so it commutes with any landing at its instant.  Under the
        recorder, landings are grouped by instant and frame span, and
        each group's event carries its span's cause: every daemon
        accepts, and scans, in the context of the frame that reached it.
        """
        landing = self._route(
            src_id, dst_ids, size_bytes, extra_delay_ms, False,
            None, (smsg,), True, 0,
        )
        schedule_at = self.sim.schedule_at
        for (at, cause), group in landing.items():
            schedule_at(at, arrive, group, smsg).cause = cause

    def _route(
        self, src_id, dst_ids, size_bytes, extra_delay_ms, control,
        fn, args, retry, attempt,
    ) -> Dict[Any, List[Any]]:
        """Route one frame to each of ``dst_ids``, in order: the
        reachability check, then with faults installed the link-fault
        verdict, then with the flight recorder on the frame's counters
        and span.

        Returns the landing daemons grouped by ``(instant, frame span
        cause)`` — the cause is None unless the recorder is on — in order
        of first landing: each delivery, then its fault duplicate.  With
        ``retry``, a frame lost to a link fault is re-sent by the origin
        after the retransmission timeout, up to the topology's retry cap,
        to ``fn(*args)`` (the frame's :func:`~repro.gcs.daemon.arrive` at
        the destination when ``fn`` is None).
        """
        daemons = self._daemons
        faults = self.faults
        obs = self.obs
        observed = obs.enabled
        crashed = self._crashed
        component_of = self._component_of
        src_unreachable = src_id in crashed
        src_component = component_of[src_id]
        src_machine = daemons[src_id].machine
        one_way_ms = self.topology.one_way_ms
        params = self.topology.params
        pre_ms = params.msg_processing_ms + extra_delay_ms
        now = self.sim.now
        landing: Dict[Any, List[Any]] = {}
        for dst_id in dst_ids:
            if (
                src_unreachable
                or dst_id in crashed
                or component_of[dst_id] != src_component
            ):
                if observed:
                    obs.counter(
                        "net.frames_dropped", src=f"d{src_id}", dst=f"d{dst_id}"
                    ).inc()
                continue
            dst = daemons[dst_id]
            latency = one_way_ms(src_machine, dst.machine, size_bytes) + pre_ms
            duplicate_ms = None
            if faults is not None and dst_id != src_id:
                verdict = faults.apply(src_id, dst_id, control=control)
                if verdict.drop:
                    self.fault_drops += 1
                    drop_cause = None
                    if observed:
                        obs.counter(
                            "net.fault_drops", src=f"d{src_id}", dst=f"d{dst_id}"
                        ).inc()
                        # The drop joins the DAG so a retried frame's spans
                        # parent under the loss that caused the retry.
                        drop_cause = obs.caused_instant(
                            "net", f"fault-drop d{src_id}->d{dst_id}",
                            f"d{src_id}", src_machine.name, now,
                            dst=dst_id, attempt=attempt,
                        )
                    if retry and attempt < params.retransmit_retries:
                        self.fault_retries += 1
                        retry_event = self.sim.schedule(
                            params.retransmit_timeout_ms, self._retry_send,
                            src_id, dst_id, size_bytes, fn or arrive,
                            args if fn else ((dst,), *args), control, attempt + 1,
                        )
                        if drop_cause is not None:
                            retry_event.cause = drop_cause
                    continue
                latency += verdict.extra_delay_ms
                duplicate_ms = verdict.duplicate_delay_ms
            at = now + latency
            cause = None
            if observed:
                link = dict(src=f"d{src_id}", dst=f"d{dst_id}")
                obs.counter("net.frames", **link).inc()
                obs.counter("net.bytes", **link).inc(size_bytes)
                obs.log_histogram("net.latency_ms", **link).observe(latency)
                cause = obs.caused_span(
                    "net", f"frame d{src_id}->d{dst_id}", f"d{src_id}",
                    src_machine.name, now, at, dst=dst_id, bytes=size_bytes,
                )
            key = (at, cause)
            group = landing.get(key)
            if group is None:
                landing[key] = [dst]
            else:
                group.append(dst)
            if duplicate_ms is not None:
                again = now + (latency + duplicate_ms)
                landing.setdefault((again, cause), []).append(dst)
        return landing

    def _retry_send(
        self, src_id, dst_id, size_bytes, fn, args, control, attempt
    ) -> None:
        self.send(
            src_id,
            dst_id,
            size_bytes,
            fn,
            *args,
            control=control,
            retry_faults=True,
            _attempt=attempt,
        )
