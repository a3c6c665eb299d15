"""The Spread daemon: ordering, group state, and configuration membership.

One daemon runs per machine (§3.1).  Clients connect to their local daemon;
a client join/leave is *lightweight* — a single Agreed message — while a
network partition/merge is *heavyweight*: the daemons run a
coordinator-driven configuration change (propose → accept → install) with
flush and retransmission, after which every group whose membership changed
receives a new view.  This is the architecture that lets Spread "pay the
minimum possible price for different causes of group membership changes".

Ordering: Agreed messages are sequenced by the configuration's token ring
and delivered in sequence order once the token sweep from the sequencer has
passed the receiving daemon (see :mod:`repro.gcs.ring`).  The flush during
a configuration change delivers the union of what the surviving component
received, preserving view synchrony for surviving members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.gcs.membership import MemberRecord, MembershipTable
from repro.gcs.messages import GroupMessage, SequencedMessage, Service, View, ViewEvent
from repro.gcs.ring import TokenRing
from repro.transport.base import (
    validate_group_name,
    validate_member_name,
    validate_payload_size,
)

#: Wire size of configuration-change control frames.
_CONTROL_FRAME_BYTES = 256


@dataclass
class Config:
    """A daemon configuration: the reachable daemons and their shared ring.

    ``config_id`` is a ``(number, coordinator)`` pair: the number grows
    monotonically across configuration changes and the coordinator id keeps
    simultaneous components of a partition distinguishable.
    """

    config_id: Tuple[int, int]
    daemon_ids: Tuple[int, ...]
    ring: TokenRing

    def __post_init__(self) -> None:
        # index_of is on the per-delivery hot path (the hold barrier asks
        # for two positions per Agreed frame); a dict beats tuple.index.
        self._index = {d: i for i, d in enumerate(self.daemon_ids)}

    def index_of(self, daemon_id: int) -> int:
        return self._index[daemon_id]


@dataclass
class _AcceptState:
    """A daemon's state as reported in an ACCEPT during a config change."""

    daemon_id: int
    config_id: Tuple[int, int]
    delivered: int
    undelivered: Dict[int, SequencedMessage]
    table: MembershipTable


class Daemon:
    """One Spread daemon on one machine."""

    def __init__(self, daemon_id: int, machine, world) -> None:
        self.daemon_id = daemon_id
        self.machine = machine
        self.world = world
        self.clients: Dict[str, Any] = {}
        # Replicated group state.  A join's birth is ``(config_id, seq)``
        # of its message — the newest, since sequence numbers grow within
        # a configuration and a configuration's number exceeds every one
        # its members came from — so appending keeps join-age order.
        self.table = MembershipTable()
        self.config: Optional[Config] = None
        self._recv: Dict[Tuple[int, int], Dict[int, SequencedMessage]] = {}
        # Messages this daemon sequenced itself, kept until delivered so a
        # configuration change can flush in-flight sends (view synchrony).
        self._sent: Dict[Tuple[int, int], Dict[int, SequencedMessage]] = {}
        self._delivered = 0
        self._frozen = False
        # Delivery scans are scheduled in proportion to frames delivered,
        # not frames arrived, through two dedupe keys (both cleared by
        # crash() and re-initialised by a configuration install):
        #
        # * ``_deliver_soon`` — config id with a zero-delay _try_deliver
        #   already queued: one arrival scan per instant.  Frames landing
        #   at the same time were all scheduled before that scan, so it
        #   sees every one of them.  A frame fanned out to several
        #   daemons lands at each of them in one event, which queues one
        #   scan event for all of them (see :func:`arrive`).
        # * ``_wake`` — the armed hold wake ``(config_id, hold)``.
        #   Invariant: while it is set and ``hold > now``, frame
        #   ``_delivered + 1`` sits in ``_recv`` held behind the token
        #   sweep until ``hold``, and exactly one _try_deliver is queued
        #   for that instant.  Nothing can deliver or discard the head
        #   before then, so a scan that finds it still held arms nothing
        #   new, and a frame arriving behind it schedules no scan at all:
        #   it cannot become deliverable before the wake, and the NACK
        #   gap logic only runs when the head is *missing*.
        self._deliver_soon: Optional[Tuple[int, int]] = None
        self._wake: Optional[Tuple[Tuple[int, int], float]] = None
        self._send_queue: List[GroupMessage] = []
        # configuration-change state
        self._reachable: FrozenSet[int] = frozenset()
        self._round_id = 0
        self._accepts: Dict[int, _AcceptState] = {}
        self._last_propose_token: Optional[Tuple[int, int]] = None
        # crash / restart state
        self._crashed = False
        self._last_config_number = 0
        # retransmission: delivered-message history (to serve peers' NACKs)
        # and the gap timer currently armed, keyed (config_id, next_needed)
        self._history: Dict[Tuple[int, int], Dict[int, SequencedMessage]] = {}
        self._nack_armed_for: Optional[Tuple[Tuple[int, int], int]] = None
        self._nack_rotation = 0
        self.retransmit_requests = 0
        self.retransmits_served = 0
        # Causal provenance of the first arrival of each frame, keyed
        # (config_id, seq).  The zero-delay delivery scan dedupes across
        # frames, so the scan event's own cause names only the *first*
        # frame of the instant; this map lets each delivered message
        # adopt the cause of the frame that actually carried it.
        self._arrival: Dict[Tuple[Any, int], Any] = {}

    # ------------------------------------------------------------------
    # bootstrap / client connections
    # ------------------------------------------------------------------

    def install_initial(self, config: Config) -> None:
        """Install the bootstrap configuration (all daemons, fresh ring)."""
        self.config = config
        self._reachable = frozenset(config.daemon_ids)
        self._recv[config.config_id] = {}
        self._delivered = 0

    def connect(self, client) -> None:
        """Attach a local client process."""
        if self._crashed:
            raise RuntimeError(f"daemon d{self.daemon_id} has crashed")
        validate_member_name(client.name)
        if client.name in self.world.client_directory:
            raise ValueError(f"client name {client.name!r} already in use")
        self.clients[client.name] = client
        self.world.client_directory[client.name] = self

    def disconnect(self, client) -> None:
        """Detach a client; it implicitly leaves all its groups."""
        for group, records in list(self.table.groups.items()):
            if client.name in records:
                self.submit(
                    GroupMessage(
                        group=group,
                        sender=client.name,
                        payload=None,
                        kind="disconnect",
                    )
                )
        self.clients.pop(client.name, None)
        self.world.client_directory.pop(client.name, None)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def submit(self, message: GroupMessage) -> None:
        """Accept a message from a local client for dissemination.

        The boundary validation mirrors :class:`~repro.gcs.client.
        SpreadClient`'s — messages built by hand (tests, resubmits) get
        the same clear error a malformed client call would, instead of
        an opaque ``KeyError`` deep inside ring sequencing.
        """
        validate_group_name(message.group)
        validate_payload_size(message.size_bytes)
        if self._crashed:
            return  # a crash severs in-flight IPC; the message is lost
        if message.cause is None and self.world.obs.enabled:
            # Stamp once: a configuration-change resubmit keeps the
            # original sender-side cause, not the resubmit context.
            message.cause = self.world.obs.causality.current
        if message.service is Service.AGREED:
            if self._frozen:
                self._send_queue.append(message)
            else:
                self._sequence_and_disseminate(message)
        elif message.service is Service.FIFO:
            self._send_fifo(message)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown service {message.service}")

    def _sequence_and_disseminate(self, message: GroupMessage) -> None:
        config = self.config
        my_index = config.index_of(self.daemon_id)
        config.ring.request(
            my_index,
            1,
            lambda assignments: self._on_sequenced(config, message, assignments),
        )

    def _on_sequenced(self, config: Config, message: GroupMessage, assignments) -> None:
        """The token reached us: stamp the message and disseminate it."""
        if self._crashed:
            return
        if self.config is None or self.config.config_id != config.config_id:
            # The configuration changed while we waited for the token;
            # resubmit so the message is sequenced in the new one.
            self.submit(message)
            return
        ((seq, sequenced_at),) = assignments
        smsg = SequencedMessage(
            config_id=config.config_id,
            seq=seq,
            origin_daemon=self.daemon_id,
            sequenced_at=sequenced_at,
            message=message,
        )
        self._sent.setdefault(config.config_id, {})[seq] = smsg
        now = self.world.sim.now
        if self.world.obs.enabled:
            # This fires at a token-visit event, whose cause is the ring's
            # own machinery; the frames about to go out were caused by the
            # *send* that produced the message, so adopt that instead.
            self.world.obs.causality.adopt(message.cause)
        self.world.network.broadcast_frame(
            self.daemon_id,
            config.daemon_ids,
            message.size_bytes,
            smsg,
            extra_delay_ms=max(sequenced_at - now, 0.0),
        )

    def _send_fifo(self, message: GroupMessage) -> None:
        if message.target is None:
            raise ValueError("FIFO messages require a target member")
        record = self.table.groups.get(message.group, {}).get(message.target)
        if record is None:
            return
        self.world.network.send(
            self.daemon_id,
            record.daemon_id,
            message.size_bytes,
            self.world.daemons[record.daemon_id]._deliver_fifo,
            message,
        )

    # ------------------------------------------------------------------
    # receiving and ordered delivery
    # ------------------------------------------------------------------

    def _on_frame(self, smsg: SequencedMessage) -> None:
        """One frame arrives on its own: a NACK-served retransmit, or an
        origin's retry of a frame lost to a link fault."""
        if self._accept_frame(smsg):
            self.world.sim.schedule(0, self._try_deliver, smsg.config_id)

    def _accept_frame(self, smsg: SequencedMessage) -> bool:
        """Store an arriving frame; True when it needs an arrival scan
        that is not already queued (the caller queues it)."""
        if self._crashed:
            return False
        if (
            self.config
            and smsg.config_id == self.config.config_id
            and smsg.seq <= self._delivered
        ):
            return False  # duplicate of an already-delivered frame
        pending = self._recv.setdefault(smsg.config_id, {})
        pending[smsg.seq] = smsg
        if self.world.obs.enabled:
            # First arrival wins: a fault duplicate or a NACK-served
            # retransmit must not re-parent an already-recorded frame.
            self._arrival.setdefault(
                (smsg.config_id, smsg.seq), self.world.obs.causality.current
            )
        if self.config and smsg.config_id == self.config.config_id:
            wake = self._wake
            if (
                wake is not None
                and wake[0] == smsg.config_id
                and wake[1] > self.world.sim.now
            ):
                # Behind a held head (see ``_wake``): the armed wake does
                # the delivering; only the queue-depth gauge moves now.
                self._gauge_undelivered(len(pending))
                return False
            if self._deliver_soon != smsg.config_id:
                self._deliver_soon = smsg.config_id
                return True
        return False

    def _gauge_undelivered(self, depth: int) -> None:
        """Frames queued behind a held head, as of the latest arrival."""
        if self.world.obs.enabled:
            self.world.obs.gauge(
                "daemon.undelivered", daemon=f"d{self.daemon_id}"
            ).set(depth)

    def _hold_until(self, smsg: SequencedMessage) -> float:
        """The ordering-settlement barrier: the token sweep must pass us.

        Reads the ring's precomputed distance matrix directly — this runs
        once per delivered Agreed frame, and the ``index_of``/
        ``distance_ms`` call layers are measurable at n=1024.
        """
        config = self.config
        index = config._index
        return smsg.sequenced_at + config.ring._distance_ms[
            index[smsg.origin_daemon]
        ][index[self.daemon_id]]

    def _try_deliver(self, config_id: Tuple[int, int]) -> None:
        self._deliver_soon = None
        if self._crashed or self.config is None or self.config.config_id != config_id:
            return
        pending = self._recv.get(config_id, {})
        now = self.world.sim.now
        while True:
            smsg = pending.get(self._delivered + 1)
            if smsg is None:
                if pending:
                    # Later frames arrived but the next-in-sequence one is
                    # missing — likely lost to a link fault.  Arm the
                    # retransmission (NACK) timer.
                    self._arm_nack(config_id)
                return
            hold = self._hold_until(smsg)
            if hold > now:
                if self._wake != (config_id, hold):
                    self._wake = (config_id, hold)
                    self.world.sim.schedule_at(
                        hold, self._try_deliver, config_id
                    )
                self._gauge_undelivered(len(pending))
                return
            self._delivered += 1
            del pending[smsg.seq]
            if smsg.origin_daemon == self.daemon_id:
                self._sent.get(config_id, {}).pop(smsg.seq, None)
            self._record_history(config_id, smsg)
            self._deliver(smsg)

    def _deliver(self, smsg: SequencedMessage) -> None:
        message = smsg.message
        if self.world.obs.enabled:
            obs = self.world.obs
            obs.counter(
                "daemon.delivered", daemon=f"d{self.daemon_id}", kind=message.kind
            ).inc()
            # Re-enter the causal context of the frame that carried this
            # message (the scan event's own cause only names the first
            # frame of the instant), then record delivery as a DAG vertex
            # everything downstream — view emission, client IPC — hangs
            # off.  A flush delivery with no local arrival keeps the
            # ambient (config-install) cause, which is what it waited on.
            key = (smsg.config_id, smsg.seq)
            if key in self._arrival:
                obs.causality.adopt(self._arrival.pop(key))
            node = obs.caused_instant(
                "gcs", "deliver", f"d{self.daemon_id}", self.machine.name,
                self.world.sim.now, seq=smsg.seq, kind=message.kind,
            )
            obs.causality.adopt(node)
        if message.kind in ("join", "leave", "disconnect"):
            self._apply_membership(smsg)
        else:
            self._deliver_data(message)

    def _deliver_data(self, message: GroupMessage) -> None:
        records = self.table.groups.get(message.group, {})
        params = self.world.params
        delay = params.ipc_ms + params.client_processing_ms
        if message.target is not None:
            client = self.clients.get(message.target)
            if client is not None and message.target in records:
                self.world.sim.schedule(delay, client._on_message, message)
            return
        # One event fans the message out to every local recipient.  The
        # per-client events this replaces were created back to back —
        # same firing time, consecutive seqs, so nothing could interleave
        # between them — and each client still drops the message itself
        # if it disconnected before the IPC delay elapsed.
        handlers = [
            client._on_message
            for name, client in self.clients.items()
            if name in records
        ]
        if handlers:
            self.world.sim.schedule(delay, _fan_out, handlers, message)

    def _deliver_fifo(self, message: GroupMessage) -> None:
        if self._crashed:
            return
        client = self.clients.get(message.target)
        if client is None:
            return
        if message.target not in self.table.groups.get(message.group, {}):
            return
        params = self.world.params
        self.world.sim.schedule(
            params.ipc_ms + params.client_processing_ms,
            client._on_message,
            message,
        )

    # ------------------------------------------------------------------
    # retransmission (NACK recovery of frames lost to link faults)
    # ------------------------------------------------------------------
    #
    # Totem recovers lost frames via retransmission requests carried on
    # the token; we model the same discipline as a NACK unicast to a peer
    # daemon.  Recovery traffic rides the reliable control channel (the
    # same one the configuration-change exchange uses), and the origin
    # always retains its own undelivered messages, so a gap converges as
    # long as any daemon in the configuration holds the frame.

    def _record_history(
        self, config_id: Tuple[int, int], smsg: SequencedMessage
    ) -> None:
        bucket = self._history.setdefault(config_id, {})
        bucket[smsg.seq] = smsg
        limit = self.world.params.retransmit_history
        while len(bucket) > limit:
            # seqs are recorded in delivery (increasing) order, so the
            # first key is always the oldest
            del bucket[next(iter(bucket))]

    def _arm_nack(self, config_id: Tuple[int, int]) -> None:
        key = (config_id, self._delivered + 1)
        if self._nack_armed_for == key:
            return  # a timer for this exact gap is already pending
        self._nack_armed_for = key
        self.world.sim.schedule(
            self.world.params.retransmit_timeout_ms, self._nack_fire, key
        )

    def _nack_fire(self, key) -> None:
        if self._nack_armed_for != key:
            return  # gap resolved, or a newer gap superseded this timer
        self._nack_armed_for = None
        config_id, next_needed = key
        if (
            self._crashed
            or self.config is None
            or self.config.config_id != config_id
            or self._delivered + 1 != next_needed
        ):
            return
        pending = self._recv.get(config_id, {})
        if not pending:
            return
        top = max(pending)
        missing = [s for s in range(next_needed, top) if s not in pending][:64]
        if not missing:
            return  # everything arrived meanwhile; the hold barrier delivers
        others = [d for d in self.config.daemon_ids if d != self.daemon_id]
        if not others:
            return
        # Rotate the target so a peer that also lost the frame (or crashed
        # mid-request) doesn't stall us forever.
        target = others[self._nack_rotation % len(others)]
        self._nack_rotation += 1
        self.retransmit_requests += 1
        if self.world.obs.enabled:
            self.world.obs.counter(
                "daemon.nacks", daemon=f"d{self.daemon_id}"
            ).inc()
        self.world.network.send(
            self.daemon_id,
            target,
            _CONTROL_FRAME_BYTES + 8 * len(missing),
            self.world.daemons[target]._on_nack,
            config_id,
            tuple(missing),
            self.daemon_id,
            control=True,
        )
        # Re-arm: if the retransmission is also lost the next firing tries
        # the next peer.  (The timer self-cancels once the gap closes.)
        self._arm_nack(config_id)

    def _on_nack(self, config_id, missing, requester: int) -> None:
        if self._crashed:
            return
        recv = self._recv.get(config_id, {})
        sent = self._sent.get(config_id, {})
        history = self._history.get(config_id, {})
        for seq in missing:
            smsg = recv.get(seq) or sent.get(seq) or history.get(seq)
            if smsg is None:
                continue
            self.retransmits_served += 1
            self.world.network.send(
                self.daemon_id,
                requester,
                smsg.message.size_bytes,
                self.world.daemons[requester]._on_frame,
                smsg,
                control=True,
            )

    # ------------------------------------------------------------------
    # crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Halt abruptly: all volatile state is lost and local clients are
        severed without leave messages (the surviving daemons discover the
        failure through their detectors and reconfigure)."""
        self._crashed = True
        for name in list(self.clients):
            client = self.clients.pop(name)
            self.world.client_directory.pop(name, None)
            client._on_crashed()
        if self.config is not None:
            self._last_config_number = self.config.config_id[0]
        self.config = None
        self.table = MembershipTable()
        self._recv = {}
        self._sent = {}
        self._history = {}
        self._delivered = 0
        self._frozen = False
        self._deliver_soon = None
        self._wake = None
        self._send_queue = []
        self._accepts = {}
        self._nack_armed_for = None
        self._last_propose_token = None
        self._arrival = {}

    def restart(self) -> None:
        """Come back up as a singleton configuration; merging with the
        rest of the network is an ordinary heavyweight membership event
        driven by the failure detectors."""
        if not self._crashed:
            raise RuntimeError(f"daemon d{self.daemon_id} is not crashed")
        self._crashed = False
        ring = TokenRing(self.world.topology, [self.machine], self.world.sim)
        config = Config(
            config_id=(self._last_config_number + 1, self.daemon_id),
            daemon_ids=(self.daemon_id,),
            ring=ring,
        )
        self.config = config
        self._reachable = frozenset({self.daemon_id})
        self._recv = {config.config_id: {}}
        self._sent = {config.config_id: {}}
        self._delivered = 0
        self._round_id += 1

    # ------------------------------------------------------------------
    # lightweight (client) membership
    # ------------------------------------------------------------------

    def _apply_membership(self, smsg: SequencedMessage) -> None:
        if not _apply(self.table, smsg):
            return  # duplicate join or leave, ignore
        message = smsg.message
        records = self.table.groups[message.group]
        left = () if message.kind == "join" else (message.sender,)
        if not self.world.obs.enabled and not any(
            name in records or name in left for name in self.clients
        ):
            return  # no local client hears this view
        view = self.table.view(
            message.group,
            ViewEvent.LEAVE if left else ViewEvent.JOIN,
            joined=() if left else (message.sender,),
            left=left,
            view_id=(smsg.config_id, smsg.seq),
        )
        self._emit_view(view, also_to=left)

    def _emit_view(self, view: View, also_to: Tuple[str, ...] = ()) -> None:
        """Hand ``view`` to every local client in the group plus
        ``also_to`` (a leaver learning it is out), in one event — the
        same-instant argument as :meth:`_deliver_data`'s fan-out."""
        obs = self.world.obs if self.world.obs.enabled else None
        prior = None
        if obs is not None:
            # The view instant joins the DAG; adopting it parents the
            # clients' scheduled ``_on_view`` events (stamped by the
            # cause hook) under the view delivery they waited on.
            prior = obs.causality.current
            node = obs.caused_instant(
                "gcs", f"view {view.event.name.lower()}",
                f"d{self.daemon_id}", self.machine.name, self.world.sim.now,
                epoch=view.view_id, members=len(view.members),
            )
            obs.causality.adopt(node)
        records = self.table.groups.get(view.group, {})
        handlers = [
            client._on_view
            for name, client in self.clients.items()
            if name in records or name in also_to
        ]
        if handlers:
            params = self.world.params
            self.world.sim.schedule(
                params.ipc_ms + params.client_processing_ms,
                _fan_out,
                handlers,
                view,
            )
        if obs is not None:
            # Restore so sibling views emitted by the same event (a
            # heavyweight install touching several groups) do not chain
            # under each other.
            obs.causality.adopt(prior)

    # ------------------------------------------------------------------
    # heavyweight (daemon configuration) membership
    # ------------------------------------------------------------------

    def on_reachability(self, reachable: FrozenSet[int]) -> None:
        """The failure detector reports a new reachable daemon set."""
        if self._crashed:
            return
        if self.config and reachable == set(self.config.daemon_ids):
            return
        if self.world.obs.enabled:
            self.world.obs.instant(
                "gcs", "reachability change", f"d{self.daemon_id}",
                self.machine.name, self.world.sim.now,
                reachable=sorted(reachable),
            )
        self._frozen = True
        self._reachable = reachable
        self._accepts = {}
        self._round_id += 1
        if self.daemon_id == min(reachable):
            round_token = (self.daemon_id, self._round_id)
            for dst_id in reachable:
                self.world.network.send(
                    self.daemon_id,
                    dst_id,
                    _CONTROL_FRAME_BYTES,
                    self.world.daemons[dst_id]._on_propose,
                    round_token,
                    reachable,
                    self.daemon_id,
                    control=True,
                )

    def _on_propose(
        self, round_token: Tuple[int, int], members: FrozenSet[int], coordinator: int
    ) -> None:
        if self._crashed:
            return
        self._frozen = True
        self._last_propose_token = round_token
        config_id = self.config.config_id
        undelivered = dict(self._recv.get(config_id, {}))
        for seq, smsg in self._sent.get(config_id, {}).items():
            if seq > self._delivered:
                undelivered.setdefault(seq, smsg)
        state = _AcceptState(
            daemon_id=self.daemon_id,
            config_id=config_id,
            delivered=self._delivered,
            undelivered=undelivered,
            table=self.table.copy(),
        )
        self.world.network.send(
            self.daemon_id,
            coordinator,
            _CONTROL_FRAME_BYTES + 128 * len(state.undelivered),
            self.world.daemons[coordinator]._on_accept,
            round_token,
            state,
            frozenset(members),
            control=True,
        )

    def _on_accept(
        self,
        round_token: Tuple[int, int],
        state: _AcceptState,
        members: FrozenSet[int],
    ) -> None:
        if self._crashed:
            return
        if round_token != (self.daemon_id, self._round_id):
            return  # stale round
        self._accepts[state.daemon_id] = state
        if set(self._accepts) != set(members):
            return
        # All accepts in: build the new configuration.  The id pairs a
        # monotonically growing number with the coordinator id so that two
        # components of a partition can never install the same config id
        # (their flush epochs must stay distinguishable).
        states = dict(self._accepts)
        new_config_id = (
            max(s.config_id[0] for s in states.values()) + 1,
            self.daemon_id,
        )
        ordered_ids = tuple(sorted(members))
        machines = [self.world.daemons[d].machine for d in ordered_ids]
        ring = TokenRing(self.world.topology, machines, self.world.sim)
        config = Config(new_config_id, ordered_ids, ring)
        # Union of sequenced-but-undelivered messages per old config.
        union: Dict[Tuple[int, int], Dict[int, SequencedMessage]] = {}
        for state_ in states.values():
            bucket = union.setdefault(state_.config_id, {})
            bucket.update(state_.undelivered)
        retransmit_bytes = sum(
            m.message.size_bytes for bucket in union.values() for m in bucket.values()
        )
        for dst_id in ordered_ids:
            self.world.network.send(
                self.daemon_id,
                dst_id,
                _CONTROL_FRAME_BYTES + retransmit_bytes,
                self.world.daemons[dst_id]._on_install,
                round_token,
                config,
                union,
                states,
                control=True,
            )

    def _on_install(
        self,
        round_token: Tuple[int, int],
        config: Config,
        union: Dict[Tuple[int, int], Dict[int, SequencedMessage]],
        states: Dict[int, _AcceptState],
    ) -> None:
        if self._crashed:
            return
        if round_token != self._last_propose_token:
            return  # a newer configuration change superseded this round
        old_membership = {
            group: self.table.members(group) for group in self.table.groups
        }
        # 1. Flush: deliver the surviving component's union of undelivered
        #    messages for our old configuration, in sequence order,
        #    skipping gaps (a gap means no survivor holds the message).
        own_union = union.get(self.config.config_id, {})
        for seq in sorted(own_union):
            if seq <= self._delivered:
                continue
            self._delivered = seq
            self._deliver(own_union[seq])
        # 2. Reconstruct every responder's post-flush group state and merge,
        #    keeping each member's earliest record.
        merged: Dict[str, Dict[str, MemberRecord]] = {}
        for state in states.values():
            for group, records in _reconstruct_groups(state, union).groups.items():
                bucket = merged.setdefault(group, {})
                for name, record in records.items():
                    existing = bucket.get(name)
                    if existing is None or record.birth < existing.birth:
                        bucket[name] = record
        allowed = set(config.daemon_ids)
        self.table = MembershipTable()
        for group, records in merged.items():
            self.table.place(
                group, (r for r in records.values() if r.daemon_id in allowed)
            )
        # 3. Install the new configuration.
        self.config = config
        self._recv.setdefault(config.config_id, {})
        self._recv = {config.config_id: self._recv[config.config_id]}
        self._sent = {config.config_id: {}}
        self._history = {}
        self._arrival = {
            key: cause
            for key, cause in self._arrival.items()
            if key[0] == config.config_id
        }
        self._nack_armed_for = None
        self._wake = None
        self._delivered = 0
        self._frozen = False
        if self.world.obs.enabled:
            self.world.obs.instant(
                "gcs", "config install", f"d{self.daemon_id}",
                self.machine.name, self.world.sim.now,
                config=config.config_id, daemons=len(config.daemon_ids),
            )
        # 4. Emit partition/merge views for groups whose membership changed;
        #    a member's side is the old configuration its daemon came from.
        component = {daemon_id: state.config_id for daemon_id, state in states.items()}
        for group in sorted(set(old_membership) | set(self.table.groups)):
            records = self.table.groups.get(group, {})
            view = self.table.reconfigured(
                group,
                old_membership.get(group, ()),
                lambda member: component[records[member].daemon_id],
                view_id=(config.config_id, 0),
            )
            if view is not None:
                self._emit_view(view)
        # 5. Deliver any frames of the new configuration that raced ahead of
        #    the install, then release sends queued while frozen.
        self._deliver_soon = config.config_id
        self.world.sim.schedule(0, self._try_deliver, config.config_id)
        queued, self._send_queue = self._send_queue, []
        for message in queued:
            self.submit(message)


def arrive(daemons, smsg: SequencedMessage) -> None:
    """One frame lands at several daemons at the same instant.

    This is what :meth:`Daemon._on_frame` does at each, in order, fused
    into one event with one zero-delay scan event behind it.  It is exact
    for the reason :func:`_fan_out` is: the per-daemon arrivals it
    replaces were consecutive events at one instant, and so were the
    scans they queued.
    """
    scan = [daemon for daemon in daemons if daemon._accept_frame(smsg)]
    if scan:
        scan[0].world.sim.schedule(0, _scan, scan, smsg.config_id)


def _scan(daemons, config_id: Tuple[int, int]) -> None:
    """The arrival scans :func:`arrive` queued, in arrival order."""
    for daemon in daemons:
        daemon._try_deliver(config_id)


def _fan_out(handlers, item) -> None:
    """Deliver one message or view to several co-located clients in one
    event."""
    for handler in handlers:
        handler(item)


def _apply(table: MembershipTable, smsg: SequencedMessage) -> bool:
    """Apply one sequenced message to ``table``; False if it changed no
    roster (a duplicate join or leave, or data)."""
    message = smsg.message
    if message.kind == "join":
        return table.add(
            message.group,
            message.sender,
            message.payload["daemon_id"],
            (smsg.config_id, smsg.seq),
        )
    if message.kind in ("leave", "disconnect"):
        return table.remove(message.group, message.sender)
    return False


def _reconstruct_groups(
    state: _AcceptState, union: Dict[Tuple[int, int], Dict[int, SequencedMessage]]
) -> MembershipTable:
    """A reported state after the flush union's membership messages.

    The replay goes through :func:`_apply`, exactly what the reporting
    daemon does locally during its own flush, so every installer computes
    identical group states.
    """
    table = state.table.copy()
    bucket = union.get(state.config_id, {})
    for seq in sorted(bucket):
        if seq > state.delivered:
            _apply(table, bucket[seq])
    return table
