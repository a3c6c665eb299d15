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

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.gcs.membership import MemberRecord, MembershipTable
from repro.gcs.messages import GroupMessage, SequencedMessage, Service, View, ViewEvent
from repro.gcs.ring import TokenRing

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
        # Ring positions are on the per-delivery hot path (the hold barrier
        # reads two per Agreed frame); a dict beats tuple.index.
        self._index = {d: i for i, d in enumerate(self.daemon_ids)}


@dataclass
class _AcceptState:
    """A daemon's state as reported in an ACCEPT during a config change."""

    daemon_id: int
    config_id: Tuple[int, int]
    delivered: int
    undelivered: Dict[int, SequencedMessage]
    table: MembershipTable


@dataclass
class _Freeze:
    """A configuration change in progress at one daemon: the freeze phase.

    A reachability change or a propose opens it; the install (or a crash)
    closes it.  While it is open nothing is sequenced: Agreed sends, and
    requests whose token arrives meanwhile, wait in ``queue`` until the
    install submits them in the new configuration.
    """

    queue: List[GroupMessage] = field(default_factory=list)
    #: the propose round this daemon answered last; only its install counts
    token: Optional[Tuple[int, int]] = None
    #: as coordinator, the states gathered for this daemon's own round
    accepts: Dict[int, _AcceptState] = field(default_factory=dict)


@dataclass(eq=False)
class _Delivery:
    """Ordered delivery of one configuration at one daemon.

    Scan, wake and NACK-timer events carry the record they were armed
    for; one that is no longer the daemon's current record belongs to a
    configuration that has since changed.
    """

    config: Optional[Config] = None
    #: arrived frames not yet delivered, by seq
    pending: Dict[int, SequencedMessage] = field(default_factory=dict)
    #: each pending frame's first-arrival cause (recorder on): the scan
    #: event's own cause names only the *first* frame of its instant, so
    #: each delivered message adopts the cause of the frame carrying it
    arrival: Dict[int, Any] = field(default_factory=dict)
    #: frames this daemon sequenced, kept until delivered so a
    #: configuration change can flush in-flight sends (view synchrony)
    sent: Dict[int, SequencedMessage] = field(default_factory=dict)
    #: delivered frames, kept to serve peers' NACKs
    history: Dict[int, SequencedMessage] = field(default_factory=dict)
    delivered: int = 0
    # Delivery scans are scheduled in proportion to frames delivered, not
    # frames arrived, through two dedupe keys:
    #
    # * ``soon`` — a zero-delay scan is already queued: one arrival scan
    #   per instant.  Frames landing at the same time were all scheduled
    #   before that scan, so it sees every one of them.  A frame fanned
    #   out to several daemons lands at each of them in one event, which
    #   queues one scan event for all of them (see :func:`arrive`).
    # * ``wake`` — the instant of the armed hold wake.  Invariant: while
    #   it is later than now, frame ``delivered + 1`` sits in ``pending``
    #   held behind the token sweep until then, and exactly one scan is
    #   queued for that instant.  Nothing can deliver or discard the head
    #   before then, so a scan that finds it still held arms nothing new,
    #   and a frame arriving behind it schedules no scan: it cannot become
    #   deliverable before the wake, and the NACK gap logic only runs
    #   when the head is *missing*.
    soon: bool = False
    wake: Optional[float] = None
    #: the gap (``delivered + 1``) the armed NACK timer is for
    nack: Optional[int] = None


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
        # Ordered delivery in the current configuration (None until the
        # first install and while crashed), and the frames of any other
        # configuration, by config id, until that one is entered.
        self._delivery: Optional[_Delivery] = None
        self._other: Dict[Tuple[int, int], _Delivery] = {}
        self._freeze: Optional[_Freeze] = None
        self._round_id = 0  # numbers the propose rounds this daemon leads
        self._crashed = False
        self._last_config_number = 0
        self._nack_rotation = 0

    @property
    def config(self) -> Optional[Config]:
        """The current configuration (None while crashed)."""
        return None if self._delivery is None else self._delivery.config

    def _enter(self, config: Config) -> _Delivery:
        """Make ``config`` current with a fresh delivery record, keeping
        the frames of it that raced ahead of its install (with their
        arrival causes) and dropping those of every other configuration.
        """
        delivery = self._other.get(config.config_id) or _Delivery()
        delivery.config = config
        self._delivery, self._other = delivery, {}
        return delivery

    # ------------------------------------------------------------------
    # bootstrap / client connections
    # ------------------------------------------------------------------

    def install_initial(self, config: Config) -> None:
        """Install the bootstrap configuration (all daemons, fresh ring)."""
        self._enter(config)

    def connect(self, client) -> None:
        """Attach a local client process."""
        if self._crashed:
            raise RuntimeError(f"daemon d{self.daemon_id} has crashed")
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
        """Accept a message from a local client for dissemination."""
        if self._crashed:
            return  # a crash severs in-flight IPC; the message is lost
        if message.cause is None and self.world.obs.enabled:
            # Stamp once: a configuration-change resubmit keeps the
            # original sender-side cause, not the resubmit context.
            message.cause = self.world.obs.causality.current
        if message.service is Service.AGREED:
            if self._freeze is not None:
                self._freeze.queue.append(message)
                return
            delivery = self._delivery
            config = delivery.config
            config.ring.request(
                config._index[self.daemon_id],
                1,
                lambda assignments: self._on_sequenced(delivery, message, assignments),
            )
        elif message.service is Service.FIFO:
            self._send_fifo(message)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown service {message.service}")

    def _on_sequenced(
        self, delivery: _Delivery, message: GroupMessage, assignments
    ) -> None:
        """The token reached us: stamp the message and disseminate it."""
        if self._crashed:
            return
        if self._freeze is not None or delivery is not self._delivery:
            # Nothing is sequenced in a frozen or replaced configuration:
            # submit parks the message until the install, or sequences it
            # in the configuration that replaced this one.
            self.submit(message)
            return
        ((seq, sequenced_at),) = assignments
        config = delivery.config
        smsg = SequencedMessage(
            config_id=config.config_id,
            seq=seq,
            origin_daemon=self.daemon_id,
            sequenced_at=sequenced_at,
            message=message,
        )
        delivery.sent[seq] = smsg
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

    def _accept_frame(self, smsg: SequencedMessage) -> bool:
        """Store an arriving frame; True when it needs an arrival scan
        that is not already queued (the caller queues it)."""
        if self._crashed:
            return False
        delivery = self._delivery
        current = smsg.config_id == delivery.config.config_id
        if not current:
            delivery = self._other.get(smsg.config_id)
            if delivery is None:
                delivery = self._other[smsg.config_id] = _Delivery()
        elif smsg.seq <= delivery.delivered:
            return False  # duplicate of an already-delivered frame
        pending = delivery.pending
        pending[smsg.seq] = smsg
        if self.world.obs.enabled:
            # First arrival wins: a fault duplicate or a NACK-served
            # retransmit must not re-parent an already-recorded frame.
            delivery.arrival.setdefault(smsg.seq, self.world.obs.causality.current)
        if not current:
            return False
        wake = delivery.wake
        if wake is not None and wake > self.world.sim.now:
            # Behind a held head (see ``_Delivery.wake``): the armed wake
            # does the delivering; only the queue-depth gauge moves now.
            self._gauge_undelivered(len(pending))
            return False
        if delivery.soon:
            return False
        delivery.soon = True
        return True

    def _gauge_undelivered(self, depth: int) -> None:
        """Frames queued behind a held head, as of the latest arrival."""
        if self.world.obs.enabled:
            self.world.obs.gauge(
                "daemon.undelivered", daemon=f"d{self.daemon_id}"
            ).set(depth)

    def _try_deliver(self, delivery: _Delivery) -> None:
        current = self._delivery
        if current is not None:
            # Any scan re-opens arrival scans, a stale one included (the
            # next arrival may then queue a scan that finds nothing new).
            current.soon = False
        if delivery is not current:
            return  # crashed, or the configuration changed meanwhile
        pending = delivery.pending
        index = delivery.config._index
        distance, mine = delivery.config.ring._distance_ms, index[self.daemon_id]
        now = self.world.sim.now
        while True:
            smsg = pending.get(delivery.delivered + 1)
            if smsg is None:
                if pending:
                    # Later frames arrived but the next-in-sequence one is
                    # missing — likely lost to a link fault.  Arm the
                    # retransmission (NACK) timer.
                    self._arm_nack(delivery)
                return
            # The ordering-settlement barrier: the token sweep must pass
            # us.  Read straight off the ring's distance matrix.
            hold = smsg.sequenced_at + distance[index[smsg.origin_daemon]][mine]
            if hold > now:
                if delivery.wake != hold:
                    delivery.wake = hold
                    self.world.sim.schedule_at(hold, self._try_deliver, delivery)
                self._gauge_undelivered(len(pending))
                return
            delivery.delivered += 1
            del pending[smsg.seq]
            if smsg.origin_daemon == self.daemon_id:
                delivery.sent.pop(smsg.seq, None)
            history = delivery.history
            history[smsg.seq] = smsg
            while len(history) > self.world.params.retransmit_history:
                # seqs are recorded in delivery (increasing) order, so the
                # first key is always the oldest
                del history[next(iter(history))]
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
            arrival = self._delivery.arrival
            if smsg.seq in arrival:
                obs.causality.adopt(arrival.pop(smsg.seq))
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

    def _arm_nack(self, delivery: _Delivery) -> None:
        next_needed = delivery.delivered + 1
        if delivery.nack == next_needed:
            return  # a timer for this exact gap is already pending
        delivery.nack = next_needed
        self.world.sim.schedule(
            self.world.params.retransmit_timeout_ms,
            self._nack_fire, delivery, next_needed,
        )

    def _nack_fire(self, delivery: _Delivery, next_needed: int) -> None:
        if delivery is not self._delivery or delivery.nack != next_needed:
            return  # configuration changed, or a newer gap superseded this timer
        delivery.nack = None
        pending = delivery.pending
        if delivery.delivered + 1 != next_needed or not pending:
            return  # gap resolved
        top = max(pending)
        missing = [s for s in range(next_needed, top) if s not in pending][:64]
        if not missing:
            return  # everything arrived meanwhile; the hold barrier delivers
        others = [d for d in delivery.config.daemon_ids if d != self.daemon_id]
        if not others:
            return
        # Rotate the target so a peer that also lost the frame (or crashed
        # mid-request) doesn't stall us forever.
        target = others[self._nack_rotation % len(others)]
        self._nack_rotation += 1
        if self.world.obs.enabled:
            self.world.obs.counter(
                "daemon.nacks", daemon=f"d{self.daemon_id}"
            ).inc()
        self.world.network.send(
            self.daemon_id,
            target,
            _CONTROL_FRAME_BYTES + 8 * len(missing),
            self.world.daemons[target]._on_nack,
            delivery.config.config_id,
            tuple(missing),
            self.daemon_id,
            control=True,
        )
        # Re-arm: if the retransmission is also lost the next firing tries
        # the next peer.  (The timer self-cancels once the gap closes.)
        self._arm_nack(delivery)

    def _on_nack(self, config_id, missing, requester: int) -> None:
        if self._crashed:
            return
        delivery = self._delivery
        if delivery.config.config_id != config_id:
            delivery = self._other.get(config_id)
            if delivery is None:
                return
        pending, sent, history = delivery.pending, delivery.sent, delivery.history
        for seq in missing:
            smsg = pending.get(seq) or sent.get(seq) or history.get(seq)
            if smsg is None:
                continue
            self.world.network.send(
                self.daemon_id,
                requester,
                smsg.message.size_bytes,
                arrive,
                (self.world.daemons[requester],),
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
        self.table = MembershipTable()
        self._freeze = None
        self._delivery, self._other = None, {}

    def restart(self) -> None:
        """Come back up as a singleton configuration; merging with the
        rest of the network is an ordinary heavyweight membership event
        driven by the failure detectors."""
        if not self._crashed:
            raise RuntimeError(f"daemon d{self.daemon_id} is not crashed")
        self._crashed = False
        ring = TokenRing(self.world.topology, [self.machine], self.world.sim)
        self._enter(
            Config(
                config_id=(self._last_config_number + 1, self.daemon_id),
                daemon_ids=(self.daemon_id,),
                ring=ring,
            )
        )
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
        phase = self._freeze = self._freeze or _Freeze()
        phase.accepts = {}
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
        phase = self._freeze = self._freeze or _Freeze()
        phase.token = round_token
        delivery = self._delivery
        undelivered = dict(delivery.pending)
        for seq, smsg in delivery.sent.items():
            if seq > delivery.delivered:
                undelivered.setdefault(seq, smsg)
        state = _AcceptState(
            daemon_id=self.daemon_id,
            config_id=delivery.config.config_id,
            delivered=delivery.delivered,
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
        phase = self._freeze
        if self._crashed or phase is None:
            return
        if round_token != (self.daemon_id, self._round_id):
            return  # stale round
        phase.accepts[state.daemon_id] = state
        if set(phase.accepts) != set(members):
            return
        # All accepts in: build the new configuration.  The id pairs a
        # monotonically growing number with the coordinator id so that two
        # components of a partition can never install the same config id
        # (their flush epochs must stay distinguishable).
        states = dict(phase.accepts)
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
        phase = self._freeze
        if self._crashed or phase is None or round_token != phase.token:
            return  # a newer configuration change superseded this round
        old_membership = {
            group: self.table.members(group) for group in self.table.groups
        }
        # 1. Flush: deliver the surviving component's union of undelivered
        #    messages for our old configuration, in sequence order,
        #    skipping gaps (a gap means no survivor holds the message).
        delivery = self._delivery
        own_union = union.get(delivery.config.config_id, {})
        for seq in sorted(own_union):
            if seq <= delivery.delivered:
                continue
            delivery.delivered = seq
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
        # 3. Install the new configuration and thaw.
        delivery = self._enter(config)
        self._freeze = None
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
        delivery.soon = True
        self.world.sim.schedule(0, self._try_deliver, delivery)
        for message in phase.queue:
            self.submit(message)


def arrive(daemons, smsg: SequencedMessage) -> None:
    """One frame lands at one or more daemons at the same instant: a
    sequenced frame's fan-out, an origin's retry of a frame lost to a
    link fault, or a NACK-served retransmit.

    Each daemon stores the frame, in order, and one zero-delay event
    behind them all runs the arrival scans they need.  It is exact for
    the reason :func:`_fan_out` is: the per-daemon arrivals it replaces
    were consecutive events at one instant, and so were the scans they
    queued.
    """
    scan = [(d, d._delivery) for d in daemons if d._accept_frame(smsg)]
    if scan:
        scan[0][0].world.sim.schedule(0, _scan, scan)


def _scan(scans) -> None:
    """The arrival scans :func:`arrive` queued, in arrival order, each
    for the delivery record its frame was stored in."""
    for daemon, delivery in scans:
        daemon._try_deliver(delivery)


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
