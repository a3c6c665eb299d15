"""A Secure Spread group member: rekeying plus secure data exchange.

:class:`SecureGroupMember` glues one key agreement protocol instance to one
Spread client (§3.3):

* every membership view triggers a fresh key agreement run for that view
  (a view arriving mid-agreement aborts and restarts it — the simple
  robustness discipline of the paper's refs [1,2]);
* protocol messages are signed by the sender and verified by every
  receiver, with the CPU cost of all cryptographic work charged to the
  member's machine through the cost model — under contention when several
  members share a machine, which is where the paper's BD-doubling effect
  comes from;
* application data sent while a rekey is in progress is queued and
  released, encrypted under the new group key, once the epoch completes;
* an optional **epoch watchdog** (``stall_timeout_ms`` on the framework)
  detects a rekey that stopped making progress — e.g. a unicast protocol
  message lost to a link fault — and restarts key agreement on the
  current view.  Restarts are coordinated through an Agreed-ordered
  ``rekey-restart`` marker so every member abandons the stalled run at
  the same point in the total order, and every protocol message carries
  its attempt number so stragglers of an aborted run are discarded.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.encryption import GroupCipher, IntegrityError, SealedMessage
from repro.crypto.rsa import (
    RsaKeyPair,
    RsaSigner,
    RsaVerifier,
    cached_rsa_keypair,
)
from repro.obs.metrics import record_op_counts
from repro.gcs.messages import GroupMessage, Service, View
from repro.protocols.base import KeyAgreementProtocol, ProtocolMessage
from repro.transport.base import GroupChannel

#: how many past epochs' ciphers to retain for late-arriving data
_CIPHER_HISTORY = 4


class SecureGroupMember:
    """One application process in one secure group."""

    def __init__(
        self,
        framework,
        name: str,
        machine_index: int,
        group_name: str,
    ):
        self.framework = framework
        self.name = name
        self.group_name = group_name
        #: the member's connection to the substrate — a simulated
        #: SpreadClient or a live asyncio NetClient, same contract
        self.client: GroupChannel = framework.transport.channel(
            name, machine_index
        )
        self.machine_index = machine_index
        self.machine = framework.transport.machine(machine_index)
        #: books a charged step's CPU work (``Machine.submit``'s
        #: signature); :class:`ObservedMember` rebinds it to record spans
        self._submit = self.machine.submit
        self.client.on_view = self._on_view
        self.client.on_message = self._on_message
        protocol_cls = framework.protocol_class(group_name)
        self.protocol: KeyAgreementProtocol = protocol_cls(
            name, framework.group, framework.rng, engine=framework.engine
        )
        self.obs = framework.obs
        self.protocol.obs = framework.obs
        self._view_seen_at: Dict[Tuple[int, int], float] = {}
        self._key_slot = machine_index % 64
        self._cpu_tail = 0.0
        # Hot-path caches: all four are set once on the framework,
        # transport or protocol and never reassigned, and the message
        # handler runs O(n²) times per rekey — the attribute chains show
        # up in profiles.
        self._sim = framework.transport.scheduler
        self._cost_model = framework.cost_model
        self._ledger = self.protocol.ledger
        self._sign_for_real = framework.sign_for_real
        self._verifier = RsaVerifier(self._ledger)
        # Cause of this member's most recent CPU span (None unless an
        # ObservedMember recorded one): the parent for work serialized
        # behind our own CPU tail, and for the transmit/install events
        # that fire when that tail completes.
        self._last_cpu_span: Optional[Tuple[int, int]] = None
        self._ciphers: Dict[Tuple[int, int], GroupCipher] = {}
        self._current_epoch: Optional[Tuple[int, int]] = None
        self._outbound_queue: List[bytes] = []
        #: callbacks for applications
        self.on_secure_view: Optional[Callable[["SecureGroupMember", View, bytes], None]] = None
        self.on_secure_message: Optional[Callable[["SecureGroupMember", str, bytes], None]] = None
        #: the mailbox: delivered plaintexts, kept only while
        #: ``on_secure_message`` is unset (the channels' rule)
        self.inbox: List[Tuple[str, bytes]] = []
        #: the view of the last key this member installed
        self.installed_view: Optional[View] = None
        #: when True, membership views are stashed instead of triggering a
        #: rekey; :meth:`flush_deferred` later runs one key agreement for
        #: the settled membership (the batched-growth fast path — growing
        #: sequentially re-keys after every join, O(n²) event churn).
        self.defer_rekey = False
        self._deferred_view: Optional[View] = None
        # -- rekey stall recovery (see the module docstring) --
        #: restart-attempt generation for the epoch in ``_attempt_epoch``
        self._attempt = 0
        self._attempt_epoch: Optional[Tuple[int, int]] = None
        #: messages of a future attempt, held until its marker arrives
        self._early: List[Tuple[str, ProtocolMessage, object, int]] = []
        self._watchdog_token = 0
        self.stalls_detected = 0
        self.restarts = 0

    # -- signing identity ---------------------------------------------------
    #
    # Resolved on first use: key generation is the largest fixed cost of a
    # fresh process, and with ``sign_for_real=False`` (signatures charged
    # to the ledger, not computed) nothing ever reads the key.

    @cached_property
    def _keypair(self) -> RsaKeyPair:
        """This member's deterministic ``(rsa_bits, slot)`` key pair."""
        return cached_rsa_keypair(self.framework.rsa_bits, self._key_slot)

    @cached_property
    def _signer(self) -> RsaSigner:
        return RsaSigner(self._keypair, self._ledger)

    # -- membership -------------------------------------------------------

    def join(self) -> None:
        """Join the secure group."""
        self.client.join(self.group_name)

    def leave(self) -> None:
        """Leave the secure group."""
        self.client.leave(self.group_name)

    @property
    def key_bytes(self) -> Optional[bytes]:
        """The current epoch's raw key material (None while rekeying)."""
        if not self.is_secure:
            return None
        return self.protocol.key.to_bytes(
            (self.protocol.key.bit_length() + 7) // 8 or 1, "big"
        )

    @property
    def is_secure(self) -> bool:
        """True when the member holds the key for the current view."""
        return (
            self._current_epoch is not None
            and self.protocol.key_epoch == self._current_epoch
        )

    # -- secure data --------------------------------------------------------

    def send_secure(self, plaintext: bytes) -> None:
        """Encrypt under the group key and multicast; queued during rekeys."""
        if not self.is_secure:
            self._outbound_queue.append(plaintext)
            return
        if not self.client.connected:
            return  # our daemon crashed; the message is lost with us
        cipher = self._ciphers[self._current_epoch]
        sealed = cipher.seal(self.name, plaintext)
        self.client.multicast(
            self.group_name,
            ("secure-data", sealed),
            size_bytes=sealed.size_bytes,
        )

    # -- view handling ---------------------------------------------------------

    def _on_view(self, _client: GroupChannel, view: View) -> None:
        if self.name in view.left:
            # Our own departure notification — the only view either
            # transport sends a non-member: we are out of the group, so
            # stop watching for a stalled rekey we are no longer part of.
            self._watchdog_token += 1
            return
        if self.defer_rekey:
            self._deferred_view = view
            return
        self._begin_epoch(view)

    def flush_deferred(self, view: Optional[View] = None) -> None:
        """Run one key agreement for the settled membership after deferral.

        ``view`` is normally the synthetic merge view the batched-growth
        path builds (identical at every member, so all protocol instances
        agree on the epoch); without one, the last stashed view is used.
        Callers must clear :attr:`defer_rekey` first and flush *every*
        member before resuming the simulator, so each protocol instance
        has started the epoch before any of its messages arrive.
        """
        if view is None:
            view = self._deferred_view
        self._deferred_view = None
        if view is not None:
            self._begin_epoch(view)

    def _begin_epoch(self, view: View) -> None:
        self.framework.timeline.record_view(
            view.view_id, self.name, self._sim.now, view.members
        )
        self._view_seen_at.setdefault(view.view_id, self._sim.now)
        self._attempt = 0
        self._attempt_epoch = view.view_id
        self._early = []
        outputs = self._charged("start", self.protocol.start, view)
        self._after_protocol_step(view, outputs)
        self._arm_watchdog(view)

    # -- protocol message handling ----------------------------------------------

    def _on_message(self, _client: GroupChannel, message: GroupMessage) -> None:
        payload = message.payload
        kind = payload[0]
        if kind == "key-agreement":
            self._handle_protocol_message(
                message.sender, payload[1], payload[2], payload[3]
            )
        elif kind == "secure-data":
            self._handle_secure_data(payload[1])
        elif kind == "rekey-restart":
            self._handle_rekey_restart(payload[1], payload[2])
        else:  # pragma: no cover - no other kinds are sent
            raise ValueError(f"unknown secure payload kind {kind!r}")

    def _handle_protocol_message(
        self, sender: str, pmsg: ProtocolMessage, signature, attempt: int = 0
    ) -> None:
        if sender == self.name:
            return  # our own broadcast echoed back; nothing to verify
        if pmsg.epoch == self._attempt_epoch and attempt != self._attempt:
            if attempt > self._attempt:
                # A restarted run we haven't learned about yet (its Agreed
                # marker is still in flight while this FIFO message raced
                # ahead); hold the message until the marker arrives.
                self._early.append((sender, pmsg, signature, attempt))
            # else: a straggler of an aborted attempt — discard.
            return

        outputs = self._charged(
            pmsg.step, self._receive, (sender, pmsg, signature)
        )
        view = self.protocol.view
        if view is not None:
            self._after_protocol_step(view, outputs)

    def _receive(
        self, signed: Tuple[str, ProtocolMessage, object]
    ) -> List[ProtocolMessage]:
        """Verify the sender's signature (always charged; real only with
        ``sign_for_real``), then hand the message to the protocol."""
        sender, pmsg, signature = signed
        if not self._sign_for_real:
            self._ledger.record_verification()
        elif not self._verify(sender, pmsg, signature):
            return []
        return self.protocol.receive(pmsg)

    def _verify(self, sender: str, pmsg: ProtocolMessage, signature) -> bool:
        """Check the sender's RSA signature for real (the verifier charges
        the ledger one verification)."""
        public = self.framework.public_key_of(sender)
        return self._verifier.verify(public, _message_bytes(pmsg), signature)

    def _after_protocol_step(
        self, view: View, outputs: List[ProtocolMessage]
    ) -> None:
        sim = self._sim
        for pmsg in outputs:
            # Signing advances our CPU timeline; the message leaves only
            # once the signature is paid for.  The attempt is captured now:
            # a restart arriving before the CPU frees up must not relabel
            # (and thereby resurrect) a message of the aborted run.
            signature = self._charged(None, self._sign, pmsg)
            tail = self._cpu_tail
            now = sim.now
            event = sim.schedule_at(
                tail if tail > now else now,
                self._transmit,
                pmsg,
                signature,
                self._attempt,
            )
            if self._last_cpu_span is not None:
                # The send fires when the signing batch completes; that
                # span, not the handler that scheduled us, is its cause.
                event.cause = self._last_cpu_span
        if self.protocol.done_for(view):
            tail = self._cpu_tail
            now = sim.now
            event = sim.schedule_at(
                tail if tail > now else now, self._install_epoch, view
            )
            if self._last_cpu_span is not None:
                event.cause = self._last_cpu_span

    def _sign(self, pmsg: ProtocolMessage):
        """Sign an outgoing message (always charged; real only with
        ``sign_for_real``)."""
        if not self._sign_for_real:
            self._ledger.record_signature()
            return None
        return self._signer.sign(_message_bytes(pmsg))

    def _transmit(self, pmsg: ProtocolMessage, signature, attempt: int = 0) -> None:
        if not self.client.connected:
            return  # our daemon crashed while the signature was computing
        self.client.multicast(
            self.group_name,
            ("key-agreement", pmsg, signature, attempt),
            service=Service.AGREED if pmsg.requires_agreed else Service.FIFO,
            size_bytes=pmsg.size_bytes,
            target=pmsg.target,
        )

    def _install_epoch(self, view: View) -> None:
        if self.protocol.key_epoch != view.view_id:
            return  # a newer view superseded this epoch mid-flight
        if view.view_id == self._current_epoch:
            return
        self._watchdog_token += 1  # the epoch completed: disarm the watchdog
        self._current_epoch = view.view_id
        cipher = GroupCipher(self.protocol.key, view.view_id)
        self._ciphers[view.view_id] = cipher
        while len(self._ciphers) > _CIPHER_HISTORY:
            oldest = min(self._ciphers)
            del self._ciphers[oldest]
        # The measurement, taken on every run: when this member held the
        # key, and how long after it first saw the view.  A restarted
        # epoch re-installs and is observed again (``record_key`` keeps
        # only its first instant).
        now = self._sim.now
        seen = self._view_seen_at.get(view.view_id, now)
        elapsed = now - seen
        timeline = self.framework.timeline
        timeline.record_key(view.view_id, self.name, now)
        timeline.rekey_latency(self.group_name, self.protocol.name).observe(elapsed)
        if self.obs.enabled:
            # The flight recorder's record of the same install.
            self.obs.span(
                "epoch", f"rekey {self.protocol.name}", self.name,
                self.machine.name, seen, now,
                epoch=str(view.view_id), members=len(view.members),
                event=view.event.name,
            )
            # The trace's terminal vertex: the critical-path walk starts
            # here and follows parent edges back to the injected event.
            self.obs.caused_instant(
                "epoch", "key-install", self.name, self.machine.name, now,
                epoch=str(view.view_id), member=self.name,
                protocol=self.protocol.name,
            )
        while len(self._view_seen_at) > _CIPHER_HISTORY:
            del self._view_seen_at[min(self._view_seen_at)]
        self.installed_view = view
        if self.on_secure_view is not None:
            self.on_secure_view(self, view, self.key_bytes)
        queued, self._outbound_queue = self._outbound_queue, []
        for plaintext in queued:
            self.send_secure(plaintext)

    def _handle_secure_data(self, sealed: SealedMessage) -> None:
        cipher = self._ciphers.get(sealed.epoch)
        if cipher is None:
            return  # sealed under an epoch we never saw (pre-join traffic)
        try:
            plaintext = cipher.open(sealed)
        except IntegrityError:
            # Sealed under a key of the same epoch id that a stall restart
            # has since replaced; the sender will requeue under the new key.
            return
        if self.on_secure_message is None:
            self.inbox.append((sealed.sender, plaintext))
        else:
            self.on_secure_message(self, sealed.sender, plaintext)

    # -- rekey stall recovery ----------------------------------------------

    def _arm_watchdog(self, view: View) -> None:
        """Start (or restart) the epoch watchdog for ``view``.

        Disabled when the framework's ``stall_timeout_ms`` is None — the
        default, so fault-free runs schedule no extra events and stay
        bit-identical to builds without the watchdog.  The timeout must
        comfortably exceed a healthy rekey for the deployment, or the
        watchdog will declare stalls that are merely slow.
        """
        timeout = self.framework.stall_timeout_ms
        if timeout is None:
            return
        self._watchdog_token += 1
        token = (view.view_id, self._attempt, self._watchdog_token)
        self._sim.schedule(timeout, self._watchdog_fire, token)

    def _watchdog_fire(self, token) -> None:
        view_id, attempt, wd_token = token
        if wd_token != self._watchdog_token:
            return  # epoch installed or superseded since arming
        view = self.protocol.view
        if (
            view is None
            or view.view_id != view_id
            or attempt != self._attempt
            or self._current_epoch == view_id
            or not self.client.connected
        ):
            return
        # The rekey for the current view is still incomplete after a full
        # timeout: declare a stall and propose a coordinated restart.  The
        # marker is an ordinary Agreed message, so every member processes
        # it at the same point in the total order.
        self.stalls_detected += 1
        if self.obs.enabled:
            self.obs.counter("core.rekey_stalls", member=self.name).inc()
            self.obs.instant(
                "epoch", "rekey stall", self.name, self.machine.name,
                self._sim.now, epoch=str(view_id), attempt=attempt,
            )
        self.client.multicast(
            self.group_name,
            ("rekey-restart", view_id, self._attempt + 1),
            size_bytes=64,
        )
        # Re-arm: should even the restarted run stall, the next firing
        # proposes a further attempt.
        self._arm_watchdog(view)

    def _handle_rekey_restart(self, view_id, proposed: int) -> None:
        view = self.protocol.view
        if view is None or view.view_id != view_id:
            return  # a newer view already superseded the stalled run
        if proposed <= self._attempt:
            return  # duplicate marker (several members detected the stall)
        self._attempt = proposed
        self._attempt_epoch = view_id
        self.restarts += 1
        if self.obs.enabled:
            self.obs.counter("core.rekey_restarts", member=self.name).inc()
        # Members that already installed this epoch roll it back so the
        # whole group converges on the restarted run's key.
        if self._current_epoch == view_id:
            self._current_epoch = None
            self._ciphers.pop(view_id, None)
        outputs = self._charged("restart", self.protocol.restart, view)
        self._after_protocol_step(view, outputs)
        self._arm_watchdog(view)
        # Release any messages of this attempt that raced ahead of the
        # marker (FIFO unicasts are not ordered relative to Agreed ones).
        replay = [e for e in self._early if e[3] == self._attempt]
        self._early = [e for e in self._early if e[3] > self._attempt]
        for sender, pmsg, signature, attempt in replay:
            self._handle_protocol_message(sender, pmsg, signature, attempt)

    # -- CPU charging -----------------------------------------------------------

    def _charged(self, step: Optional[str], work: Callable, arg):
        """Run ``work(arg)`` and book its ledger delta as CPU work.

        Every protocol step (``start``, ``restart``, the receive of a
        message of step ``step``) and every signature (``step`` None)
        runs through here.  The results are computed eagerly (the math is
        exact), but the member's CPU timeline advances by the modelled
        cost, and anything the step emits is released only when that
        virtual CPU work completes.  The cost is the ledger's charge
        window, which is ``time_of`` of the step's snapshot delta to the
        bit; a signature alone prices to exactly ``sign_ms``.
        """
        ledger = self._ledger
        ledger.begin_charge()
        result = work(arg)
        cost = ledger.charge_pending(self._cost_model)
        self._cpu_tail = self._submit(self._sim, cost, not_before=self._cpu_tail)
        return result


class ObservedMember(SecureGroupMember):
    """A member under an enabled flight recorder (the framework builds
    one instead of a plain member when observability is on).

    Same charged steps; each CPU booking also becomes a ``crypto`` span
    parented behind the member's previous one, and each step's ledger
    delta is bridged into per-member, per-epoch operation counters.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # Unshadow the span-recording method below: an instance-held
        # bound method would make every observed member a reference cycle.
        del self._submit

    def _charged(self, step: Optional[str], work: Callable, arg):
        self._booking = (step, arg, self._ledger.snapshot())
        return super()._charged(step, work, arg)

    def _submit(self, sim, cost: float, not_before: float) -> float:
        # Runs after the step, so a ``start`` is labelled with its epoch.
        step, pmsg, before = self._booking
        protocol = self.protocol
        if step is None:  # the signature of ``pmsg``
            epoch, step, phase = str(pmsg.epoch), pmsg.step, "sign"
            name = f"sign {pmsg.protocol}.{step}"
        else:
            view = protocol.view
            epoch = str(view.view_id) if view is not None else "?"
            name, phase = f"{protocol.name}.{step}", protocol.phase_of(step)
        record_op_counts(
            self.obs.metrics, self._ledger.delta_since(before),
            member=self.name, epoch=epoch,
        )
        finish = self.machine.submit(
            sim, cost, not_before=not_before, chain=self._last_cpu_span,
            span=(
                "crypto", name, self.name,
                {"epoch": epoch, "step": step, "phase": phase},
            ),
        )
        self._last_cpu_span = self.obs.causality.last_cpu_span
        return finish


def _message_bytes(pmsg: ProtocolMessage) -> bytes:
    """Canonical bytes of a protocol message for signing."""
    return repr(
        (pmsg.protocol, pmsg.epoch, pmsg.step, pmsg.sender, sorted_repr(pmsg.body))
    ).encode()


def sorted_repr(body: dict) -> str:
    """Deterministic representation of a message body."""
    return repr(sorted(body.items(), key=lambda kv: repr(kv[0])))
