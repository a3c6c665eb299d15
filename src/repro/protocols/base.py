"""Common machinery for the key agreement protocols.

A protocol instance belongs to one member of one group and lives across
membership events, carrying long-term state (GDH's cached partial-key list,
CKD's pairwise channels, the TGDH/STR trees).  The hosting layer (the
loopback harness for tests, Secure Spread for simulations) feeds it:

* :meth:`KeyAgreementProtocol.start` with each new membership
  :class:`~repro.gcs.messages.View`, and
* :meth:`KeyAgreementProtocol.receive` with every protocol message of the
  current epoch, in agreed order;

and collects the messages each call returns.  When
:attr:`KeyAgreementProtocol.key_epoch` equals the current view id, the
member holds the fresh group key in :attr:`KeyAgreementProtocol.key`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.engine import EngineSpec, get_engine
from repro.crypto.groups import SchnorrGroup
from repro.crypto.ledger import OperationLedger
from repro.crypto.rng import DeterministicRandom
from repro.gcs.messages import View, ViewEvent

#: Signature plus envelope overhead per protocol message, bytes.
MESSAGE_OVERHEAD_BYTES = 192


@dataclass
class ProtocolMessage:
    """One signed key agreement message.

    ``broadcast`` messages go to the whole group; targeted messages name a
    single recipient.  ``requires_agreed`` distinguishes messages that must
    be totally ordered (broadcasts, and GDH's factor-out "unicasts" — see
    §6.2.2) from plain FIFO unicasts (GDH's token chain, CKD's channel
    setup).
    """

    protocol: str
    epoch: Tuple  # the view_id being keyed for
    step: str
    sender: str
    body: Dict[str, Any]
    broadcast: bool = True
    target: Optional[str] = None
    requires_agreed: bool = True
    element_count: int = 0
    element_bits: int = 512

    @property
    def size_bytes(self) -> int:
        """Wire size: envelope + signature + the group elements carried."""
        return MESSAGE_OVERHEAD_BYTES + self.element_count * (self.element_bits // 8)


def classify_event(view: View) -> ViewEvent:
    """Collapse a view's event into the paper's four membership events."""
    if view.event is ViewEvent.INITIAL:
        return ViewEvent.JOIN
    return view.event


class KeyAgreementProtocol(ABC):
    """Base class: identity, crypto context, and the driving interface."""

    #: Protocol name as used in the paper ("GDH", "CKD", "BD", "TGDH", "STR").
    name: str = "?"

    #: Paper-aligned phase label per message step, used by the
    #: critical-path report to say *which part* of the protocol a
    #: blocking CPU batch belonged to.  Subclasses override; steps not
    #: listed (and the host-level ``start``/``restart`` batches) fall
    #: back through :meth:`phase_of`.
    STEP_PHASES: Dict[str, str] = {}

    @classmethod
    def phase_of(cls, step: str) -> str:
        """The protocol phase a message step belongs to."""
        return cls.STEP_PHASES.get(step, "computation")

    def __init__(
        self,
        member: str,
        group: SchnorrGroup,
        rng: DeterministicRandom,
        ledger: Optional[OperationLedger] = None,
        engine: EngineSpec = None,
    ):
        self.member = member
        self.engine = get_engine(engine)
        self.ctx = self.engine.context(group, ledger or OperationLedger())
        self.rng = rng.fork(f"{self.name}:{member}")
        #: optional :class:`repro.obs.Observability` recorder.  The hosting
        #: layer attaches it; the protocol then meters every message it
        #: emits (one counter tick per round/broadcast per member).  The
        #: protocol math itself never reads it.
        self.obs = None
        #: the current shared group key (an element of the group), once agreed
        self.key: Optional[int] = None
        #: the view id the current :attr:`key` belongs to
        self.key_epoch: Optional[Tuple[int, int]] = None
        #: the view currently being (re)keyed
        self.view: Optional[View] = None

    # -- driving interface ------------------------------------------------

    @abstractmethod
    def start(self, view: View) -> List[ProtocolMessage]:
        """Begin (re)keying for a new membership view.

        Called at every member with the identical view, in the same order
        relative to protocol messages (the group communication system
        guarantees this).  Returns the messages this member sends first.
        """

    @abstractmethod
    def receive(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        """Process one protocol message of the current epoch, in agreed order."""

    def restart(self, view: View) -> List[ProtocolMessage]:
        """Abort a stalled run and begin anew for the same view.

        Called (at every member, at the same point in the Agreed total
        order) when the epoch watchdog declares the current rekey
        stalled.  Any key already computed for this view is forgotten —
        members that finished before the stall must converge on the
        restarted run's key, not keep the old one.  The base behaviour
        simply re-runs :meth:`start`; protocols whose long-lived state an
        aborted run can leave inconsistent between members override this
        to re-form from scratch.
        """
        self.key_epoch = None
        return self.start(view)

    def release(self) -> None:
        """Drop what would outlive a closed framework as a reference cycle."""

    # -- shared helpers ---------------------------------------------------

    @property
    def ledger(self) -> OperationLedger:
        """The operation ledger charged for this member's crypto work."""
        return self.ctx.ledger

    @property
    def group(self) -> SchnorrGroup:
        return self.ctx.group

    def done_for(self, view: View) -> bool:
        """True when this member holds the key for ``view``."""
        return self.key is not None and self.key_epoch == view.view_id

    def _begin_epoch(self, view: View) -> None:
        """Reset per-epoch bookkeeping; key becomes stale until recomputed."""
        self.view = view
        if self.key_epoch != view.view_id:
            self.key_epoch = None

    def _complete(self, key: int) -> None:
        """Record the agreed key for the current view."""
        self.key = key
        self.key_epoch = self.view.view_id

    def _stale(self, message: ProtocolMessage) -> bool:
        """True for messages from an epoch other than the current one."""
        return self.view is None or message.epoch != self.view.view_id

    def _message(
        self,
        step: str,
        body: Dict[str, Any],
        broadcast: bool = True,
        target: Optional[str] = None,
        requires_agreed: bool = True,
        element_count: int = 0,
    ) -> ProtocolMessage:
        message = ProtocolMessage(
            protocol=self.name,
            epoch=self.view.view_id,
            step=step,
            sender=self.member,
            body=body,
            broadcast=broadcast,
            target=target,
            requires_agreed=requires_agreed,
            element_count=element_count,
            element_bits=self.group.p_bits,
        )
        if self.obs is not None and self.obs.enabled:
            self.obs.counter(
                "protocol.messages",
                protocol=self.name, member=self.member, step=step,
                broadcast=broadcast,
            ).inc()
            self.obs.counter(
                "protocol.bytes", protocol=self.name, member=self.member
            ).inc(message.size_bytes)
        return message
