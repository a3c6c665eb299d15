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

:class:`TreeProtocol` is the merge skeleton the two key-tree protocols,
TGDH and STR, share.
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
from repro.obs import NULL_OBS

#: Signature plus envelope overhead per protocol message, bytes.
MESSAGE_OVERHEAD_BYTES = 192


@dataclass
class ProtocolMessage:
    """One signed key agreement message.

    ``target`` names a single recipient; ``None`` addresses the whole
    group.  ``requires_agreed`` picks the service: Agreed (total order)
    for the multicasts Table 1 counts, GDH's factor-out "unicasts" among
    them (§6.2.2), and plain FIFO for the unicasts (GDH's token chain,
    CKD's channel setup).  ``element_count`` is the number of group
    elements the body carries, set by
    :meth:`KeyAgreementProtocol._message`.
    """

    protocol: str
    epoch: Tuple  # the view_id being keyed for
    step: str
    sender: str
    body: Dict[str, Any]
    target: Optional[str] = None
    requires_agreed: bool = True
    element_count: int = 0
    element_bits: int = 512

    @property
    def size_bytes(self) -> int:
        """Wire size: envelope + signature + the group elements carried."""
        return MESSAGE_OVERHEAD_BYTES + self.element_count * (self.element_bits // 8)


def _count_elements(value: Any) -> int:
    """The group elements in a message body: every ``int`` reachable
    through dict values and list/tuple items.  Dict keys are not
    counted — they are member names or tree positions."""
    if isinstance(value, int):
        return 1
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return 0
    count = 0
    for item in value:
        count += 1 if isinstance(item, int) else _count_elements(item)
    return count


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
        engine: EngineSpec = None,
    ):
        self.member = member
        self.engine = get_engine(engine)
        self.ctx = self.engine.context(group, OperationLedger())
        self.rng = rng.fork(f"{self.name}:{member}")
        #: the :class:`repro.obs.Observability` recorder.  The hosting
        #: layer attaches its own; when enabled, the protocol meters every
        #: message it emits (one counter tick per round/broadcast per
        #: member).  The protocol math itself never reads it.
        self.obs = NULL_OBS
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
        target: Optional[str] = None,
        requires_agreed: bool = True,
    ) -> ProtocolMessage:
        """The one place a message's shape is decided: its size is the
        elements counted in ``body``, its service ``requires_agreed``."""
        message = ProtocolMessage(
            protocol=self.name,
            epoch=self.view.view_id,
            step=step,
            sender=self.member,
            body=body,
            target=target,
            requires_agreed=requires_agreed,
            element_count=_count_elements(body),
            element_bits=self.group.p_bits,
        )
        if self.obs.enabled:
            self.obs.counter(
                "protocol.messages",
                protocol=self.name, member=self.member, step=step,
                broadcast=requires_agreed,
            ).inc()
            self.obs.counter(
                "protocol.bytes", protocol=self.name, member=self.member
            ).inc(message.size_bytes)
        return message


class KeyConfirmationError(Exception):
    """A published blinded key does not match the locally computed key."""


class TreeProtocol(KeyAgreementProtocol):
    """The merge skeleton of the key-tree protocols (paper §4.3-4.4).

    STR's stack is the fully imbalanced case of TGDH's key tree, and both
    merge the same way (Figures 4 and 8): the topmost member of each
    component broadcasts it (round 1), and every member folds the
    components once they cover the view.  This class owns that skeleton:
    the singleton bootstrap, the additive path (join and merge, and a
    subtractive view a cascade sent into the merge), the subtractive path,
    :meth:`restart` from singletons, component collection, the fold guard
    and the step dispatch.  A subclass keeps only its key structure, behind
    the abstract hooks at the end of this class.

    ``key_confirmation=True`` enables the behaviour §5 describes in the
    original Cliques implementation: every member re-computes each blinded
    key the sponsor published and checks it against its own keys ("a form
    of key confirmation").  It costs one extra exponentiation per tree
    level (STR: per position) per member; the paper's measurements (and
    our default) use the optimized variant without it.
    """

    #: the component broadcast of a merge and the blinded-key update
    TREE_STEP = BKEYS_STEP = "?"

    def __init__(self, member, group, rng, engine=None, key_confirmation=False):
        super().__init__(member, group, rng, engine=engine)
        self.key_confirmation = key_confirmation
        self._session: Optional[int] = None
        self._collected: Dict[Tuple[str, ...], Dict[str, Any]] = {}
        self._covered: set = set()
        self._merging = False

    def start(self, view: View) -> List[ProtocolMessage]:
        self._begin_epoch(view)
        self._collected = {}
        self._covered = set()
        self._merging = False
        if len(view.members) == 1:
            self._reset_singleton()
            self._complete(self._session)
            return []
        if classify_event(view) in (ViewEvent.JOIN, ViewEvent.MERGE):
            return self._start_additive(view)
        members_set = set(view.members)
        if not members_set <= set(self._roster()):
            # A cascaded event interrupted a merge: our component does not
            # cover the new membership.  Recover by re-merging the
            # components (each member's state is consistent within its
            # component, so the merge machinery reassembles the group).
            return self._start_additive(view)
        return self._start_subtractive(
            [m for m in self._roster() if m not in members_set]
        )

    def restart(self, view: View) -> List[ProtocolMessage]:
        # An aborted run can leave components half-merged, and
        # *differently* so at different members (and a re-run of the
        # additive path could read blinded keys that were trimmed away).
        # Re-form from singletons: every member sponsors its own
        # one-member component and the merge rebuilds the group
        # deterministically.
        self.key_epoch = None
        self._reset_singleton()
        return self.start(view)

    # -- additive: join and merge ----------------------------------------

    def _start_additive(self, view: View) -> List[ProtocolMessage]:
        self._merging = True
        members_set = set(view.members)
        joined_set = set(view.joined)
        if self.member in joined_set:
            # Merging side.  Keep our component only if it is *live* — all
            # its members merge alongside us (roster ⊆ joined).  A stale
            # component from a previous tenure is discarded.
            roster = self._roster()
            if self.member not in roster or not set(roster) <= joined_set:
                self._reset_singleton()
            stale = [m for m in self._roster() if m not in members_set]
        else:
            # Base side: the component must cover exactly the non-joined
            # members.
            stale = [
                m
                for m in self._roster()
                if m != self.member and (m not in members_set or m in joined_set)
            ]
        if stale:
            self._apply_removal(stale)
        if self._roster()[-1] != self.member:
            return []
        # Component sponsor: refresh and broadcast the component (round 1).
        message = self._component()
        if message is None:
            return []
        self._register(message.body)
        return [message, *self._maybe_fold()]

    def _register(self, component: Dict[str, Any]) -> None:
        members = self._members_of(component)
        self._covered.update(members)
        self._collected[tuple(sorted(members))] = component

    def _maybe_fold(self) -> List[ProtocolMessage]:
        # Cheap-first coverage test: the length compare is O(1) per
        # message; the full set equality runs only once, when the counts
        # finally line up.
        if len(self._covered) != len(self.view.members) or self._covered != set(
            self.view.members
        ):
            return []
        # The collected components must partition the membership.  A
        # cascade can leave them *overlapping* (a member's stale singleton
        # alongside a full component that also contains it); folding that
        # would place a member twice.  Every member sees the same Agreed
        # broadcasts, so all of them detect the overlap and stall
        # identically — the epoch watchdog then drives a coordinated
        # restart from singletons, which always partitions cleanly.
        if sum(len(members) for members in self._collected) != len(
            self.view.members
        ):
            return []
        # Deterministic fold: largest component first, ties by member names.
        components = [
            component
            for _, component in sorted(
                self._collected.items(), key=lambda kv: (-len(kv[0]), kv[0])
            )
        ]
        # Dead until the next start(): nothing reads them once folded.
        self._collected = {}
        self._covered = set()
        self._merging = False
        return self._fold(components)

    # -- message handling ---------------------------------------------------

    def receive(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        if self._stale(message):
            return []
        if message.step == self.TREE_STEP:
            if not self._merging:
                return []
            self._register(message.body)
            return self._maybe_fold()
        if message.step == self.BKEYS_STEP:
            # Agreed order delivers every component of an epoch before any
            # of its blinded keys, so an update that finds us still merging
            # follows a fold the guard refused: this attempt cannot finish.
            return [] if self._merging else self._on_bkeys(message)
        raise ValueError(f"unknown {self.name} step {message.step!r}")

    # -- the key structure ----------------------------------------------------

    @abstractmethod
    def _roster(self) -> List[str]:
        """Our component's members, bottom (left) to top (right)."""

    @abstractmethod
    def _reset_singleton(self) -> None:
        """Draw a fresh session random; become a one-member component."""

    @abstractmethod
    def _apply_removal(self, doomed: List[str]):
        """Remove ``doomed`` from our component."""

    @abstractmethod
    def _component(self) -> Optional[ProtocolMessage]:
        """As the component's sponsor, refresh and return its broadcast."""

    @abstractmethod
    def _members_of(self, component: Dict[str, Any]) -> List[str]:
        """The members a component broadcast's body carries."""

    @abstractmethod
    def _fold(self, components: List[Dict[str, Any]]) -> List[ProtocolMessage]:
        """Merge the components (largest first) and advance the keys."""

    @abstractmethod
    def _start_subtractive(self, doomed: List[str]) -> List[ProtocolMessage]:
        """Remove ``doomed`` (a leave or partition); start the sponsors'
        round."""

    @abstractmethod
    def _on_bkeys(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        """Apply a blinded-key update of the current epoch."""
