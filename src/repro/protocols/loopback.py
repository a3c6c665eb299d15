"""In-memory driver for key agreement protocols.

:class:`LoopbackGroup` runs one protocol instance per member over a
synchronous, totally ordered transport — no network, no virtual time —
which is what the correctness tests and the Table 1 operation-counting
benchmarks use.  Messages are delivered in deterministic rounds (all
messages emitted in round *k* are delivered before any emitted in round
*k+1*), so the driver also reports the paper's "communication rounds"
measure directly.

Partitions and merges are first-class: ``partition`` splits off a live
subgroup (whose members keep their protocol state), and ``merge`` folds
another subgroup back in with the canonical "new members" convention (the
subgroup of the oldest member is the base; everyone else re-keys as a
newcomer), matching what the Secure Spread layer derives from the group
communication system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from repro.crypto.engine import EngineSpec, get_engine
from repro.crypto.groups import GROUP_TEST, SchnorrGroup
from repro.crypto.ledger import OpCounts
from repro.crypto.rng import DeterministicRandom
from repro.gcs.membership import MembershipTable
from repro.gcs.messages import View, ViewEvent
from repro.protocols.base import KeyAgreementProtocol, ProtocolMessage


@dataclass
class RunStats:
    """What one membership event cost, as the loopback driver measured it."""

    event: ViewEvent
    members: Tuple[str, ...]
    rounds: int
    messages: List[ProtocolMessage]
    op_counts: Dict[str, OpCounts]
    key: int

    @property
    def total_messages(self) -> int:
        return len(self.messages)

    @property
    def broadcasts(self) -> int:
        return sum(1 for m in self.messages if m.requires_agreed)

    @property
    def unicasts(self) -> int:
        return sum(1 for m in self.messages if not m.requires_agreed)

    def exponentiations(self, member: Optional[str] = None) -> int:
        """Full exponentiations by one member, or by everyone."""
        if member is not None:
            return self.op_counts[member].exp_count()
        return sum(counts.exp_count() for counts in self.op_counts.values())

    def max_exponentiations(self) -> int:
        """The busiest member's exponentiation count."""
        return max(counts.exp_count() for counts in self.op_counts.values())


class LoopbackGroup:
    """A group of protocol instances driven over an in-memory transport.

    Membership lives in a :class:`~repro.gcs.membership.MembershipTable`,
    one group per side: the sides of a partition share the table, so join
    ages and view ids stay comparable when they merge again.
    """

    def __init__(
        self,
        protocol_cls: Type[KeyAgreementProtocol],
        group: SchnorrGroup = GROUP_TEST,
        seed: int = 0,
        engine: EngineSpec = None,
    ):
        self.protocol_cls = protocol_cls
        self.group = group
        self.seed = seed
        self.engine = get_engine(engine)
        self.protocols: Dict[str, KeyAgreementProtocol] = {}
        self.departed: Dict[str, KeyAgreementProtocol] = {}
        self._table = MembershipTable(config_id=1)
        self._name = "loopback"
        self.last_stats: Optional[RunStats] = None

    # -- membership operations ---------------------------------------------

    def members(self) -> Tuple[str, ...]:
        """Current members ordered by join age (oldest first)."""
        return self._table.members(self._name)

    def join(self, name: str) -> RunStats:
        """One member joins (the paper's join event)."""
        self._check([name], present=False)
        rng = DeterministicRandom(self.seed)
        self.protocols[name] = self.departed.pop(
            name, None
        ) or self.protocol_cls(name, self.group, rng, engine=self.engine)
        return self._drive(self._table.join(self._name, name))

    def leave(self, name: str) -> RunStats:
        """One member leaves (the paper's leave event)."""
        self._check([name], present=True)
        self.departed[name] = self.protocols.pop(name)
        return self._drive(self._table.leave(self._name, name))

    def partition(self, minority: List[str]) -> "LoopbackGroup":
        """Split ``minority`` off into its own live subgroup.

        Both sides re-key independently; the returned subgroup can later be
        folded back with :meth:`merge`.
        """
        self._check(minority, present=True)
        if len(minority) >= len(self.protocols):
            raise ValueError("partition must leave a surviving majority side")
        other = LoopbackGroup(
            self.protocol_cls, self.group, self.seed, engine=self.engine
        )
        other._table, other._name = self._table, f"{self._name}/{minority[0]}"
        for name in minority:
            other.protocols[name] = self.protocols.pop(name)
        old = self.members()
        records = self._table.groups[self._name].values()
        for side in (self, other):
            self._table.place(
                side._name, (r for r in records if r.name in side.protocols)
            )
        self._drive(self._table.reconfigured(self._name, old))
        other._drive(self._table.reconfigured(other._name, old))
        return other

    def merge(self, other: "LoopbackGroup") -> RunStats:
        """Fold another subgroup back in (the paper's merge event).

        ``joined`` is canonical: the subgroup holding the oldest member
        overall is the base; all other members re-key as newcomers.
        """
        if other.protocol_cls is not self.protocol_cls:
            raise ValueError("cannot merge groups running different protocols")
        if other._table is not self._table or not other.protocols:
            raise ValueError("can only merge a side partitioned off this group")
        old = self.members()
        groups = self._table.groups
        merged = [*groups[self._name].values(), *groups.pop(other._name).values()]
        self._table.place(self._name, merged)
        view = self._table.reconfigured(self._name, old, self.protocols.__contains__)
        self.protocols.update(other.protocols)
        other.protocols = {}
        return self._drive(view)

    def mass_join(self, names: List[str]) -> RunStats:
        """Several fresh members join at once (merge of newcomers)."""
        self._check(names, present=False)
        rng = DeterministicRandom(self.seed)
        for name in names:
            self.protocols[name] = self.protocol_cls(
                name, self.group, rng, engine=self.engine
            )
        if len(names) == 1:
            return self._drive(self._table.join(self._name, names[0]))
        old = self.members()
        for name in names:
            self._table.add(self._name, name)
        side = dict.fromkeys(old, "old").get  # the joiners have no side
        return self._drive(self._table.reconfigured(self._name, old, side))

    def mass_leave(self, names: List[str]) -> RunStats:
        """Several members leave at once (the paper's partition event)."""
        self._check(names, present=True)
        old = self.members()
        for name in names:
            self.departed[name] = self.protocols.pop(name)
            self._table.remove(self._name, name)
        return self._drive(self._table.reconfigured(self._name, old))

    # -- key accessors --------------------------------------------------------

    def shared_key(self) -> int:
        """The group key, asserting every member agrees on it."""
        keys = {proto.key for proto in self.protocols.values()}
        if len(keys) != 1:
            raise AssertionError(f"members disagree on the key: {len(keys)} values")
        return keys.pop()

    # -- internals -----------------------------------------------------------

    def _check(self, names: List[str], present: bool) -> None:
        """Reject a batch before anything moves: an empty one, a repeated
        name, or a name that is (``present=False``) or is not (``True``) a
        member."""
        if not names or len(set(names)) != len(names):
            raise ValueError(f"need distinct names, got {names}")
        wrong = [name for name in names if (name in self.protocols) != present]
        if wrong:
            raise ValueError(f"{'not' if present else 'already'} members: {wrong}")

    def _drive(self, view: View) -> RunStats:
        before = {
            name: proto.ledger.snapshot() for name, proto in self.protocols.items()
        }
        outbox: List[ProtocolMessage] = []
        for name in view.members:
            outbox.extend(self.protocols[name].start(view))
        rounds = 0
        log: List[ProtocolMessage] = []
        while outbox:
            rounds += 1
            log.extend(outbox)
            next_outbox: List[ProtocolMessage] = []
            for message in outbox:
                for name in view.members:
                    if name == message.sender:
                        continue
                    if message.target is not None and message.target != name:
                        continue
                    next_outbox.extend(self.protocols[name].receive(message))
            outbox = next_outbox
            if rounds > 10 * (len(view.members) + 2):
                raise RuntimeError(f"{self.protocol_cls.name} did not converge")
        for name in view.members:
            proto = self.protocols[name]
            if not proto.done_for(view):
                raise AssertionError(f"{name} did not finish keying for {view}")
        stats = RunStats(
            event=view.event,
            members=view.members,
            rounds=rounds,
            messages=log,
            op_counts={
                name: self.protocols[name].ledger.delta_since(before[name])
                for name in view.members
            },
            key=self.shared_key(),
        )
        self.last_stats = stats
        return stats


def build_group(
    protocol_cls: Type[KeyAgreementProtocol],
    size: int,
    group: SchnorrGroup = GROUP_TEST,
    seed: int = 0,
    prefix: str = "m",
    engine: EngineSpec = None,
) -> LoopbackGroup:
    """A convenience: form a group of ``size`` members by sequential joins."""
    loop = LoopbackGroup(protocol_cls, group, seed, engine=engine)
    for index in range(size):
        loop.join(f"{prefix}{index}")
    return loop
