"""One way to drive a secure group: grow, measured join, measured leave.

The paper has exactly one experimental procedure (§6.1): members uniform
over the machines, sequential growth, then the *total elapsed time* of
one join or one leave on a settled group, with the §6.1.2 conventions —
the middle member leaves, and CKD's leave is weighted with the
controller-leave case at probability 1/n.  :class:`GroupDriver` is the
only place that procedure is written; every bench command (``bench
live``'s TCP half included) and the workload engine call it.

The primitives are generators that yield at each *wait point*: ``None``
means "let the group settle", a member means "open this new member's
channel before it joins".  :meth:`GroupDriver.run` drives them on a
virtual-time transport (``CAP_VIRTUAL_TIME``: drain the simulator at each
settle point); :meth:`GroupDriver.arun` awaits them on a wall-clock
transport (connect, then poll until the roster is keyed).  A scenario is
therefore written once and runs identically on both — see
:meth:`GroupDriver.join_leave_scenario`, the body of ``bench live``.

Placement and naming conventions (pinned by ``tests/test_group_driver.py``
— they feed ``DeterministicRandom`` and the RSA key slot):

* grown member ``i`` is ``{prefix}{i}`` on machine ``(offset + i) % M``;
* the ``k``-th measured joiner is ``x{k}`` on machine ``(n + k) % M``
  unless the caller names a machine (chaos and ``bench live`` use the
  next slot in rotation, ``n % M``);
* the leave victim is roster slot ``n // 2``; it is re-admitted as
  ``{name}'`` on its old machine and takes its old slot — except a
  departed controller (slot 0), whose replacement is the youngest member
  and goes last.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, NamedTuple, Optional

from repro.core.framework import SecureSpreadFramework
from repro.core.timing import EpochRecord
from repro.crypto.ledger import OpCounts
from repro.gcs.membership import reconfiguration_view
from repro.sim.engine import LivelockError
from repro.transport.base import CAP_VIRTUAL_TIME

#: event budget for large-n runs (the simulator default is sized for the
#: paper's n ≤ 50 sweeps; a 1000-member rekey legitimately needs millions
#: of deliveries).
LARGE_RUN_MAX_EVENTS = 50_000_000

#: how often a wall-clock settle re-checks the roster
_POLL_INTERVAL_S = 0.005


class Sample(NamedTuple):
    """One measured event: the paper's total and membership-service times."""

    total_ms: float
    membership_ms: float

    def blend(self, other: "Sample", weight: float) -> "Sample":
        """``(1 - weight) * self + weight * other``, field by field."""
        mixed = (
            (1 - weight) * mine + weight * theirs for mine, theirs in zip(self, other)
        )
        return Sample(*mixed)


def epoch_stats(record: EpochRecord) -> Dict:
    """One epoch as the ``BENCH_live.json`` join/leave entry."""
    return {
        "total_ms": record.total_elapsed(),
        "membership_ms": record.membership_elapsed(),
        "key_agreement_ms": record.key_agreement_elapsed(),
        "members": len(record.members),
    }


class GroupDriver:
    """A framework plus the live roster of one of its groups.

    With a ``metrics`` registry the settle is *guarded*: a tripped event
    budget (:class:`~repro.sim.engine.LivelockError`) is counted as
    ``bench.cell.livelock{kind,protocol}`` and reported (``settle()``
    returns False) instead of raised, so a fault sweep keeps going and
    says how often it happened.  Any other error propagates.
    """

    def __init__(
        self,
        framework: SecureSpreadFramework,
        group_name: str = "secure-group",
        prefix: str = "m",
        offset: int = 0,
        max_events: int = 2_000_000,
        timeout_s: float = 60.0,
        metrics=None,
        kind: str = "cell",
    ):
        self.framework = framework
        self.group_name = group_name
        self.prefix = prefix
        self.offset = offset
        self.max_events = max_events
        self.timeout_s = timeout_s
        self.metrics = metrics
        self.kind = kind
        #: current members in roster order (see the module docstring)
        self.members: List = []
        self.machines = framework.transport.machine_count()
        #: settle by draining the simulator (True) or by awaited polling
        self.virtual = CAP_VIRTUAL_TIME in framework.transport.capabilities
        self._joiners = 0
        self._undo = None

    @property
    def protocol(self) -> str:
        return self.framework.protocol_name(self.group_name)

    # -- waiting ------------------------------------------------------------

    def settle(self) -> bool:
        """Drain the virtual-time transport within the event budget."""
        try:
            self.framework.run_until_idle(max_events=self.max_events)
        except LivelockError:
            if self.metrics is None:
                raise
            self.metrics.counter(
                "bench.cell.livelock", kind=self.kind, protocol=self.protocol
            ).inc()
            return False
        return True

    def run(self, steps):
        """Drive a generator of wait points to completion on virtual time
        and return its value."""
        if not self.virtual:
            raise RuntimeError(
                f"the {self.framework.transport.kind!r} transport has no "
                "virtual clock to drain; await driver.arun(steps) instead"
            )
        try:
            while True:
                if next(steps) is None:
                    self.settle()
        except StopIteration as stop:
            return stop.value

    async def arun(self, steps):
        """:meth:`run` on a wall-clock transport: connect each new
        member's channel, poll at each settle point until the roster is
        keyed, then say goodbye on the channels of members that left."""
        try:
            while True:
                point = next(steps)
                if point is not None:
                    await point.client.connect()
                    continue
                await self._poll_settled()
                for member in self.framework.members_of(self.group_name):
                    if member.client.connected and member not in self.members:
                        member.client.disconnect()
        except StopIteration as stop:
            return stop.value

    async def _poll_settled(self) -> None:
        names = {member.name for member in self.members}

        def keyed(member) -> bool:
            view = member.protocol.view
            return member.is_secure and set(view.members) == names

        clock = asyncio.get_running_loop().time
        deadline = clock() + self.timeout_s
        while not (
            self.converged_key() is not None and all(map(keyed, self.members))
        ):
            if clock() > deadline:
                laggards = sorted(m.name for m in self.members if not keyed(m))
                raise TimeoutError(
                    f"group did not settle on {sorted(names)} within "
                    f"{self.timeout_s:g}s; waiting on {laggards}"
                )
            await asyncio.sleep(_POLL_INTERVAL_S)

    def converged_key(self) -> Optional[tuple]:
        """The ``(view_id, key)`` the whole roster agrees on, or None.

        Convergence means: every member's protocol has settled on the
        *same* membership view, holds a key for exactly that view, and
        all the keys are equal — the confirmed shared key.
        """
        views = {
            m.protocol.view.view_id if m.protocol.view else None
            for m in self.members
        }
        if len(views) != 1 or None in views:
            return None
        if any(not m.protocol.done_for(m.protocol.view) for m in self.members):
            return None
        keys = {m.protocol.key for m in self.members}
        if len(keys) != 1:
            return None
        return (views.pop(), keys.pop())

    # -- growth -------------------------------------------------------------

    def _spawn(self, index: int):
        return self.framework.member(
            f"{self.prefix}{index}",
            (self.offset + index) % self.machines,
            self.group_name,
        )

    def grow(self, size: int):
        """Grow to ``size`` members by sequential (settled) joins."""
        for index in range(len(self.members), size):
            member = self._spawn(index)
            yield member
            member.join()
            self.members.append(member)
            yield None

    def grow_batched(self, size: int) -> None:
        """Grow to ``size`` members with a *single* rekey (virtual time).

        :meth:`grow` re-runs a full key agreement after every join —
        O(n²) event churn that dominates large-n setup.  Here every
        member defers rekeying while all joins flow through the
        membership service, then one synthetic merge view (the shared
        reconfiguration rule, with the settled base as the only side, so
        the joiners are the newcomers) drives a single agreement over the
        final membership.  The resulting membership view is
        asserted identical to what sequential growth settles on.
        """
        base_names = {member.name for member in self.members}
        joiners = [self._spawn(i) for i in range(len(self.members), size)]
        if not joiners:
            return
        everyone = self.members + joiners
        for member in everyone:
            member.defer_rekey = True
        for member in joiners:
            member.join()
        self.settle()
        final = max(
            (m._deferred_view for m in everyone if m._deferred_view is not None),
            key=lambda view: view.view_id,
            default=None,
        )
        expected = base_names | {member.name for member in joiners}
        if final is None or set(final.members) != expected:
            raise AssertionError(
                "batched growth did not settle on the expected membership"
            )
        # One joiner: the final view already is its JOIN.
        rekey_view = final
        if len(joiners) > 1:
            base = tuple(name for name in final.members if name in base_names)
            rekey_view = reconfiguration_view(
                final.group,
                final.view_id,
                base,
                final.members,
                dict.fromkeys(base, "base").get,
            )
        for member in everyone:
            member.defer_rekey = False
            member._deferred_view = None
        for member in everyone:
            member.flush_deferred(rekey_view)
        self.settle()
        for member in everyone:
            view = member.protocol.view
            if view is None or view.members != final.members:
                raise AssertionError(
                    f"{member.name} settled on a different membership view"
                )
            if not member.protocol.done_for(view):
                raise AssertionError(f"{member.name} did not key the grown group")
        self.members += joiners

    # -- measured events ----------------------------------------------------

    def join(self, machine: Optional[int] = None):
        """Inject one measured join; returns its completed epoch record."""
        self._joiners += 1
        if machine is None:
            machine = (len(self.members) + self._joiners) % self.machines
        joiner = self.framework.member(f"x{self._joiners}", machine, self.group_name)
        yield joiner
        self.framework.mark_event()
        joiner.join()
        self.members.append(joiner)
        self._undo = (joiner, None)
        yield None
        return self.framework.timeline.latest_complete()

    def leave(self, slot: Optional[int] = None):
        """Inject one measured leave of roster slot ``slot`` (default: the
        §6.1.2 middle member); returns its completed epoch record.

        The last member cannot leave: an emptied group rekeys nobody, so
        there would be no epoch of its own to report.
        """
        if len(self.members) < 2:
            raise ValueError(
                f"cannot measure a leave from a group of {len(self.members)} "
                "member(s): the last member's leave empties the group"
            )
        if slot is None:
            slot = len(self.members) // 2
        victim = self.members.pop(slot)
        self.framework.mark_event()
        victim.leave()
        self._undo = (victim, slot)
        yield None
        return self.framework.timeline.latest_complete()

    def restore(self):
        """Undo the last measured event, unmeasured: the joiner leaves,
        or the victim's replacement is admitted (module docstring)."""
        member, slot = self._undo
        self._undo = None
        if slot is None:
            self.members.remove(member)
            member.leave()
        else:
            fresh = self.framework.member(
                member.name + "'", member.machine_index, self.group_name
            )
            yield fresh
            fresh.join()
            self.members.insert(slot or len(self.members), fresh)
        yield None

    def sample(self, record: EpochRecord) -> Sample:
        return Sample(record.total_elapsed(), record.membership_elapsed())

    def measured(self, event: str):
        """One sample of ``event`` on the settled group, honoring the
        paper's §6.1.2 conventions.  The group is left one member off its
        size; :meth:`restore` undoes that before another sample."""
        if event == "join":
            sample = self.sample((yield from self.join()))
        else:
            n = len(self.members)
            sample = self.sample((yield from self.leave()))
            if self.protocol == "CKD":
                # Weight in the controller-leave case with probability 1/n:
                # the departing controller forces full channel
                # re-establishment.
                yield from self.restore()
                controller = self.sample((yield from self.leave(0)))
                sample = sample.blend(controller, 1 / n)
        return sample

    def ledger_totals(self) -> OpCounts:
        """Summed operation ledger of every member this group ever had —
        departed members included, so a delta brackets an event exactly."""
        everyone = self.framework.members_of(self.group_name)
        return sum((m.protocol.ledger.snapshot() for m in everyone), OpCounts())

    # -- the bench-live scenario ---------------------------------------------

    def join_leave_scenario(self, size: int):
        """Sequential growth to ``size``, a measured join of ``x1`` on the
        next machine in rotation, an unmeasured restore, then a measured
        leave of the middle member — the one body behind both halves of
        ``BENCH_live.json`` (virtual-time prediction and live TCP run)."""
        yield from self.grow(size)
        join = epoch_stats((yield from self.join(size % self.machines)))
        yield from self.restore()
        leave = epoch_stats((yield from self.leave()))
        rekey = self.framework.timeline.rekey_latency(
            self.group_name, self.protocol
        )
        return {
            "join": join,
            "leave": leave,
            "rekey_ms": {
                "count": rekey.count,
                "mean": rekey.mean,
                "max": rekey.max,
                **rekey.percentiles(),
            },
        }
