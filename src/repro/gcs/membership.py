"""Group membership: the one place a view is derived from a roster.

The simulated daemon, the live daemon (:mod:`repro.net.daemon`) and the
loopback driver (:mod:`repro.protocols.loopback`) keep their rosters in a
:class:`MembershipTable` and derive every view through it.  A roster lists
members in join-age order (oldest first), as CKD's oldest-member
controller and GDH's newest-member token target require: a join appends,
a leave deletes, and a heavyweight change re-places a roster sorted by
``(birth, name)``, so a view's members are just the roster's keys.  Joins
and leaves are lightweight, one view each; a partition or merge view
names the *canonical* newcomers (:func:`reconfiguration_view`).

View ids are ``(config_id, seq)``: the simulated daemon passes its own (it
sequences per configuration), the live daemon and the loopback driver let
the table consume one slot of its sequence per view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.gcs.messages import View, ViewEvent

#: a member's side in a reconfiguration: the component it came from, or
#: None for a fresh member that came from none
Side = Callable[[str], Optional[Hashable]]


@dataclass(frozen=True)
class MemberRecord:
    """One group member.  ``birth`` orders join age: the simulated daemon
    stamps ``(config_id, seq)`` of the join message, replicated at every
    daemon; otherwise the table numbers its joins."""

    name: str
    daemon_id: int
    birth: Any


class MembershipTable:
    """Every group's roster, and the views its changes produce."""

    def __init__(self, config_id: Any = (1, 0)) -> None:
        self.config_id = config_id
        self._seq = 0
        self._born = 0
        #: group -> member name -> record, each roster in join-age order
        self.groups: Dict[str, Dict[str, MemberRecord]] = {}

    def copy(self) -> "MembershipTable":
        clone = MembershipTable(self.config_id)
        clone._seq, clone._born = self._seq, self._born
        clone.groups = {group: dict(roster) for group, roster in self.groups.items()}
        return clone

    def members(self, group: str) -> Tuple[str, ...]:
        """Members of ``group`` ordered by join age (oldest first)."""
        return tuple(self.groups.get(group, ()))

    def next_seq(self) -> int:
        """Consume one slot of the table's total order."""
        self._seq += 1
        return self._seq

    # -- roster changes ----------------------------------------------------

    def add(
        self, group: str, member: str, daemon_id: int = 0, birth: Any = None
    ) -> bool:
        """Append ``member`` as the newest; False if it already belongs."""
        roster = self.groups.setdefault(group, {})
        if member in roster:
            return False
        if birth is None:
            self._born += 1
            birth = self._born
        roster[member] = MemberRecord(member, daemon_id, birth)
        return True

    def remove(self, group: str, member: str) -> bool:
        """Drop ``member``; False if it does not belong."""
        return self.groups.get(group, {}).pop(member, None) is not None

    def place(self, group: str, records: Iterable[MemberRecord]) -> None:
        """Make ``records`` the whole roster (a heavyweight change)."""
        ordered = sorted(records, key=lambda record: (record.birth, record.name))
        self.groups[group] = {record.name: record for record in ordered}

    # -- views -------------------------------------------------------------

    def view(self, group, event, joined=(), left=(), view_id=None) -> View:
        """``group``'s roster as a view; one sequence slot if no id given."""
        if view_id is None:
            view_id = (self.config_id, self.next_seq())
        return View(view_id, group, self.members(group), event, joined, left)

    def join(self, group: str, member: str) -> Optional[View]:
        """Apply a join; returns the new view, or None for a duplicate."""
        if self.add(group, member):
            return self.view(group, ViewEvent.JOIN, joined=(member,))
        return None

    def leave(self, group: str, member: str) -> Optional[View]:
        """Apply a leave; returns the new view, or None if not a member."""
        if self.remove(group, member):
            return self.view(group, ViewEvent.LEAVE, left=(member,))
        return None

    def disconnect(self, member: str) -> List[View]:
        """A member vanished (BYE, socket EOF or heartbeat expiry):
        it implicitly leaves every group it was in."""
        views = [self.leave(group, member) for group in list(self.groups)]
        return [view for view in views if view is not None]

    def reconfigured(
        self, group: str, old: Tuple[str, ...], side: Side = None, view_id=None
    ) -> Optional[View]:
        """The view taking ``group`` from roster ``old`` to its current
        one, or None if nothing changed (see :func:`reconfiguration_view`)."""
        new = self.members(group)
        if old == new:
            return None
        if view_id is None:
            view_id = (self.config_id, self.next_seq())
        return reconfiguration_view(group, view_id, old, new, side)


def reconfiguration_view(
    group: str, view_id: Tuple, old: Tuple[str, ...], new: Tuple[str, ...], side: Side
) -> View:
    """The partition or merge view from roster ``old`` to roster ``new``.

    When anyone arrived, the newcomers are the members outside the oldest
    member's ``side`` — everyone, if the oldest is fresh too: the set every
    key agreement protocol treats as "the newcomers", identical at every
    member whichever side it was on.
    """
    joined: Tuple[str, ...] = ()
    if any(member not in old for member in new):
        base = side(new[0])
        joined = tuple(m for m in new if base is None or side(m) != base)
    event = ViewEvent.MERGE if joined else ViewEvent.PARTITION
    left = tuple(member for member in old if member not in new)
    return View(view_id, group, new, event, joined, left)
