"""Daemon-side group membership state, mirroring the simulator's semantics.

The live daemon keeps the same membership semantics as
:class:`repro.gcs.daemon.Daemon`: views list members in join-age order
(oldest first) exactly as the simulated substrate and the paper's
protocols (CKD's oldest-member controller, GDH's newest-member token
target) require.  The simulator orders by each member's *birth* stamp,
``(config_id, seq)`` of its join message; here births come from one
increasing counter, so a group's dict insertion order already *is*
join-age order — nothing is stamped and nothing is ever sorted.

A single daemon is one configuration, so ``config_id`` is fixed at
``(1, 0)`` and every membership event consumes one global sequence
number; ``view_id = (config_id, seq)`` is then totally ordered and
directly comparable with the simulator's view ids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.gcs.messages import View, ViewEvent


class MembershipTable:
    """All groups' membership as the daemon's single configuration sees it."""

    def __init__(self, config_id: Tuple[int, int] = (1, 0)) -> None:
        self.config_id = config_id
        self._seq = 0
        # group -> its members in join order (a dict as an ordered set)
        self._groups: Dict[str, Dict[str, None]] = {}

    # -- queries -----------------------------------------------------------

    def members(self, group: str) -> Tuple[str, ...]:
        """Members of ``group`` ordered by join age (oldest first)."""
        return tuple(self._groups.get(group, ()))

    def next_seq(self) -> int:
        """Consume one slot of the daemon's global total order."""
        self._seq += 1
        return self._seq

    # -- membership events -------------------------------------------------

    def join(self, group: str, member: str) -> Optional[View]:
        """Apply a join; returns the new view, or None for a duplicate."""
        records = self._groups.setdefault(group, {})
        if member in records:
            return None  # duplicate join, ignore (same as the simulator)
        seq = self.next_seq()
        records[member] = None
        return View(
            view_id=(self.config_id, seq),
            group=group,
            members=self.members(group),
            event=ViewEvent.JOIN,
            joined=(member,),
            left=(),
        )

    def leave(self, group: str, member: str) -> Optional[View]:
        """Apply a leave; returns the new view, or None if not a member."""
        records = self._groups.get(group, {})
        if member not in records:
            return None
        del records[member]
        seq = self.next_seq()
        return View(
            view_id=(self.config_id, seq),
            group=group,
            members=self.members(group),
            event=ViewEvent.LEAVE,
            joined=(),
            left=(member,),
        )

    def disconnect(self, member: str) -> List[View]:
        """A member vanished (BYE, socket EOF or heartbeat expiry):
        it implicitly leaves every group it was in."""
        views = []
        for group in list(self._groups):
            view = self.leave(group, member)
            if view is not None:
                views.append(view)
        return views
