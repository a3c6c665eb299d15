"""Measurement of the paper's "total elapsed time" (§6).

The paper measures "from the moment the group membership event happens
until the moment when the group key agreement finished and the application
is notified about the membership change and the new key" — at the *last*
member to finish.  :class:`RekeyTimeline` collects the per-member
notification instants the Secure Spread layer reports and decomposes the
elapsed time into the membership-service part (view delivery) and the key
agreement part, which is exactly how Figures 11, 12 and 14 plot their
"Membership service" baseline against the protocol curves.

The timeline also holds the per-member rekey latency distribution —
view first seen at a member → that member installs the key — as one
exact :class:`~repro.obs.histo.LogHistogram` per (group, protocol),
named ``member.rekey_ms``, in a :class:`~repro.obs.metrics.MetricsRegistry`
of its own (:attr:`RekeyTimeline.metrics`).  Like the epoch records it
is a measurement, taken on every run, and the package's only instrument
of that value; the opt-in flight recorder (:mod:`repro.obs`) adds spans
and counters around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.obs.histo import LogHistogram
from repro.obs.metrics import MetricsRegistry


@dataclass
class EpochRecord:
    """Per-member timings for one key agreement epoch (one view)."""

    epoch: Tuple[int, int]
    event_started_at: Optional[float] = None
    view_delivered: Dict[str, float] = field(default_factory=dict)
    key_ready: Dict[str, float] = field(default_factory=dict)
    members: Tuple[str, ...] = ()

    def membership_elapsed(self) -> float:
        """Event start -> last member's view delivery (the paper's
        "membership service" cost)."""
        self._require_started()
        return max(self.view_delivered.values()) - self.event_started_at

    def total_elapsed(self) -> float:
        """Event start -> last member holds the key and is notified."""
        self._require_started()
        return max(self.key_ready.values()) - self.event_started_at

    def key_agreement_elapsed(self) -> float:
        """The rekey overhead on top of the membership service."""
        return self.total_elapsed() - self.membership_elapsed()

    def complete(self) -> bool:
        """True when every member of the view reported its key."""
        return bool(self.members) and set(self.key_ready) >= set(self.members)

    def _require_started(self) -> None:
        if self.event_started_at is None:
            raise ValueError("event start was never marked")


class RekeyTimeline:
    """Collects epoch records across a simulation run."""

    def __init__(self) -> None:
        self.epochs: Dict[Tuple[int, int], EpochRecord] = {}
        self._event_pending: Optional[float] = None
        #: the always-on ``member.rekey_ms`` histograms (:meth:`rekey_latency`)
        self.metrics = MetricsRegistry()

    def mark_event(self, now: float) -> None:
        """The instant a membership event is injected (join call, leave
        call, network partition)."""
        self._event_pending = now

    def record_view(self, epoch: Tuple[int, int], member: str, now: float,
                    members: Tuple[str, ...]) -> None:
        record = self.epochs.get(epoch)
        if record is None:
            record = EpochRecord(epoch=epoch, event_started_at=self._event_pending)
            self.epochs[epoch] = record
        record.members = members
        record.view_delivered.setdefault(member, now)

    def record_key(self, epoch: Tuple[int, int], member: str, now: float) -> None:
        record = self.epochs.get(epoch)
        if record is None:
            record = EpochRecord(epoch=epoch, event_started_at=self._event_pending)
            self.epochs[epoch] = record
        record.key_ready.setdefault(member, now)

    def rekey_latency(self, group: str, protocol: str) -> LogHistogram:
        """The group's ``member.rekey_ms`` histogram (created on first
        use).  Members observe every key install into it, the re-install
        of a restarted epoch included — :meth:`record_key` keeps only an
        epoch's first install, so the distribution cannot be derived
        from the :class:`EpochRecord` instants."""
        return self.metrics.log_histogram(
            "member.rekey_ms", group=group, protocol=protocol
        )

    def latest_complete(self) -> EpochRecord:
        """The most recent epoch every member finished."""
        complete = [r for r in self.epochs.values() if r.complete()]
        if not complete:
            raise LookupError("no complete rekey epoch recorded")
        return max(complete, key=lambda r: r.epoch)
