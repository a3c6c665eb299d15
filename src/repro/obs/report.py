"""Per-epoch cost attribution: the paper's §6 decomposition, read off the
causal critical path.

The paper decomposes each rekey's *total elapsed time* into the
membership-service part and the key-agreement part, and argues (§6.2,
Figs. 11–14) about how much of the latter is communication versus
computation.  This module makes that decomposition a first-class,
machine-checkable artifact, and the only one in the package:

* **membership** — event injection -> last member's view delivery
  (identical to :meth:`~repro.core.timing.EpochRecord.membership_elapsed`);
* **computation** — within the key-agreement window
  ``[max(view_delivered), max(key_ready)]``, the ``crypto`` segments of
  the epoch's :func:`~repro.obs.critpath.critical_path`, clipped to the
  window: the exponentiations and signatures the last member to install
  the key actually waited on, whichever member ran them;
* **communication** — the rest of the window: ordered delivery, token
  rotation, frames in flight and untraced waits on the chain.

By construction the three phases sum to
:meth:`~repro.core.timing.EpochRecord.total_elapsed`, which is the
reconciliation property the acceptance tests assert to 1e-6 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.obs.critpath import (
    CriticalPath,
    critical_path,
    render_critical_paths,
    timeline_critical_paths,
)
from repro.obs.histo import render_percentiles
from repro.obs.spans import SpanRecorder

if TYPE_CHECKING:  # import cycle: repro.core imports repro.obs at runtime
    from repro.core.timing import EpochRecord, RekeyTimeline


@dataclass(frozen=True)
class EpochPhases:
    """One epoch's elapsed time split into the paper's three phases."""

    epoch: Tuple
    last_member: str
    total_ms: float
    membership_ms: float
    communication_ms: float
    computation_ms: float

    def phase_sum(self) -> float:
        return self.membership_ms + self.communication_ms + self.computation_ms

    def reconciles(self) -> bool:
        """True when the phases sum to the timeline total (within 1e-6 ms)."""
        return abs(self.phase_sum() - self.total_ms) <= 1e-6


def _read_phases(record: "EpochRecord", path: CriticalPath) -> EpochPhases:
    """Split one epoch along its already-extracted critical path."""
    window_start = max(record.view_delivered.values())
    window_end = max(record.key_ready.values())
    computation = 0.0
    for segment in path.segments:
        if segment.category == "crypto":
            start = max(segment.start, window_start)
            end = min(segment.end, window_end)
            if end > start:
                computation += end - start
    return EpochPhases(
        epoch=record.epoch,
        last_member=path.member,
        total_ms=record.total_elapsed(),
        membership_ms=record.membership_elapsed(),
        communication_ms=(window_end - window_start) - computation,
        computation_ms=computation,
    )


def epoch_phases(record: "EpochRecord", spans: SpanRecorder) -> EpochPhases:
    """Decompose one complete epoch along its critical path."""
    return _read_phases(record, critical_path(record, spans))


def _all_phases(
    timeline: "RekeyTimeline", paths: List[CriticalPath]
) -> List[EpochPhases]:
    return [_read_phases(timeline.epochs[path.epoch], path) for path in paths]


def timeline_phases(
    timeline: "RekeyTimeline", spans: SpanRecorder
) -> List[EpochPhases]:
    """The phases of every *complete, event-marked* epoch, in epoch order.

    Epochs whose membership event was never marked (e.g. the growth phase
    of a benchmark, where joins are deliberately unmeasured) are skipped —
    they have no well-defined elapsed time.
    """
    return _all_phases(timeline, timeline_critical_paths(timeline, spans))


def render_phases(rows: List[EpochPhases], title: Optional[str] = None) -> str:
    """Aligned text table: one row per epoch, one column per phase."""
    header = (
        f"{'epoch':>24s} {'total':>10s} {'membship':>10s} "
        f"{'comms':>10s} {'comput':>10s} {'sum ok':>6s}  last"
    )
    lines = [title or "Per-epoch phase decomposition (ms)", header,
             "-" * len(header)]
    for b in rows:
        ok = "yes" if b.reconciles() else "NO"
        lines.append(
            f"{str(b.epoch):>24s} {b.total_ms:10.3f} {b.membership_ms:10.3f} "
            f"{b.communication_ms:10.3f} {b.computation_ms:10.3f} {ok:>6s}  "
            f"{b.last_member}"
        )
    if not rows:
        lines.append("(no complete epochs recorded)")
    return "\n".join(lines)


def render_report(
    timeline: "RekeyTimeline", spans: SpanRecorder, title: Optional[str] = None
) -> str:
    """The phase table, then the critical paths it was read from, then the
    rekey-latency percentiles — one walk per epoch."""
    paths = timeline_critical_paths(timeline, spans)
    rows = _all_phases(timeline, paths)
    lines = [render_phases(rows, title)]
    if rows:
        worst = max(abs(b.phase_sum() - b.total_ms) for b in rows)
        lines.append(
            f"{len(rows)} epoch(s); worst |phases - timeline| = "
            f"{worst:.2e} ms"
        )
        lines.append("\nCritical paths: the chains the phases were read from\n")
        lines.append(render_critical_paths(paths))
    lines.append("")
    lines.append(
        render_percentiles(
            timeline.metrics.log_histograms(), "Rekey latency percentiles (ms)"
        )
    )
    if spans.dropped:
        lines.append(
            f"\n!! WARNING: span recorder dropped {spans.dropped} span(s) "
            f"(fixed capacity {spans.capacity}); every figure above that "
            f"leans on spans — computation, communication, critical paths "
            f"— may undercount or be truncated.  Re-run with a smaller "
            f"--size: fewer members record fewer spans."
        )
    return "\n".join(lines)
