"""Critical-path extraction over the recorded span DAG.

Every span carries the id of the span it *waited on* (see
:mod:`repro.obs.causality`), so the blocking chain behind a rekey is not
inferred from timestamps — it is read off the recorded parent edges.
:func:`critical_path` walks backwards from the epoch's terminal
``key-install`` instant at the last-to-finish member, reverses the chain,
and tiles it onto the measured window ``[event start, last key ready]``.
Gaps the chain does not explain (a daemon token hold, an idle wait for a
frame) become explicit ``wait`` segments, so the path is a gap-free
partition of the epoch.  :mod:`repro.obs.report` reads the paper's §6
phases off these paths.

The invariant the tests pin down: the segment durations, summed plainly
left to right, equal the epoch's measured
:meth:`~repro.core.timing.EpochRecord.total_elapsed` *float-exactly* —
not approximately.  Tiling produces telescoping ``end - start`` terms
whose naive float sum can drift by a few ulps from the measured total, so
a bounded nudge loop folds the residual into the longest segment until
the plain sum lands exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.spans import Span, SpanRecorder

if TYPE_CHECKING:  # import cycle: repro.core imports repro.obs at runtime
    from repro.core.timing import EpochRecord, RekeyTimeline

#: Span name of the terminal instant every complete epoch records.
KEY_INSTALL = "key-install"

#: Default phase label per span category, for spans that do not carry an
#: explicit ``phase`` attribute (protocol steps stamp their own).
_CATEGORY_PHASE = {
    "crypto": "computation",
    "net": "communication",
    "gcs": "membership",
    "membership": "membership",
    "epoch": "install",
}


@dataclass
class CriticalSegment:
    """One tile of the blocking chain: who was on the path, doing what."""

    member: str
    phase: str
    name: str
    start: float
    end: float
    duration: float
    category: str = ""
    span_id: Optional[int] = None


@dataclass
class CriticalPath:
    """The exact blocking chain of one rekey epoch.

    ``sum(seg.duration)`` evaluated left to right equals ``total``
    float-exactly whenever ``exact`` is True (it is False only if the
    nudge loop failed to converge, which the tests treat as a bug).
    ``truncated`` flags a parent walk that hit a span the bounded
    recorder had dropped.
    """

    epoch: Tuple[int, int]
    member: str
    trace_id: Optional[int]
    total: float
    segments: List[CriticalSegment] = field(default_factory=list)
    exact: bool = False
    truncated: bool = False

    def plain_sum(self) -> float:
        """Left-to-right float sum of the segment durations."""
        total = 0.0
        for segment in self.segments:
            total += segment.duration
        return total


def _terminal_span(
    recorder: SpanRecorder, record: EpochRecord, member: str
) -> Optional[Span]:
    """The epoch's ``key-install`` instant at the critical member."""
    epoch_text = str(record.epoch)
    for span in reversed(recorder.spans):
        if (
            span.name == KEY_INSTALL
            and span.actor == member
            and str(span.attrs.get("epoch")) == epoch_text
        ):
            return span
    return None


def _walk_chain(
    terminal: Span, index: Dict[int, Span]
) -> Tuple[List[Span], bool]:
    """Follow parent edges back from the terminal; oldest span first.

    Returns ``(chain, truncated)`` — truncated when a parent id points at
    a span the recorder no longer holds (capacity drop).
    """
    chain: List[Span] = []
    truncated = False
    seen = set()
    node: Optional[Span] = terminal
    while node is not None:
        if node.span_id in seen:  # defensive: ids never cycle by design
            break
        if node.span_id is not None:
            seen.add(node.span_id)
        chain.append(node)
        parent_id = node.parent_id
        if parent_id is None:
            break
        node = index.get(parent_id)
        if node is None:
            truncated = True
    chain.reverse()
    return chain, truncated


def _phase_of(span: Span) -> str:
    phase = span.attrs.get("phase")
    if phase:
        return str(phase)
    return _CATEGORY_PHASE.get(span.category, span.category or "other")


def _tile(
    chain: List[Span], member: str, window_start: float, window_end: float
) -> List[CriticalSegment]:
    """Partition ``[window_start, window_end]`` along the chain.

    Chain spans are clipped to the window and to the running cursor
    (causally ordered spans can overlap when a child starts before its
    parent's recorded end, e.g. a frame send overlapping the signing
    span); every uncovered stretch becomes an explicit wait segment.
    An instant inside the window (a ``gcs deliver``, a view change)
    becomes a zero-duration segment of its own actor, so each wait it
    ends is shown ending at something.
    """
    segments: List[CriticalSegment] = []
    cursor = window_start
    for span in chain:
        # Skip what the cursor has passed.  An instant at the cursor still
        # gets its segment; the root instant at the event start does not.
        if span.end <= window_start or span.end < cursor:
            continue
        if span.end == cursor and span.start < span.end:
            continue
        start = span.start if span.start > cursor else cursor
        if start >= window_end:
            break
        end = span.end if span.end < window_end else window_end
        if start > cursor:
            segments.append(
                CriticalSegment(
                    member=member, phase="wait", name="wait",
                    start=cursor, end=start, duration=start - cursor,
                    category="wait",
                )
            )
        segments.append(
            CriticalSegment(
                member=span.actor, phase=_phase_of(span), name=span.name,
                start=start, end=end, duration=end - start,
                category=span.category, span_id=span.span_id,
            )
        )
        cursor = end
    if cursor < window_end:
        segments.append(
            CriticalSegment(
                member=member, phase="wait", name="wait",
                start=cursor, end=window_end, duration=window_end - cursor,
                category="wait",
            )
        )
    return segments


def critical_path(
    record: EpochRecord, recorder: SpanRecorder
) -> CriticalPath:
    """Extract the blocking chain of one complete epoch.

    Falls back to a single ``untraced`` segment spanning the whole window
    when the epoch recorded no causal ids (tracing was off, or the
    terminal instant was dropped) — the exact-sum invariant holds either
    way.
    """
    if record.event_started_at is None:
        raise ValueError("epoch never marked its event start")
    if not record.key_ready:
        raise ValueError("epoch has no key-ready members")
    # The critical member is the last to install the key, name breaking
    # ties; :mod:`repro.obs.report` reads its phases off this same walk.
    member = max(record.key_ready.items(), key=lambda kv: (kv[1], kv[0]))[0]
    window_start = record.event_started_at
    window_end = record.key_ready[member]
    total = record.total_elapsed()
    terminal = _terminal_span(recorder, record, member)
    truncated = False
    chain: List[Span] = []
    if terminal is not None and terminal.span_id is not None:
        chain, truncated = _walk_chain(terminal, recorder.by_id())
    if chain:
        segments = _tile(chain, member, window_start, window_end)
    else:
        segments = [
            CriticalSegment(
                member=member, phase="wait", name="untraced",
                start=window_start, end=window_end,
                duration=window_end - window_start, category="wait",
            )
        ]
    path = CriticalPath(
        epoch=record.epoch,
        member=member,
        trace_id=terminal.trace_id if terminal is not None else None,
        total=total,
        segments=segments,
        truncated=truncated,
    )
    # Exactness nudge: fold the telescoping-sum residual into the longest
    # segment until the plain left-to-right sum *is* the measured total.
    # Converges in one or two rounds; the bound is pure paranoia.
    if segments:
        longest = max(segments, key=lambda s: s.duration)
        for _ in range(64):
            plain = path.plain_sum()
            if plain == total:
                path.exact = True
                break
            longest.duration += total - plain
            longest.end = longest.start + longest.duration
    else:
        path.exact = total == 0.0
    return path


def timeline_critical_paths(
    timeline: RekeyTimeline, recorder: SpanRecorder
) -> List[CriticalPath]:
    """One :func:`critical_path` per complete, started epoch, in order."""
    paths = []
    for epoch in sorted(timeline.epochs):
        record = timeline.epochs[epoch]
        if record.complete() and record.event_started_at is not None:
            paths.append(critical_path(record, recorder))
    return paths


def render_critical_paths(paths: List[CriticalPath]) -> str:
    """Human-readable blocking chains, one table per epoch."""
    if not paths:
        return "No complete rekey epochs recorded."
    lines: List[str] = []
    for path in paths:
        config, eid = path.epoch
        trace = f", trace {path.trace_id}" if path.trace_id is not None else ""
        lines.append(
            f"Epoch ({config}, {eid}) — critical member {path.member}, "
            f"total {path.total:.3f} ms{trace}"
        )
        if path.truncated:
            lines.append(
                "  !! chain truncated: recorder dropped ancestor spans"
            )
        header = (
            f"  {'member':<10s} {'phase':<14s} {'span':<26s} "
            f"{'start':>10s} {'duration':>10s}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for segment in path.segments:
            lines.append(
                f"  {segment.member:<10s} {segment.phase:<14s} "
                f"{segment.name:<26s} {segment.start:10.3f} "
                f"{segment.duration:10.3f}"
            )
        checks = "exact" if path.exact else "INEXACT"
        lines.append(
            f"  sum {path.plain_sum():.3f} ms ({checks}, "
            f"{len(path.segments)} segments)"
        )
        lines.append("")
    return "\n".join(lines).rstrip("\n")
