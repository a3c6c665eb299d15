"""Hierarchically labelled, virtual-clock-stamped intervals ("spans").

A span records *what happened, where, and for how long* in virtual time:
a crypto batch on a member's CPU, a frame in flight between two daemons,
a member's whole rekey epoch from view delivery to key install.  Spans are
the raw material for the Chrome-trace exporter and the per-epoch phase
report (:mod:`repro.obs.report`), which together reproduce the paper's §6
decomposition of rekey latency into membership, communication and
computation.

Recording is purely passive — a :class:`SpanRecorder` never touches the
simulator's event heap, so enabling observability cannot perturb the
virtual timeline.  The recorder is bounded: once ``capacity`` spans are
held, further spans are counted in :attr:`SpanRecorder.dropped` instead of
growing memory without limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Default span capacity; generous for every shipped benchmark, small
#: enough that a runaway run cannot exhaust memory.
DEFAULT_CAPACITY = 500_000


@dataclass
class Span:
    """One closed interval of virtual time.

    Attributes
    ----------
    category:
        Coarse kind: ``"crypto"`` (CPU work), ``"net"`` (frame in flight),
        ``"epoch"`` (view delivery -> key install), ``"gcs"`` (membership
        machinery), ``"membership"`` (event injection instants).
    name:
        Human-readable label, e.g. ``"TGDH.tree"`` or ``"frame d0->d3"``.
    actor:
        The logical thread: a member name, ``"d<k>"`` for a daemon, or
        ``"world"``.  Becomes the Chrome-trace *tid*.
    proc:
        The machine the activity ran on.  Becomes the Chrome-trace *pid*.
    start, end:
        Virtual milliseconds.  ``start == end`` marks an instant.
    span_id, parent_id, trace_id:
        Causal identity (see :mod:`repro.obs.causality`): ``parent_id``
        names the span this one *waited on*, ``trace_id`` groups every
        span of one rekey epoch's trace.  All three stay None for spans
        recorded outside a trace (e.g. during unmeasured group growth).
    """

    category: str
    name: str
    actor: str
    proc: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    trace_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        return self.end == self.start


class SpanRecorder:
    """Bounded collector of :class:`Span` records; it records whatever it
    is handed (:attr:`repro.obs.Observability.enabled` is the switch)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.spans: List[Span] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.spans)

    def add(self, span: Span) -> None:
        """Store one span (drop-counting once the capacity is reached)."""
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return
        self.spans.append(span)

    def record(
        self,
        category: str,
        name: str,
        actor: str,
        proc: str,
        start: float,
        end: float,
        *,
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        trace_id: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        """Record one closed interval."""
        self.add(
            Span(
                category, name, actor, proc, start, end, attrs,
                span_id=span_id, parent_id=parent_id, trace_id=trace_id,
            )
        )

    def instant(
        self, category: str, name: str, actor: str, proc: str, time: float,
        *,
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        trace_id: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        """Record a zero-duration marker."""
        self.record(
            category, name, actor, proc, time, time,
            span_id=span_id, parent_id=parent_id, trace_id=trace_id, **attrs,
        )

    def by_id(self) -> Dict[int, Span]:
        """Index of every id-carrying span, keyed by ``span_id``."""
        return {s.span_id: s for s in self.spans if s.span_id is not None}
