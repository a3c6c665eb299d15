"""Causal context for the span DAG: who caused what, recorded not inferred.

Every rekey epoch becomes a *trace*: the membership event's injection
instant is the root span, and from there a cause — a ``(span_id,
trace_id)`` pair — is threaded through every layer that moves the rekey
forward:

* the simulator stamps the ambient cause on every scheduled event and
  restores it when the event fires (:attr:`repro.sim.engine.Simulator.
  cause_hook`), so causality follows the event graph by default;
* layers where the default is *wrong* override it explicitly — the token
  ring fires sequencing callbacks in the token's context, so the daemon
  carries the sender's cause on the message; a daemon's delivery scan
  runs in the *triggering* frame's context, so the arrival cause of each
  frame is recorded at receipt and adopted at delivery; a CPU batch may
  be gated by core contention rather than by its submitter, so
  :meth:`repro.sim.cpu.Machine.submit` picks the parent by whichever
  bound actually delayed the start.

The result is that every span carries ``span_id``/``parent_id``/
``trace_id`` and the DAG of who-waited-on-whom is *recorded*:
:mod:`repro.obs.critpath` walks it backwards from key-install to extract
the exact blocking chain, and the Chrome-trace exporter draws the edges
as flow arrows.

Like every other part of ``repro.obs`` this is passive — a
:class:`Causality` never schedules events and only ever hands out ids —
so tracing cannot perturb the virtual timeline.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

#: A cause: the (span_id, trace_id) of the span that made something happen.
Cause = Tuple[int, int]


class Causality:
    """Span/trace id allotment plus the ambient "current cause" slot.

    The simulation is single-threaded, so one mutable ``current`` slot is
    the whole context machinery: the simulator sets it to the firing
    event's recorded cause, layers override it where the event graph and
    the causal graph disagree, and every span recorded with
    :meth:`repro.obs.Observability.caused_span` parents under it.
    """

    def __init__(self) -> None:
        self._next_span = itertools.count(1)
        self._next_trace = itertools.count(1)
        #: the cause of whatever is happening right now (None outside a trace)
        self.current: Optional[Cause] = None
        #: the cause of the most recent CPU span recorded by
        #: :meth:`repro.sim.cpu.Machine.submit` — read back immediately by
        #: the submitter to stamp events it schedules at the CPU tail.
        self.last_cpu_span: Optional[Cause] = None

    def new_span_id(self) -> int:
        """A fresh span id (ids are unique per deployment, issue order)."""
        return next(self._next_span)

    def begin_trace(self) -> int:
        """Open a new trace (one per membership event) and return its id."""
        return next(self._next_trace)

    def adopt(self, cause: Optional[Cause]) -> None:
        """Override the ambient cause (the recorded-not-inferred hook)."""
        self.current = cause

    def sprout(self) -> Optional[Cause]:
        """Allocate a child cause of the current one.

        Returns ``(new_span_id, current_trace_id)`` — or None when no
        trace is active, so pre-trace activity (group growth before the
        measured event) stays untraced rather than inventing orphan ids.
        """
        if self.current is None:
            return None
        return (self.new_span_id(), self.current[1])

