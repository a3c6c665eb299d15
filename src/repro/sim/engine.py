"""Event heap and virtual clock.

All times are virtual milliseconds.  Events scheduled for the same instant
fire in scheduling order (a monotonic sequence number breaks ties), which
makes every simulation fully deterministic.

The queue is one binary heap of ``(time, seq, event)`` tuples.  ``seq``
is unique, so tuple comparison never reaches the event and every
comparison stays in C.  Cancelling only flags the event: its heap entry
stays until it reaches the head, where it is dropped unfired.  Cancels
are rare (the token ring's re-aim is the only canceller), so the heap
never holds more than a handful of them.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class LivelockError(RuntimeError):
    """:meth:`Simulator.run_until_idle` spent its event budget while live
    events remained."""


class Event:
    """A scheduled callback.  Cancel with :meth:`cancel`."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "cause")

    def __init__(self, time: float, seq: int, fn: Callable, args: Tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: causal provenance: the (span_id, trace_id) active when the
        #: event was scheduled (see :attr:`Simulator.cause_hook`).  Pure
        #: metadata — never consulted by the queue itself.
        self.cause = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.3f}, {name})"


class Simulator:
    """Discrete-event simulator with a millisecond virtual clock."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        #: optional :class:`repro.obs.causality.Causality`: when set,
        #: :meth:`schedule_at` stamps its ``current`` cause on the new
        #: event and firing restores it, so causal context follows the
        #: event graph without touching any scheduling decision.  None
        #: (the default) keeps the hot paths to one attribute test.
        self.cause_hook = None

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def active_pending(self) -> int:
        """Number of queued events that will actually fire.

        ``pending`` counts queue entries, including events cancelled but
        not yet consumed; this is the honest queue depth for tests,
        benchmarks and the observability gauges.
        """
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def clear(self) -> None:
        """Drop every queued event unfired."""
        self._heap.clear()

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} (now is {self.now})")
        seq = next(self._seq)
        event = Event(time, seq, fn, args)
        hook = self.cause_hook
        if hook is not None:
            event.cause = hook.current
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def _peek(self) -> Optional[Event]:
        """The next event that will fire, without consuming it.

        Cancelled entries on the way are dropped (they never fire).
        """
        heap = self._heap
        while heap:
            event = heap[0][2]
            if not event.cancelled:
                return event
            heapq.heappop(heap)
        return None

    def _fire(self, event: Event) -> None:
        """Pop and fire ``event`` (the one :meth:`_peek` just returned)."""
        heapq.heappop(self._heap)
        self.now = event.time
        self._events_processed += 1
        hook = self.cause_hook
        if hook is not None:
            hook.current = event.cause
        event.fn(*event.args)

    def step(self) -> bool:
        """Fire the next non-cancelled event.  Returns False when idle."""
        event = self._peek()
        if event is None:
            return False
        self._fire(event)
        return True

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` more events have fired.

        With ``until`` set, the clock is advanced to exactly ``until`` even
        if the queue drains earlier, so back-to-back ``run(until=...)``
        calls behave like a continuous timeline.
        """
        remaining = max_events
        while True:
            if remaining is not None and remaining <= 0:
                break
            event = self._peek()
            if event is None:
                break
            if until is not None and event.time > until:
                break
            self._fire(event)
            if remaining is not None:
                remaining -= 1
        if until is not None and until > self.now:
            self.now = until

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely; guard against runaway simulations.

        Fires at most ``max_events`` events: the guard raises as soon as
        the budget is exhausted while live events remain, rather than
        firing one event past it.  This is the simulator hot loop, so it
        pops directly instead of going through :meth:`step`.
        """
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        while heap:
            event = pop(heap)[2]
            if event.cancelled:
                continue
            self.now = event.time
            self._events_processed += 1
            hook = self.cause_hook
            if hook is not None:
                hook.current = event.cause
            event.fn(*event.args)
            fired += 1
            if fired >= max_events and self.active_pending:
                raise LivelockError(
                    f"simulation exceeded {max_events} events; likely a livelock"
                )
