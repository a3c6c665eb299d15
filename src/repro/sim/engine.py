"""Event heap and virtual clock.

All times are virtual milliseconds.  Events scheduled for the same instant
fire in scheduling order (a monotonic sequence number breaks ties), which
makes every simulation fully deterministic.

Internally the queue is a *time-bucketed* heap: events are grouped into
per-instant lists (appended in scheduling order, so seq order is free) and
the binary heap orders only the distinct times.  Simulations of broadcast
protocols schedule long runs of events at the same instant — a daemon
fanning one frame out to n receivers — and draining such a run is a
pointer walk along one list instead of n ``heappop``s with
``(time, seq)`` tuple comparisons.  The observable semantics (firing
order, cancellation, the ``pending`` counters) are identical to a plain
event heap.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple


class Event:
    """A scheduled callback.  Cancel with :meth:`cancel`."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_owner", "cause")

    def __init__(self, time: float, seq: int, fn: Callable, args: Tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._owner: Optional["Simulator"] = None
        #: causal provenance: the (span_id, trace_id) active when the
        #: event was scheduled (see :attr:`Simulator.cause_hook`).  Pure
        #: metadata — never consulted by the queue itself.
        self.cause = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.3f}, {name})"


class Simulator:
    """Discrete-event simulator with a millisecond virtual clock."""

    #: lazy queue compaction: rebuild once this many cancelled events sit in
    #: the queue *and* they outnumber the live ones.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        #: events per distinct instant, in scheduling (== seq) order
        self._buckets: Dict[float, List[Event]] = {}
        #: heap of the bucket times (exactly one entry per bucket)
        self._times: List[float] = []
        #: the bucket currently being drained (already popped from the
        #: dict, so same-instant events scheduled mid-drain start a fresh
        #: bucket behind it) and the drain pointer into it
        self._active: Optional[List[Event]] = None
        self._active_index = 0
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_in_queue = 0
        self._queued = 0
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
        return self._queued

    @property
    def active_pending(self) -> int:
        """Number of queued events that will actually fire.

        ``pending`` counts queue entries, including events cancelled but
        not yet consumed; this is the honest queue depth for tests,
        benchmarks and the observability gauges.
        """
        return self._queued - self._cancelled_in_queue

    def _note_cancelled(self) -> None:
        """An owned, still-queued event was cancelled (called by Event)."""
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue >= self._COMPACT_MIN
            and self._cancelled_in_queue * 2 > self._queued
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled bucket entries and rebuild the time heap.

        The partially drained active bucket is left alone — its cancelled
        remainder is skipped (and discounted) as the drain pointer passes
        it — so compaction is safe even when triggered from inside a
        firing event.
        """
        for time_key in list(self._buckets):
            live = [e for e in self._buckets[time_key] if not e.cancelled]
            if live:
                self._buckets[time_key] = live
            else:
                del self._buckets[time_key]
        self._times = list(self._buckets)
        heapq.heapify(self._times)
        remaining = 0
        cancelled = 0
        if self._active is not None:
            tail = self._active[self._active_index :]
            remaining = len(tail)
            cancelled = sum(1 for e in tail if e.cancelled)
        self._queued = sum(map(len, self._buckets.values())) + remaining
        self._cancelled_in_queue = cancelled

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} (now is {self.now})")
        event = Event(time, next(self._seq), fn, args)
        event._owner = self
        hook = self.cause_hook
        if hook is not None:
            event.cause = hook.current
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        self._queued += 1
        return event

    def _next_live(self) -> Optional[Event]:
        """The next event that will fire, without consuming it.

        Cancelled entries on the way are consumed (they never fire), and
        fully drained buckets are replaced by the next time off the heap.
        """
        while True:
            bucket = self._active
            if bucket is not None:
                index = self._active_index
                size = len(bucket)
                while index < size:
                    event = bucket[index]
                    if not event.cancelled:
                        self._active_index = index
                        if self._times and self._times[0] < event.time:
                            # An earlier bucket appeared since this one was
                            # popped (a ``run(until=...)`` stopped short of
                            # it, then earlier events were scheduled): put
                            # the remainder back, ahead of any same-instant
                            # events scheduled meanwhile (they carry higher
                            # seqs), and take the earlier bucket instead.
                            remainder = bucket[index:]
                            later = self._buckets.get(event.time)
                            if later is None:
                                heapq.heappush(self._times, event.time)
                                self._buckets[event.time] = remainder
                            else:
                                self._buckets[event.time] = remainder + later
                            break
                        return event
                    event._owner = None
                    self._queued -= 1
                    self._cancelled_in_queue -= 1
                    index += 1
                self._active = None
                self._active_index = 0
            if not self._times:
                return None
            time = heapq.heappop(self._times)
            self._active = self._buckets.pop(time)
            self._active_index = 0

    def _consume(self, event: Event) -> None:
        """Fire ``event`` (the one :meth:`_next_live` just returned)."""
        self._active_index += 1
        self._queued -= 1
        event._owner = None  # out of the queue; cancel() is a no-op now
        self.now = event.time
        self._events_processed += 1
        hook = self.cause_hook
        if hook is not None:
            hook.current = event.cause
        event.fn(*event.args)

    def step(self) -> bool:
        """Fire the next non-cancelled event.  Returns False when idle."""
        event = self._next_live()
        if event is None:
            return False
        self._consume(event)
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
            event = self._next_live()
            if event is None:
                break
            if until is not None and event.time > until:
                break
            self._consume(event)
            if remaining is not None:
                remaining -= 1
        if until is not None and until > self.now:
            self.now = until

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely; guard against runaway simulations.

        Fires at most ``max_events`` events: the guard raises as soon as
        the budget is exhausted while live events remain, rather than
        firing one event past it.

        The loop inlines :meth:`step`'s overwhelmingly common case — the
        active bucket's next entry is live and no earlier-time bucket has
        appeared — because draining the queue is *the* simulator hot
        loop; the rare cases (cancelled entry, drained bucket, stranded
        active bucket) fall back to :meth:`step` unchanged.
        """
        fired = 0
        while True:
            bucket = self._active
            if bucket is not None and self._active_index < len(bucket):
                event = bucket[self._active_index]
                times = self._times
                if not event.cancelled and not (times and times[0] < event.time):
                    self._active_index += 1
                    self._queued -= 1
                    event._owner = None
                    self.now = event.time
                    self._events_processed += 1
                    hook = self.cause_hook
                    if hook is not None:
                        hook.current = event.cause
                    event.fn(*event.args)
                elif not self.step():
                    break
            elif not self.step():
                break
            fired += 1
            if fired >= max_events and self.active_pending > 0:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; likely a livelock"
                )
