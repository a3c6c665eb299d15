"""Wall-clock stand-ins for the simulator's scheduler and machines.

The secure-group core is written against two small substrate objects: a
scheduler (``now`` in milliseconds, ``schedule``/``schedule_at``) and a
:class:`~repro.sim.cpu.Machine` whose ``submit`` serializes modeled CPU
work.  On the live asyncio backend both map onto the event loop:

* :class:`WallScheduler` reads the loop's monotonic clock (rebased to 0
  when first read in the loop, so timeline arithmetic looks like a simulation run)
  and turns ``schedule``/``schedule_at`` into ``call_later``/``call_at``;
* :class:`WallMachine` is a **pass-through**: live protocol code has
  already *spent* real CPU time by the time it charges its modeled cost,
  so ``submit`` performs no queueing — it returns ``max(now,
  not_before)`` and fires completion callbacks on the next loop tick.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional


class _WallEvent:
    """Handle for a scheduled callback; carries the ``cause`` attribute
    the causal tracer sets on simulator events (ignored here)."""

    __slots__ = ("handle", "cause")

    def __init__(self, handle: asyncio.TimerHandle):
        self.handle = handle
        self.cause = None


class WallScheduler:
    """The event loop's clock and timers behind the scheduler interface.

    Times are wall-clock milliseconds since this scheduler was first
    read inside the event loop, so ``now`` starts near 0.0 like a fresh
    :class:`~repro.sim.engine.Simulator` and
    :class:`~repro.core.timing.RekeyTimeline` spans read the same either
    way.
    """

    def __init__(self):
        # The loop is resolved lazily: the transport builds its scheduler
        # before the event loop may be running, and
        # ``asyncio.get_event_loop()`` outside a running loop is
        # deprecated/raising on modern Pythons.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0

    def _live_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
            self._t0 = self._loop.time()
        return self._loop

    @property
    def now(self) -> float:
        """Milliseconds of wall-clock time since the scheduler started.

        Before the event loop runs the clock reads 0.0 — the scheduler
        starts ticking with the loop, not at construction.
        """
        try:
            loop = self._live_loop()
        except RuntimeError:  # no running loop yet
            return 0.0
        return (loop.time() - self._t0) * 1000.0

    def schedule(self, delay_ms: float, fn: Callable, *args: Any) -> _WallEvent:
        """Run ``fn(*args)`` after ``delay_ms`` wall-clock milliseconds."""
        if delay_ms < 0:
            raise ValueError("cannot schedule into the past")
        loop = self._live_loop()
        return _WallEvent(loop.call_later(delay_ms / 1000.0, fn, *args))

    def schedule_at(self, time_ms: float, fn: Callable, *args: Any) -> _WallEvent:
        """Run ``fn(*args)`` at absolute scheduler time ``time_ms``
        (clamped to "immediately" when the instant has already passed —
        the live clock, unlike the simulator's, cannot be rewound)."""
        loop = self._live_loop()
        return _WallEvent(
            loop.call_at(self._t0 + max(time_ms, self.now) / 1000.0, fn, *args)
        )


class WallMachine:
    """A live host: CPU charging is a pass-through (see module docstring)."""

    def __init__(self, name: str):
        self.name = name

    def submit(
        self,
        sim: WallScheduler,
        work_ms: float,
        fn: Optional[Callable] = None,
        *args: Any,
        not_before: float = 0.0,
        span: Optional[tuple] = None,
        chain: Optional[tuple] = None,
    ) -> float:
        """Charge modeled work without adding wall-clock delay.

        The real computation already happened inline, so the "completion
        time" is simply ``max(now, not_before)``; any completion callback
        fires on the next loop iteration, preserving the simulator's
        run-to-completion semantics (callbacks never reenter the caller).
        """
        if work_ms < 0:
            raise ValueError("work_ms must be non-negative")
        finish = max(sim.now, not_before)
        if fn is not None:
            sim.schedule_at(finish, fn, *args)
        return finish

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WallMachine({self.name!r})"
