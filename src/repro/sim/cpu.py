"""Machines with a fixed number of cores; CPU work serializes under load.

The paper's LAN testbed is thirteen *dual-processor* 666 MHz Pentium III
machines with group members distributed uniformly across them (§6.1.1).
Two of its findings depend directly on CPU contention:

* BD's cost "roughly doubles as the group size grows in increments of 13"
  — every 13 new members put one more busy process on each machine;
* performance degrades noticeably past 26 members — the point where a
  dual-CPU machine first runs more than one process per core.

:class:`Machine` models exactly that: submitted work units are placed on the
least-loaded core FIFO, and a machine's ``speed`` scales work duration (the
WAN testbed mixes platforms of different speeds).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.sim.engine import Simulator


class Machine:
    """A simulated host with ``cores`` CPUs of relative speed ``speed``.

    ``speed=1.0`` is the reference platform the
    :class:`~repro.crypto.costmodel.CostModel` is calibrated for; a machine
    with ``speed=0.5`` takes twice the virtual time for the same work.
    """

    def __init__(
        self, name: str, site: str = "lan", cores: int = 2, speed: float = 1.0
    ):
        if cores < 1:
            raise ValueError("a machine needs at least one core")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.name = name
        self.site = site
        self.cores = cores
        self.speed = speed
        self._core_free: List[float] = [0.0] * cores
        # Cause of the last span run on each core, for causal parenting:
        # a batch gated by core contention waited on *that* span, whoever
        # submitted it (the paper's BD-doubling effect made visible).
        self._core_span: List[Optional[tuple]] = [None] * cores
        #: optional :class:`repro.obs.Observability` flight recorder; when
        #: attached (by :class:`~repro.gcs.world.GcsWorld`) and enabled,
        #: every submitted work unit becomes a span on this machine's
        #: Chrome-trace "process".
        self.obs = None

    def submit(
        self,
        sim: Simulator,
        work_ms: float,
        fn: Optional[Callable] = None,
        *args: Any,
        not_before: float = 0.0,
        span: Optional[tuple] = None,
        chain: Optional[tuple] = None,
    ) -> float:
        """Queue ``work_ms`` of reference-speed CPU work on this machine.

        The work starts on the core that frees up first (but never before
        ``not_before`` — used to serialize a single process's tasks) and
        runs for ``work_ms / speed`` virtual milliseconds.  When ``fn`` is
        given it fires at completion.  Returns the completion time.

        ``span`` is an optional ``(category, name, actor, attrs)`` tuple;
        with an enabled recorder attached it is recorded over the work's
        actual busy interval (queueing delay excluded), which is what the
        per-epoch report counts as "computation".

        ``chain`` is the submitter's previous CPU span cause, used only
        for causal parenting: the recorded span's parent is whichever
        bound actually gated its start — the core's last span under
        contention, ``chain`` when serialized behind the submitter's own
        earlier work, the ambient cause otherwise.
        """
        if work_ms < 0:
            raise ValueError("work_ms must be non-negative")
        duration = work_ms / self.speed
        # argmin over core free-times, first-wins on ties (as
        # ``min(range, key=...)`` picked); unrolled because this runs
        # once per protocol-message handler.  Dual-core machines — the
        # paper's entire LAN testbed — take the branch-only path.
        core_free = self._core_free
        if len(core_free) == 2:
            if core_free[1] < core_free[0]:
                index = 1
                best = core_free[1]
            else:
                index = 0
                best = core_free[0]
        else:
            index = 0
            best = core_free[0]
            for i in range(1, len(core_free)):
                free = core_free[i]
                if free < best:
                    best = free
                    index = i
        now = sim.now
        start = now if now > not_before else not_before
        if best > start:
            core_gated = True
            start = best
        else:
            core_gated = False
        finish = start + duration
        self._core_free[index] = finish
        cause = None
        if span is not None and self.obs is not None and self.obs.enabled:
            category, span_name, actor, attrs = span
            causality = self.obs.causality
            # Causal parent: whichever bound gated the start.  Core
            # contention means we waited on another span on this core;
            # ``not_before`` means our own prior work; otherwise whatever
            # caused the submit.
            if core_gated:
                parent = self._core_span[index]
            elif not_before > now:
                parent = chain
            else:
                parent = causality.current
            if parent is None:
                parent = causality.current
            if parent is not None:
                cause = (causality.new_span_id(), parent[1])
            self.obs.span(
                category, span_name, actor, self.name, start, finish,
                span_id=cause[0] if cause else None,
                parent_id=parent[0] if parent else None,
                trace_id=cause[1] if cause else None,
                **(attrs or {}),
            )
            self.obs.counter("cpu.work_ms", machine=self.name).inc(duration)
            self._core_span[index] = cause
            causality.last_cpu_span = cause
        if fn is not None:
            event = sim.schedule_at(finish, fn, *args)
            if cause is not None:
                # The completion callback was caused by the CPU span, not
                # by whatever context submitted the work.
                event.cause = cause
        return finish

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self.name!r}, site={self.site!r}, cores={self.cores}, "
            f"speed={self.speed})"
        )
