"""The serializable description of one sustained-churn run.

A :class:`WorkloadSpec` pins down everything the engine needs — the
protocol under test, the arrival process and its parameters, the seed,
and an optional composed :class:`~repro.faults.FaultSchedule` — as a
frozen value with an exact ``to_spec``/``from_spec`` round-trip,
mirroring the fault schedule's own discipline.  That round-trip is what
makes workloads cacheable (the benchmark pool hashes the spec dict) and
replayable (the JSON in a ``BENCH_load.json`` reconstructs the run
bit-for-bit).

Validation happens at construction: an unknown protocol, arrival
process, fault action or malformed trace entry raises ``ValueError``
immediately, so a bad spec dies at the CLI boundary with a clean
message instead of deep inside a worker process.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.protocols import available
from repro.workload.arrivals import (
    ARRIVALS,
    ChurnEvent,
    diurnal_stream,
    flash_stream,
    poisson_stream,
    trace_stream,
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One sustained-churn scenario, fully serializable.

    ``burst_at_ms``/``burst_joins`` apply to the ``flash`` arrival,
    ``period_ms`` to ``diurnal``, and ``trace`` to ``trace``; ``None``
    means the generator's documented default.  ``faults`` composes a
    fault schedule (specified exactly as
    :meth:`~repro.faults.FaultSchedule.from_spec` takes it) whose times
    are relative to the start of the sustained phase, alongside the
    churn; it holds faults only (churn belongs in ``trace``).
    """

    protocol: str
    arrival: str = "poisson"
    groups: int = 8
    group_size: int = 4
    rate_hz: float = 20.0
    duration_ms: float = 2000.0
    seed: int = 0
    min_members: int = 2
    max_members: Optional[int] = None
    burst_at_ms: Optional[float] = None
    burst_joins: Optional[int] = None
    period_ms: Optional[float] = None
    trace: Tuple[ChurnEvent, ...] = ()
    faults: Tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "protocol", str(self.protocol).upper())
        if self.protocol not in available():
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {list(available())}"
            )
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"choose from {list(ARRIVALS)}"
            )
        if self.groups < 1:
            raise ValueError("groups must be at least 1")
        if self.min_members < 1:
            raise ValueError("min_members must be at least 1")
        if self.group_size < self.min_members:
            raise ValueError("group_size must be at least min_members")
        if self.max_members is not None and self.max_members < self.group_size:
            raise ValueError("max_members must be at least group_size")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.burst_at_ms is not None and self.burst_at_ms < 0:
            raise ValueError("burst_at_ms must be non-negative")
        if self.burst_joins is not None and self.burst_joins < 0:
            raise ValueError("burst_joins must be non-negative")
        if self.period_ms is not None and self.period_ms <= 0:
            raise ValueError("period_ms must be positive")
        # Coerce trace/fault entries (dicts or event values) into the
        # frozen event types — each constructor validates as it builds,
        # so an unknown fault action or churn action fails here.
        object.__setattr__(
            self, "trace", trace_stream(self.trace, groups=self.groups)
        )
        object.__setattr__(
            self,
            "faults",
            tuple(
                FaultSchedule.from_spec(
                    [
                        event.to_dict() if isinstance(event, FaultEvent) else event
                        for event in self.faults
                    ]
                )
            ),
        )

    # -- serialization ------------------------------------------------------

    def to_spec(self) -> dict:
        """A plain JSON-ready dict; inverse of :meth:`from_spec`.

        Every field is always present (``None`` included), so two specs
        are equal exactly when their spec dicts are — the property the
        benchmark pool's content-addressed cache key relies on.
        """
        spec = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name in ("trace", "faults"):
                value = [event.to_dict() for event in value]
            spec[field.name] = value
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_spec` output (round-trips
        exactly); unknown keys raise ``ValueError``, not a stack trace."""
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ValueError(
                f"unknown workload spec keys {unknown}; known keys are "
                f"{sorted(known)}"
            )
        data = dict(spec)
        if "trace" in data:
            data["trace"] = tuple(data["trace"])
        if "faults" in data:
            data["faults"] = tuple(data["faults"])
        return cls(**data)

    # -- materialization ----------------------------------------------------

    def events(self) -> Tuple[ChurnEvent, ...]:
        """The churn stream this spec describes (same spec ⇒ identical
        stream, event for event)."""
        if self.arrival == "poisson":
            return poisson_stream(
                self.groups, self.group_size, self.rate_hz, self.duration_ms,
                self.seed, min_members=self.min_members,
                max_members=self.max_members,
            )
        if self.arrival == "flash":
            return flash_stream(
                self.groups, self.group_size, self.rate_hz, self.duration_ms,
                self.seed, min_members=self.min_members,
                max_members=self.max_members,
                burst_at_ms=self.burst_at_ms, burst_joins=self.burst_joins,
            )
        if self.arrival == "diurnal":
            return diurnal_stream(
                self.groups, self.group_size, self.rate_hz, self.duration_ms,
                self.seed, min_members=self.min_members,
                max_members=self.max_members, period_ms=self.period_ms,
            )
        return self.trace  # already validated and time-ordered

    def fault_schedule(self) -> FaultSchedule:
        """The composed fault schedule (empty when no faults are given)."""
        return FaultSchedule(self.faults)
