"""Measurement of single membership events on the full simulated stack.

Reproduces the paper's experimental procedure (§6): members are uniformly
distributed over the testbed machines, the group is grown by sequential
joins, and the reported number is the *total elapsed time* from the
membership event to the moment the last member is notified of the new key
— averaged over several events, with the per-protocol conventions the
paper describes in §6.1.2 (CKD's controller-leave weighting, STR's
middle-member leave, TGDH measured on the tree its own heuristic builds).

The procedure itself — growth, the measured event, the size-restoring
undo — lives in :class:`repro.core.driver.GroupDriver`, and the cells
that run it are the registered sweeps (:func:`~repro.bench.series.
run_figure_cell`, :func:`~repro.bench.scale.run_scale_cell`, run through
:func:`~repro.bench.pool.run_sweep`).  This module is the size rule every
measurement obeys, the averaging and the serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

from repro.core.driver import GroupDriver, Sample


def check_sizes(event: str, sizes: Iterable[int], repeats: int = 1) -> None:
    """The size rule, checked for every size before any group grows:
    ``event`` is a join or a leave, ``repeats`` ≥ 1, every size ≥ 1, and
    ≥ 2 before a leave (the last member's leave empties the group, which
    then has no epoch of its own to report)."""
    if event not in ("join", "leave"):
        raise ValueError(f"event must be 'join' or 'leave', got {event!r}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    for size in sizes:
        if size < 1:
            raise ValueError(f"group_size must be at least 1, got {size}")
        if event == "leave" and size < 2:
            raise ValueError(
                "a leave needs group_size of at least 2 (the last member's "
                f"leave empties the group), got {size}"
            )


@dataclass
class EventMeasurement:
    """Averaged timings for one experiment cell.

    ``communication_ms`` and ``computation_ms`` are always ``None``: the
    span-based phase attribution is read per epoch by ``bench report``
    (:mod:`repro.obs.report`), never averaged into a cell.  The keys stay
    in every serialized measurement because the committed baselines hold
    them, and ``bench compare`` would read their absence as drift.

    ``ops`` optionally carries the summed operation-ledger charges of
    the measured event(s) — exponentiations, multiplications, signatures,
    verifications across all members, totalled over the samples.  The
    counts are exact integers (never averaged) so regression gating can
    compare them bit-for-bit; the scale benchmark fills them in.
    """

    protocol: str
    event: str
    group_size: int
    dh_group: str
    topology: str
    total_ms: float
    membership_ms: float
    samples: int
    communication_ms: Optional[float] = None
    computation_ms: Optional[float] = None
    engine: str = "real"
    ops: Optional[dict] = None

    def to_dict(self) -> dict:
        """A JSON-ready dict — the single serialization for all outputs."""
        return {
            field.name: getattr(self, field.name)
            for field in fields(self)
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EventMeasurement":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        known = {field.name for field in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


def averaged(
    driver: GroupDriver,
    event: str,
    group_size: int,
    samples: Sequence[Sample],
    ops: Optional[dict] = None,
) -> EventMeasurement:
    """One cell's :class:`EventMeasurement`: ``samples`` of the driver's
    group averaged."""
    framework = driver.framework
    return EventMeasurement(
        protocol=driver.protocol,
        event=event,
        group_size=group_size,
        dh_group=framework.group.name,
        topology=framework.world.topology.name,
        total_ms=sum(s.total_ms for s in samples) / len(samples),
        membership_ms=sum(s.membership_ms for s in samples) / len(samples),
        samples=len(samples),
        engine=framework.engine.name,
        ops=ops,
    )
