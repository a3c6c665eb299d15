"""Measurement of single membership events on the full simulated stack.

Reproduces the paper's experimental procedure (§6): members are uniformly
distributed over the testbed machines, the group is grown by sequential
joins, and the reported number is the *total elapsed time* from the
membership event to the moment the last member is notified of the new key
— averaged over several events, with the per-protocol conventions the
paper describes in §6.1.2 (CKD's controller-leave weighting, STR's
middle-member leave, TGDH measured on the tree its own heuristic builds).

An experiment cell is described by an :class:`ExperimentSpec` and run with
:func:`run_experiment`.  The procedure itself — growth, the measured
event, the size-restoring undo — lives in
:class:`repro.core.driver.GroupDriver`; this module is the spec, the
averaging and the serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence, Union

from repro.core.driver import GroupDriver, Sample
from repro.core.framework import SecureSpreadFramework
from repro.crypto.engine import CryptoEngine
from repro.gcs.topology import Topology, resolve_testbed


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that defines one experiment cell.

    ``topology`` is a testbed name (``"lan"``, ``"wan"``,
    ``"medium-wan"``) or a zero-argument factory returning a
    :class:`~repro.gcs.topology.Topology`.  ``engine`` is a crypto engine
    spec (``None``/``"real"``/``"symbolic"``/``"real:<backend>"`` or an
    instance, see :func:`repro.crypto.engine.get_engine`).
    """

    protocol: str
    event: str
    group_size: int
    dh_group: str = "dh-512"
    topology: Union[str, Callable[[], Topology]] = "lan"
    repeats: int = 2
    seed: int = 0
    breakdown: bool = False
    engine: Union[None, str, CryptoEngine] = None

    def __post_init__(self):
        if self.event not in ("join", "leave"):
            raise ValueError("event must be 'join' or 'leave'")
        if self.group_size < 1:
            raise ValueError("group_size must be at least 1")
        if self.event == "leave" and self.group_size < 2:
            raise ValueError(
                "a leave needs group_size of at least 2 (the last member's "
                "leave empties the group)"
            )
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if isinstance(self.topology, str):
            resolve_testbed(self.topology)  # an unknown name fails here

    def build_framework(self, observe: Optional[bool] = None) -> SecureSpreadFramework:
        """A fresh framework configured for this cell."""
        return SecureSpreadFramework(
            resolve_testbed(self.topology),
            default_protocol=self.protocol,
            dh_group=self.dh_group,
            seed=self.seed,
            observe=self.breakdown if observe is None else observe,
            engine=self.engine,
        )


@dataclass
class EventMeasurement:
    """Averaged timings for one experiment cell.

    ``communication_ms`` and ``computation_ms`` are the span-based phase
    attribution (averaged like the totals); they are ``None`` unless the
    measurement ran with ``breakdown=True``.  When present,
    ``membership_ms + communication_ms + computation_ms == total_ms``
    (each sample reconciles exactly; averaging preserves the identity).

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

    @property
    def key_agreement_ms(self) -> float:
        return self.total_ms - self.membership_ms

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


def _mean(values) -> Optional[float]:
    return sum(values) / len(values) if None not in values else None


def averaged(
    spec: ExperimentSpec,
    framework: SecureSpreadFramework,
    event: str,
    group_size: int,
    samples: Sequence[Sample],
    ops: Optional[dict] = None,
) -> EventMeasurement:
    """One cell's :class:`EventMeasurement`: ``samples`` averaged."""
    return EventMeasurement(
        protocol=spec.protocol,
        event=event,
        group_size=group_size,
        dh_group=spec.dh_group,
        topology=framework.world.topology.name,
        total_ms=_mean([s.total_ms for s in samples]),
        membership_ms=_mean([s.membership_ms for s in samples]),
        samples=len(samples),
        communication_ms=_mean([s.communication_ms for s in samples]),
        computation_ms=_mean([s.computation_ms for s in samples]),
        engine=framework.engine.name,
        ops=ops,
    )


def measure_settled(
    spec: ExperimentSpec, driver: GroupDriver, size: int
) -> EventMeasurement:
    """Grow the driver's group to ``size`` (sequential joins), then
    average ``spec.repeats`` samples of ``spec.event``, restoring the
    size between samples but not after the last."""
    driver.run(driver.grow(size))
    samples = []
    for index in range(spec.repeats):
        if index:
            driver.run(driver.restore())  # unmeasured
        samples.append(driver.run(driver.measured(spec.event)))
    return averaged(spec, driver.framework, spec.event, size, samples)


def run_experiment(spec: ExperimentSpec) -> EventMeasurement:
    """Average elapsed time for one :class:`ExperimentSpec` cell.

    Each repeat performs the event on a settled group of exactly
    ``spec.group_size`` members and restores the size for the next one.

    With ``breakdown=True`` the framework runs with observability enabled
    and the measurement also carries the averaged span-based
    communication/computation attribution (the paper's §6 decomposition).
    Observability is passive, so the timing numbers are identical either
    way.
    """
    driver = GroupDriver(spec.build_framework())
    return measure_settled(spec, driver, spec.group_size)
