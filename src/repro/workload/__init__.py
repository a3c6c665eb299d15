"""Sustained-traffic workload engine: seeded churn over many groups.

The paper measures isolated join/leave events; its own conclusion — that
protocol choice depends on group dynamics — only becomes testable under
*sustained* membership turnover.  This package provides that scenario
surface:

* :mod:`repro.workload.arrivals` — deterministic arrival-process
  generators (Poisson steady state, flash crowd, diurnal cycle, trace
  replay) emitting streams of :class:`~repro.workload.arrivals.ChurnEvent`.
* :mod:`repro.workload.spec` — :class:`~repro.workload.spec.WorkloadSpec`,
  the serializable description of one sustained run (``to_spec`` /
  ``from_spec`` round-trip exactly, mirroring
  :class:`~repro.faults.FaultSchedule`), composing a fault schedule for
  partitions mid-churn.
* :mod:`repro.workload.engine` — the multi-group driver multiplexing
  every group over the shared simulated testbed and reporting
  percentile-grade rekey latency, member-epochs/s throughput, and
  time-to-converge after the last injection.

Everything is seeded and runs on the deterministic simulator: the same
spec produces bit-identical results at any parallelism, which is what
lets ``repro.bench load`` cache and exact-gate its sweeps.
"""

from repro.workload.arrivals import (
    ARRIVALS,
    ChurnEvent,
    diurnal_stream,
    flash_stream,
    poisson_stream,
    trace_stream,
)
from repro.workload.engine import WorkloadEngine, WorkloadResult
from repro.workload.spec import WorkloadSpec

__all__ = [
    "ARRIVALS",
    "ChurnEvent",
    "WorkloadSpec",
    "WorkloadEngine",
    "WorkloadResult",
    "poisson_stream",
    "flash_stream",
    "diurnal_stream",
    "trace_stream",
]
