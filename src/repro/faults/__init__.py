"""``repro.faults`` — deterministic, seeded fault injection.

The paper's evaluation presumes an *unreliable* network — §5 models
partitions, merges, crashes, and cascaded membership events interrupting
a rekey — but only argues qualitatively about them.  This package makes
those conditions first-class and reproducible:

* :class:`LinkPolicy` / :class:`LinkFaults` — per-link drop / delay /
  duplicate / reorder policies installed on the simulated network
  (:meth:`repro.gcs.world.GcsWorld.install_link_faults`), drawing all
  randomness from one seeded stream;
* daemon **crash / crash-restart** primitives live on
  :class:`~repro.gcs.world.GcsWorld` (``crash_daemon`` /
  ``restart_daemon``) and trigger real configuration changes;
* :class:`FaultSchedule` — a timed scenario script (partition storms,
  crashes, link policies) replayable from a plain spec dict — faults only:
  membership churn goes through the group driver and the workload
  engine;
* together with the rekey stall watchdog in
  :mod:`repro.core.secure_group`, faulty runs still converge to a
  confirmed shared key — the recovery discipline Secure Spread's
  references prescribe.

Everything is deterministic: same seed + same schedule ⇒ bit-identical
trace and benchmark output.
"""

from repro.faults.link import NO_FAULTS, FaultVerdict, LinkFaults, LinkPolicy
from repro.faults.schedule import (
    ACTIONS,
    FaultEvent,
    FaultSchedule,
    partition_storm,
)

__all__ = [
    "ACTIONS",
    "FaultEvent",
    "FaultSchedule",
    "FaultVerdict",
    "LinkFaults",
    "LinkPolicy",
    "NO_FAULTS",
    "partition_storm",
]
