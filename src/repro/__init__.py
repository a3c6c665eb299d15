"""Reproduction of *On the Performance of Group Key Agreement Protocols*
(Amir, Kim, Nita-Rotaru, Tsudik — ICDCS 2002).

The package implements the full Secure Spread stack described in the paper:

* :mod:`repro.crypto` — cryptographic substrate (Schnorr groups, DH, RSA
  signatures, KDF) with per-operation accounting and a calibrated cost model.
* :mod:`repro.sim` — deterministic discrete-event simulation engine with a
  multi-core CPU contention model.
* :mod:`repro.gcs` — a Spread-like group communication system: token-ring
  Agreed (total-order) multicast, view-synchronous membership, partitions
  and merges, on simulated LAN/WAN testbeds.
* :mod:`repro.protocols` — the five group key agreement protocols evaluated
  by the paper: GDH (Cliques IKA.3), CKD, BD, TGDH and STR.
* :mod:`repro.core` — the Secure Spread framework tying the protocols to the
  group communication system, with group-data encryption.
* :mod:`repro.transport` — the substrate seam: the
  :class:`~repro.transport.Transport` / :class:`~repro.transport.GroupChannel`
  interface both backends implement.
* :mod:`repro.net` — the live backend: an asyncio daemon/client speaking a
  length-prefixed wire protocol over real TCP sockets.
* :mod:`repro.faults` — deterministic, seeded fault injection (link
  faults, daemon crashes, timed scenario schedules).
* :mod:`repro.analysis` — the paper's conceptual cost model (Table 1).
* :mod:`repro.workload` — seeded arrival processes and the multi-group
  churn engine driving sustained join/leave traffic.
* :mod:`repro.bench` — the experiment harness regenerating the paper's
  tables and figures.

The stable public surface is re-exported here; everything else is
internal and may move between releases::

    from repro import SecureSpreadFramework, ExperimentSpec, run_experiment

    spec = ExperimentSpec(protocol="TGDH", event="join", group_size=16)
    print(run_experiment(spec).total_ms)
"""

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.core.framework import SecureSpreadFramework
from repro.crypto.engine import RealEngine, SymbolicEngine, get_engine
from repro.faults import FaultSchedule, LinkFaults, LinkPolicy
from repro.net import AsyncioTransport, NetClient, NetDaemon
from repro.protocols import available, get_protocol, register
from repro.transport import GroupChannel, Transport
from repro.version import __version__
from repro.workload import WorkloadResult, WorkloadSpec, run_workload

__all__ = [
    "AsyncioTransport",
    "ExperimentSpec",
    "FaultSchedule",
    "GroupChannel",
    "LinkFaults",
    "LinkPolicy",
    "NetClient",
    "NetDaemon",
    "RealEngine",
    "SecureSpreadFramework",
    "SymbolicEngine",
    "Transport",
    "WorkloadResult",
    "WorkloadSpec",
    "available",
    "get_engine",
    "get_protocol",
    "register",
    "run_experiment",
    "run_workload",
    "__version__",
]
