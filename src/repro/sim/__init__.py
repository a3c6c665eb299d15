"""Deterministic discrete-event simulation engine.

Provides the virtual clock and event loop everything else runs on
(:mod:`repro.sim.engine`) and a multi-core CPU contention model that
reproduces the paper's dual-processor testbed machines (:mod:`repro.sim.cpu`).
"""

from repro.sim.cpu import Machine
from repro.sim.engine import Event, Simulator

__all__ = ["Event", "Simulator", "Machine"]
