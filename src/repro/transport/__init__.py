"""``repro.transport`` — the substrate seam of the Secure Spread stack.

A *transport* is everything below :class:`repro.core.secure_group.
SecureGroupMember`: it hands out group channels (join/leave/multicast
with Spread's service levels, message and view callbacks), a scheduler
(the clock timers run against) and per-process CPU accounting.  Two
implementations exist:

* :class:`repro.gcs.world.GcsWorld` — the discrete-event simulator:
  virtual time, a modelled CPU per machine, deterministic fault
  injection and causal tracing on top of the interface.
* :class:`repro.net.runner.AsyncioTransport` — a real Spread-like
  daemon over localhost/LAN TCP sockets: wall-clock time, real CPU,
  no fault injection (the network is the fault injector).

The five key agreement protocols, :class:`~repro.core.secure_group.
SecureGroupMember` and :class:`~repro.core.framework.
SecureSpreadFramework` are written against this interface only, so a
secure group runs unchanged on either substrate.
"""

from repro.transport.base import (
    CAP_VIRTUAL_TIME,
    MAX_GROUP_NAME_BYTES,
    MAX_MEMBER_NAME_BYTES,
    MAX_PAYLOAD_BYTES,
    GroupChannel,
    Scheduler,
    Transport,
    validate_group_name,
    validate_member_name,
    validate_payload_size,
)

__all__ = [
    "CAP_VIRTUAL_TIME",
    "GroupChannel",
    "MAX_GROUP_NAME_BYTES",
    "MAX_MEMBER_NAME_BYTES",
    "MAX_PAYLOAD_BYTES",
    "Scheduler",
    "Transport",
    "validate_group_name",
    "validate_member_name",
    "validate_payload_size",
]
