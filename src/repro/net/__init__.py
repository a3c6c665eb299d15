"""``repro.net`` — a real Spread-like daemon/client over TCP sockets.

The asyncio implementation of the :mod:`repro.transport` interface: a
:class:`~repro.net.daemon.NetDaemon` process speaks a length-prefixed
wire protocol (connection handshake, join/leave/multicast services,
view installation mirroring :mod:`repro.gcs.messages` semantics, and
heartbeat-based failure suspicion), and :class:`~repro.net.client.
NetClient` is the client library with the same listener-callback surface
as the simulated :class:`~repro.gcs.client.SpreadClient`.

:class:`~repro.net.runner.AsyncioTransport` adapts the pair to the
:class:`~repro.transport.Transport` interface so
:class:`~repro.core.framework.SecureSpreadFramework` and the five key
agreement protocols run over it unchanged;
:meth:`~repro.core.driver.GroupDriver.arun` drives a group over it, and
``bench live`` (:mod:`repro.bench.live`) does so on localhost for its
wall-clock measurements.
"""

from repro.net.client import NetClient
from repro.net.daemon import NetDaemon
from repro.net.runner import AsyncioTransport
from repro.net.wire import WIRE_VERSION, FrameType, WireError

__all__ = [
    "AsyncioTransport",
    "FrameType",
    "NetClient",
    "NetDaemon",
    "WIRE_VERSION",
    "WireError",
]
