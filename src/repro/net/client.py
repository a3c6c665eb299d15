"""The live client library: SpreadClient's surface over a TCP socket.

:class:`NetClient` connects to a :class:`~repro.net.daemon.NetDaemon`
and exposes the same API the simulated
:class:`~repro.gcs.client.SpreadClient` offers — synchronous
``join``/``leave``/``multicast``/``disconnect`` plus
``on_message``/``on_view`` listener callbacks receiving ``(client,
item)`` — so :class:`~repro.core.secure_group.SecureGroupMember` drives
it unchanged.  The client is an :class:`asyncio.Protocol`: the
synchronous calls write their frame straight to the socket's transport,
``data_received`` turns inbound bytes back into
:class:`~repro.gcs.messages.GroupMessage` / :class:`~repro.gcs.messages.
View` objects as they arrive, and a heartbeat timer keeps the daemon's
failure detector quiet.  All callbacks run on the event loop thread,
exactly as the simulator runs them on the simulation "thread".
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, List, Optional

from repro.gcs.messages import GroupMessage, Service, View, ViewEvent
from repro.net.wire import (
    WIRE_VERSION,
    FrameDecoder,
    FrameType,
    WireError,
    decode_payload,
    encode_payload,
    pack_frame,
)
from repro.transport.base import (
    validate_group_name,
    validate_member_name,
    validate_payload_size,
)

#: how often a quiet client proves liveness to the daemon
DEFAULT_HEARTBEAT_INTERVAL_S = 2.0


class NetClient(asyncio.Protocol):
    """One live client process connected to a daemon over TCP.

    :attr:`received` and :attr:`views` are the mailboxes of a channel
    nobody listens to: deliveries accumulate there only while
    ``on_message`` is unset, views only while ``on_view`` is.
    """

    def __init__(
        self,
        name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ) -> None:
        self.name = validate_member_name(name)
        self.host = host
        self.port = port
        self.heartbeat_interval_s = heartbeat_interval_s
        self.on_message: Optional[Callable[["NetClient", GroupMessage], None]] = None
        self.on_view: Optional[Callable[["NetClient", View], None]] = None
        self.received: List[GroupMessage] = []
        self.views: List[View] = []
        self.connected = False
        self.config_id = None
        self.error: Optional[str] = None
        self._transport: Optional[asyncio.Transport] = None
        self._decoder = FrameDecoder()
        #: pending while ``connect`` awaits the daemon's reply to HELLO
        self._handshake: Optional[asyncio.Future] = None
        self._lost: Optional[asyncio.Future] = None
        self._heartbeat: Optional[asyncio.TimerHandle] = None

    # -- lifecycle ---------------------------------------------------------

    async def connect(self) -> None:
        """Open the socket and complete the HELLO/WELCOME handshake."""
        if self.connected:
            raise RuntimeError(f"client {self.name!r} is already connected")
        loop = asyncio.get_running_loop()
        self._handshake = handshake = loop.create_future()
        self._lost = loop.create_future()
        try:
            await loop.create_connection(lambda: self, self.host, self.port)
            await handshake
        finally:
            self._handshake = None
        self._heartbeat = loop.call_later(self.heartbeat_interval_s, self._beat)

    async def aclose(self) -> None:
        """Tear down the heartbeat and the socket (idempotent)."""
        self.connected = False
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            self._heartbeat = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None
            await self._lost

    # -- membership (synchronous GroupChannel surface) ---------------------

    def join(self, group: str) -> None:
        """Join a group; the view arrives via ``on_view``."""
        self._require_connected()
        validate_group_name(group)
        self._send(FrameType.JOIN, {"group": group})

    def leave(self, group: str) -> None:
        """Leave a group; the final view arrives via ``on_view``."""
        self._require_connected()
        validate_group_name(group)
        self._send(FrameType.LEAVE, {"group": group})

    def disconnect(self) -> None:
        """Orderly goodbye: the daemon converts it to leaves everywhere."""
        self._send(FrameType.BYE, {})
        self.connected = False

    # -- messaging ---------------------------------------------------------

    def multicast(
        self,
        group: str,
        payload: Any,
        service: Service = Service.AGREED,
        size_bytes: int = 64,
        target: Optional[str] = None,
    ) -> None:
        """Send to a group (or, with ``target``, to one member of it)."""
        self._require_connected()
        validate_group_name(group)
        validate_payload_size(size_bytes)
        if target is not None:
            validate_member_name(target)
        self._send(
            FrameType.MULTICAST,
            {
                "group": group,
                "service": service.value,
                "target": target,
                "payload": encode_payload(payload),
                "size_bytes": size_bytes,
                "kind": "data",
            },
        )

    # -- asyncio.Protocol callbacks ----------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        transport.write(
            pack_frame(
                FrameType.HELLO, {"name": self.name, "version": WIRE_VERSION}
            )
        )

    def data_received(self, data: bytes) -> None:
        try:
            for ftype, body in self._decoder.feed(data):
                if ftype is FrameType.ERROR:
                    self._drop(body.get("error"))
                    return
                if self._handshake is not None:
                    if ftype is not FrameType.WELCOME:
                        raise WireError(f"expected WELCOME, got {ftype.name}")
                    self.config_id = body.get("config_id")
                    self.connected = True
                    self._handshake.set_result(None)
                    self._handshake = None
                elif ftype is FrameType.DELIVER:
                    self._on_deliver(body)
                elif ftype is FrameType.VIEW:
                    self._on_view_frame(body)
                elif ftype is not FrameType.PING:
                    raise WireError(f"unexpected {ftype.name} from daemon")
        except WireError as error:
            self._drop(str(error))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.connected = False  # the daemon went away, or we hung up
        if self._handshake is not None:
            self._drop("connection closed during the handshake")
        self._lost.set_result(None)

    def _drop(self, error: Optional[str]) -> None:
        """The daemon refused us or broke protocol: record why and hang
        up; a ``connect`` still waiting raises :class:`ConnectionError`."""
        self.error = error
        self.connected = False
        self._transport.close()
        if self._handshake is not None:
            self._handshake.set_exception(
                ConnectionError(f"daemon rejected {self.name!r}: {error}")
            )
            self._handshake = None

    def _beat(self) -> None:
        if not self.connected:
            return
        loop = asyncio.get_running_loop()
        self._send(FrameType.PING, {"t": loop.time()})
        self._heartbeat = loop.call_later(self.heartbeat_interval_s, self._beat)

    # -- delivery ----------------------------------------------------------

    def _on_deliver(self, body: dict) -> None:
        message = GroupMessage(
            group=body["group"],
            sender=body["sender"],
            payload=decode_payload(body["payload"]),
            service=Service(body["service"]),
            kind=body.get("kind", "data"),
            size_bytes=body.get("size_bytes", 0),
            target=body.get("target"),
        )
        if self.on_message is None:
            self.received.append(message)
        else:
            self.on_message(self, message)

    def _on_view_frame(self, body: dict) -> None:
        view = View(
            view_id=body["view_id"],
            group=body["group"],
            members=tuple(body["members"]),
            event=ViewEvent(body["event"]),
            joined=tuple(body.get("joined", ())),
            left=tuple(body.get("left", ())),
        )
        if self.on_view is None:
            self.views.append(view)
        else:
            self.on_view(self, view)

    # -- internals ---------------------------------------------------------

    def _send(self, ftype: FrameType, body: dict) -> None:
        self._require_connected()
        self._transport.write(pack_frame(ftype, body))

    def _require_connected(self) -> None:
        if not self.connected:
            raise RuntimeError(f"client {self.name!r} is disconnected")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetClient({self.name!r} @ {self.host}:{self.port})"
