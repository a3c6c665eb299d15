"""The live Spread-like daemon: one process, many TCP clients, total order.

A :class:`NetDaemon` accepts client connections on a TCP socket and
provides the transport contract over the wire protocol of
:mod:`repro.net.wire`:

* **handshake** — the first frame must be HELLO naming the client; the
  daemon validates the name (same boundary rules as the simulator) and
  rejects duplicates with an ERROR frame before any group state changes;
* **join/leave/multicast services** — membership events and Agreed
  multicasts consume slots of one global sequence.  Each connection is
  an :class:`asyncio.Protocol` whose ``data_received`` parses and routes
  every complete frame synchronously: there is no await (no other
  callback can run) between taking a sequence slot and appending the
  frame to every recipient's batch, and a batch reaches its socket in
  append order, so all members observe the same total order — exactly
  the guarantee the simulator's token ring provides;
* **one write per recipient per loop turn** — frames routed to a session
  in one turn of the event loop leave as a single ``transport.write``;
  the socket's own write buffer is the only outbound queue, so memory
  follows what is in flight;
* **slow consumers are evicted** — a session whose unsent bytes pass
  :data:`SLOW_CONSUMER_BYTES` is aborted and counted in
  :attr:`NetDaemon.evicted`; the rest of its groups see ordinary LEAVE
  views, which the key agreement layer already handles;
* **view installation** — every membership change broadcasts a
  :class:`~repro.gcs.messages.View` (join-age member ordering, the same
  ``(config_id, seq)`` view ids) to all members plus the leaver;
* **failure suspicion** — clients heartbeat with PING frames; a sweeper
  drops any connection silent past the suspicion timeout — a client
  (converting the suspected crash into leaves, the single-daemon
  analogue of Spread's failure detector turning a member crash into a
  leave, §5) or a socket that never completed its HELLO.

Run standalone with ``python -m repro.net.daemon [--port N]``; it prints
``LISTENING <port>`` once bound so a parent process can scrape the port.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
from typing import Dict, List, Optional, Sequence, Set

from repro.gcs.messages import Service
from repro.net.views import MembershipTable
from repro.net.wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    FrameDecoder,
    FrameType,
    WireError,
    pack_frame,
)
from repro.transport.base import (
    validate_group_name,
    validate_member_name,
    validate_payload_size,
)

#: default client-silence window before the daemon suspects a crash
DEFAULT_HEARTBEAT_TIMEOUT_S = 15.0

#: the slow-consumer bound: a session whose unsent bytes pass this is
#: evicted (its socket's write buffer is the only outbound queue there is)
SLOW_CONSUMER_BYTES = 4 * MAX_FRAME_BYTES


class _Session(asyncio.Protocol):
    """One client connection: inbound frames are parsed and routed as the
    bytes arrive, outbound ones are batched into one write per loop turn."""

    def __init__(self, daemon: "NetDaemon") -> None:
        self.daemon = daemon
        #: set by a valid HELLO; ``None`` while the handshake is outstanding
        self.name: Optional[str] = None
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = FrameDecoder()
        self.batch: List[bytes] = []
        self.last_seen = 0.0
        self.closed = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        transport.set_write_buffer_limits(high=SLOW_CONSUMER_BYTES)
        self.last_seen = self.daemon._loop.time()
        self.daemon._connections.add(self)

    def data_received(self, data: bytes) -> None:
        daemon = self.daemon
        now = daemon._loop.time()
        try:
            for ftype, body in self.decoder.feed(data):
                self.last_seen = now
                if self.name is None:
                    daemon._on_hello(self, ftype, body)
                elif ftype is FrameType.MULTICAST:
                    daemon._on_multicast(self, body)
                elif ftype is FrameType.JOIN:
                    daemon._on_join(self, body)
                elif ftype is FrameType.LEAVE:
                    daemon._on_leave(self, body)
                elif ftype is FrameType.PING:
                    pass  # liveness already refreshed above
                elif ftype is FrameType.BYE:
                    daemon._close_session(self)
                    return
                else:
                    raise WireError(f"unexpected {ftype.name} after handshake")
        except (WireError, ValueError) as error:
            self.send(pack_frame(FrameType.ERROR, {"error": str(error)}))
            daemon._close_session(self)

    def send(self, frame: bytes) -> None:
        """Add a frame to this loop turn's write."""
        if self.closed:
            return
        if not self.batch:
            self.daemon._flush_soon(self)
        self.batch.append(frame)

    def flush(self) -> None:
        if self.batch:
            self.transport.write(b"".join(self.batch))
            self.batch.clear()

    def pause_writing(self) -> None:
        # The write buffer passed SLOW_CONSUMER_BYTES: the peer is not
        # reading.  Evict it rather than queue for it without limit.
        self.daemon.evicted += 1
        self.daemon._close_session(self, abort=True)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.daemon._close_session(self, abort=True)


class NetDaemon:
    """A single-configuration Spread-like daemon on a TCP endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.table = MembershipTable()
        self.sessions: Dict[str, _Session] = {}
        self.messages_routed = 0
        self.views_emitted = 0
        self.suspected = 0
        self.evicted = 0
        #: every open connection, handshaken (also in ``sessions``) or not
        self._connections: Set[_Session] = set()
        #: sessions holding a batch for the flush queued on the loop
        self._unflushed: List[_Session] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweeper: Optional[asyncio.Task] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("daemon is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> int:
        """Bind and start serving; returns the bound port."""
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Session(self), self.host, self._requested_port
        )
        self._sweeper = asyncio.ensure_future(self._sweep_heartbeats())
        return self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
            self._sweeper = None
        for session in list(self._connections):
            self._close_session(session)
            # whatever the socket did not take at once is dropped: a peer
            # that is not reading must not hold shutdown up
            session.transport.abort()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ----------------------------------------------

    def _on_hello(self, session: _Session, ftype: FrameType, body: dict) -> None:
        """Validate a connection's first frame; any failure raises, and
        the session is closed after an ERROR frame like any other."""
        if ftype is not FrameType.HELLO:
            raise WireError(f"first frame must be HELLO, got {ftype.name}")
        if body.get("version") != WIRE_VERSION:
            raise WireError(
                f"wire version mismatch: daemon speaks {WIRE_VERSION}, "
                f"client sent {body.get('version')!r}"
            )
        name = validate_member_name(body.get("name"))
        if name in self.sessions:
            raise WireError(f"client name {name!r} already in use")
        session.name = name
        self.sessions[name] = session
        session.send(
            pack_frame(
                FrameType.WELCOME,
                {"config_id": self.table.config_id, "version": WIRE_VERSION},
            )
        )

    def _flush_soon(self, session: _Session) -> None:
        if not self._unflushed:
            self._loop.call_soon(self._flush)
        self._unflushed.append(session)

    def _flush(self) -> None:
        """One write per session with frames pending, once per loop turn."""
        sessions, self._unflushed = self._unflushed, []
        for session in sessions:
            session.flush()

    def _close_session(self, session: _Session, abort: bool = False) -> None:
        """Forget a connection; the groups it was in see ordinary LEAVE
        views.  A graceful close first writes the pending batch (an ERROR
        frame, a leaver's last VIEW); ``abort`` drops whatever is unsent."""
        if not session.closed:
            session.closed = True
            self._connections.discard(session)
            if self.sessions.get(session.name) is session:
                del self.sessions[session.name]
                self._emit_views(self.table.disconnect(session.name))
        if abort:
            session.batch.clear()
            session.transport.abort()
        else:
            session.flush()
            session.transport.close()

    # -- membership --------------------------------------------------------

    def _on_join(self, session: _Session, body: dict) -> None:
        group = validate_group_name(body.get("group"))
        self._emit_views([self.table.join(group, session.name)])

    def _on_leave(self, session: _Session, body: dict) -> None:
        group = validate_group_name(body.get("group"))
        view = self.table.leave(group, session.name)
        self._emit_views([view], also_to=(session.name,))

    def _emit_views(self, views: List, also_to: Sequence[str] = ()) -> None:
        """Broadcast each view to its members plus ``also_to`` (the leaver
        still learns it is out, mirroring the simulator)."""
        for view in views:
            if view is None:
                continue
            self.views_emitted += 1
            frame = pack_frame(
                FrameType.VIEW,
                {
                    "group": view.group,
                    "view_id": view.view_id,
                    "members": view.members,
                    "event": view.event.value,
                    "joined": view.joined,
                    "left": view.left,
                },
            )
            wanted = set(view.members)
            wanted.update(view.left)
            wanted.update(also_to)
            for name in wanted:
                session = self.sessions.get(name)
                if session is not None:
                    session.send(frame)

    # -- data --------------------------------------------------------------

    def _on_multicast(self, session: _Session, body: dict) -> None:
        group = validate_group_name(body.get("group"))
        validate_payload_size(body.get("size_bytes", 0))
        service = Service(body.get("service", Service.AGREED.value))
        target = body.get("target")
        payload = body.get("payload", b"")
        if not isinstance(payload, bytes):
            raise WireError("multicast payload must be bytes on the wire")
        if service is Service.FIFO and target is None:
            raise WireError("FIFO messages require a target member")
        # Spread semantics: membership gates *receiving*, not sending — a
        # non-member may multicast into a group (the simulator allows the
        # same), so the sender is deliberately not checked here.
        members = self.table.members(group)
        # Consume one slot of the global order for Agreed traffic.  The
        # whole routing below is synchronous, so every recipient's batch
        # observes the same sequence — the total-order guarantee.
        if service is Service.AGREED:
            self.table.next_seq()
        self.messages_routed += 1
        frame = pack_frame(
            FrameType.DELIVER,
            {
                "group": group,
                "sender": session.name,
                "service": service.value,
                "target": target,
                "payload": payload,
                "size_bytes": body.get("size_bytes", 0),
                "kind": body.get("kind", "data"),
            },
        )
        if target is not None:
            if target in members:
                recipient = self.sessions.get(target)
                if recipient is not None:
                    recipient.send(frame)
            return
        for name in members:
            recipient = self.sessions.get(name)
            if recipient is not None:
                recipient.send(frame)

    # -- failure suspicion -------------------------------------------------

    async def _sweep_heartbeats(self) -> None:
        """Drop connections silent past the timeout: a client suspected
        crashed, or a socket that never completed its HELLO."""
        interval = max(self.heartbeat_timeout_s / 4.0, 0.05)
        while True:
            await asyncio.sleep(interval)
            now = self._loop.time()
            for session in list(self._connections):
                if now - session.last_seen > self.heartbeat_timeout_s:
                    if session.name is not None:
                        self.suspected += 1
                    self._close_session(session, abort=True)


async def _amain(args) -> int:
    daemon = NetDaemon(
        host=args.host,
        port=args.port,
        heartbeat_timeout_s=args.heartbeat_timeout,
    )
    port = await daemon.start()
    print(f"LISTENING {port}", flush=True)
    try:
        await daemon._server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - signal-driven
        pass
    finally:
        await daemon.stop()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.daemon",
        description="Run a live Spread-like group communication daemon "
        "(loopback/LAN benchmarking only; the wire trusts its peers).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free one and print it)",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=DEFAULT_HEARTBEAT_TIMEOUT_S,
        help="seconds of client silence before a suspected crash "
        f"(default {DEFAULT_HEARTBEAT_TIMEOUT_S:g})",
    )
    args = parser.parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
