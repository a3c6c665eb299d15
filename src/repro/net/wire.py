"""The length-prefixed wire protocol between NetClient and NetDaemon.

Every frame on the socket is::

    +----------------+--------+----------------------+
    | length (u32 BE)| type   | body (pickled dict)  |
    +----------------+--------+----------------------+
         4 bytes       1 byte    length - 1 bytes

``length`` counts the type byte plus the body.  The body is a plain
``dict`` serialized with :mod:`pickle`; application payloads travel
inside it as an opaque ``bytes`` field (the daemon routes them without
deserializing).  Pickle keeps the wire format faithful to what the
simulator passes by reference — arbitrary protocol-message objects —
at the cost of trusting the peer, which is the right trade for a
loopback/LAN measurement harness and documented as such.  Do not expose
a daemon to untrusted networks.

Frame sizes are bounded (:data:`MAX_FRAME_BYTES`) and validated on both
ends, so a corrupt or hostile length prefix fails fast with
:class:`WireError` instead of an unbounded allocation.

Two readers share one set of checks: :class:`FrameDecoder` is fed
whatever bytes a socket callback hands over (the daemon and the client
library), :func:`read_frame` awaits one frame from a stream (tests,
probes, raw-socket handshakes).
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from enum import IntEnum
from typing import Any, Dict, Iterator, Tuple

#: bump when the frame layout or the handshake changes incompatibly
WIRE_VERSION = 1

#: hard cap on one frame: the 140 KB payload limit plus generous envelope
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")


class WireError(Exception):
    """A malformed, oversized or out-of-protocol frame."""


class FrameType(IntEnum):
    """One byte on the wire, client->daemon unless noted."""

    #: first frame after connect: ``{"name", "version"}``
    HELLO = 1
    #: daemon->client handshake reply: ``{"config_id", "version"}``
    WELCOME = 2
    #: ``{"group"}``
    JOIN = 3
    #: ``{"group"}``
    LEAVE = 4
    #: ``{"group", "service", "target", "payload", "size_bytes", "kind"}``
    MULTICAST = 5
    #: daemon->client data delivery: MULTICAST fields + ``{"sender"}``
    DELIVER = 6
    #: daemon->client view installation: ``{"group", "view_id", "members",
    #: "event", "joined", "left"}``
    VIEW = 7
    #: heartbeat (either direction); body carries ``{"t"}`` for debugging
    PING = 8
    #: orderly goodbye (client->daemon); daemon treats it as disconnect
    BYE = 9
    #: daemon->client fatal protocol error: ``{"error"}``; connection closes
    ERROR = 10


_FRAME_TYPES = {int(ftype): ftype for ftype in FrameType}


def pack_frame(ftype: FrameType, body: Dict[str, Any]) -> bytes:
    """Serialize one frame, length prefix included."""
    blob = pickle.dumps(body, protocol=4)
    length = len(blob) + 1
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _LENGTH.pack(length) + bytes((int(ftype),)) + blob


def _frame_length(buffer: bytes, offset: int = 0) -> int:
    """The validated length prefix at ``buffer[offset:offset + 4]``."""
    (length,) = _LENGTH.unpack_from(buffer, offset)
    if not 1 <= length <= MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} out of bounds")
    return length


def _decode_frame(
    buffer: bytes, start: int, stop: int
) -> Tuple[FrameType, Dict[str, Any]]:
    """Decode the type byte and pickled dict body in ``buffer[start:stop]``."""
    ftype = _FRAME_TYPES.get(buffer[start])
    if ftype is None:
        raise WireError(f"unknown frame type {buffer[start]}")
    try:
        body = pickle.loads(buffer[start + 1 : stop])
    except Exception as error:  # pickle raises many concrete types
        raise WireError(f"undecodable {ftype.name} body: {error}") from error
    if not isinstance(body, dict):
        raise WireError(f"{ftype.name} body must be a dict, got {type(body)}")
    return ftype, body


async def read_frame(
    reader: asyncio.StreamReader,
) -> Tuple[FrameType, Dict[str, Any]]:
    """Read one frame; raises :class:`WireError` on malformed input and
    :class:`asyncio.IncompleteReadError` on EOF mid-frame.

    The streams-API reader, for tests, probes and raw-socket handshakes;
    the daemon and the client library decode with :class:`FrameDecoder`.
    """
    length = _frame_length(await reader.readexactly(4))
    return _decode_frame(await reader.readexactly(length), 0, length)


class FrameDecoder:
    """Incremental decoder for one connection's inbound byte stream.

    ``feed(data)`` yields every frame that ``data`` completes, in order,
    and keeps a truncated tail for the next call; the frame checks are
    :func:`read_frame`'s.  It is a generator so that the frames ahead of
    a malformed one are still handled before :class:`WireError` surfaces:
    iterate it to the end (or abandon the connection).
    """

    def __init__(self) -> None:
        self._tail = b""

    def feed(self, data: bytes) -> Iterator[Tuple[FrameType, Dict[str, Any]]]:
        if self._tail:
            data = self._tail + data
        offset, end = 0, len(data)
        try:
            while end - offset >= 4:
                stop = offset + 4 + _frame_length(data, offset)
                if stop > end:
                    break
                yield _decode_frame(data, offset + 4, stop)
                offset = stop
        finally:
            self._tail = data[offset:]


def encode_payload(payload: Any) -> bytes:
    """Serialize an application payload for transit (opaque to the daemon)."""
    return pickle.dumps(payload, protocol=4)


def decode_payload(blob: bytes) -> Any:
    """Inverse of :func:`encode_payload` (trusted peers only; see module
    docstring)."""
    return pickle.loads(blob)
