"""Tests for the asyncio backend: wire framing, daemon state, live rekey.

The full secure-group loopback smokes are ``slow``-marked (they run the
real crypto engine against wall-clock time); the framing and handshake
tests are tier-1.
"""

import asyncio
import gc
import pickle
import socket
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.gcs.messages import ViewEvent
from repro.net.client import NetClient
from repro.net.daemon import SLOW_CONSUMER_BYTES, NetDaemon
from repro.net.runner import LiveGroupRunner, run_live
from repro.net.wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    FrameDecoder,
    FrameType,
    WireError,
    decode_payload,
    encode_payload,
    pack_frame,
    read_frame,
)


async def _until(condition, timeout_s=30.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.001)


class TestWire:
    def _roundtrip(self, ftype, body):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(pack_frame(ftype, body))
            reader.feed_eof()
            return await read_frame(reader)

        return asyncio.run(go())

    def test_frame_roundtrip(self):
        ftype, body = self._roundtrip(
            FrameType.MULTICAST, {"group": "g", "payload": b"x" * 100}
        )
        assert ftype is FrameType.MULTICAST
        assert body == {"group": "g", "payload": b"x" * 100}

    def test_payload_roundtrip_preserves_objects(self):
        payload = ("key-agreement", {"step": 1}, None, 0)
        assert decode_payload(encode_payload(payload)) == payload

    def test_oversized_frame_rejected_on_pack(self):
        with pytest.raises(WireError, match="cap"):
            pack_frame(FrameType.MULTICAST, {"blob": b"x" * MAX_FRAME_BYTES})

    def test_bad_length_prefix_rejected(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\xff\xff\xff\xff" + b"junk")
            reader.feed_eof()
            with pytest.raises(WireError, match="out of bounds"):
                await read_frame(reader)

        asyncio.run(go())

    def test_unknown_frame_type_rejected(self):
        async def go():
            reader = asyncio.StreamReader()
            blob = b"\x00\x00\x00\x02" + bytes((250,)) + b"x"
            reader.feed_data(blob)
            reader.feed_eof()
            with pytest.raises(WireError, match="unknown frame type"):
                await read_frame(reader)

        asyncio.run(go())


def _read_all(blob):
    """Every frame ``read_frame`` finds in ``blob`` (the reference)."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        frames = []
        while not reader.at_eof():
            frames.append(await read_frame(reader))
        return frames

    return asyncio.run(go())


def _raw_frame(type_byte, blob):
    """A frame with an arbitrary type byte and body, checks bypassed."""
    return struct.pack(">I", len(blob) + 1) + bytes((type_byte,)) + blob


_BODIES = st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.integers(), st.binary(max_size=300), st.text(max_size=20)),
    max_size=4,
)
_FRAMES = st.lists(st.tuples(st.sampled_from(FrameType), _BODIES), max_size=8)


class TestFrameDecoder:
    @given(frames=_FRAMES, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_yields_read_frames_frames(self, frames, data):
        blob = b"".join(pack_frame(ftype, body) for ftype, body in frames)
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(blob)), max_size=12))
        )
        decoder = FrameDecoder()
        decoded = []
        for start, stop in zip([0] + cuts, cuts + [len(blob)]):
            decoded.extend(decoder.feed(blob[start:stop]))
        assert decoded == frames == _read_all(blob)
        assert list(decoder.feed(b"")) == []

    def test_truncated_tail_waits_for_the_rest(self):
        frame = pack_frame(FrameType.JOIN, {"group": "g"})
        decoder = FrameDecoder()
        for cut in range(len(frame)):
            assert list(decoder.feed(frame[:cut])) == []
            assert list(decoder.feed(frame[cut:])) == [
                (FrameType.JOIN, {"group": "g"})
            ]

    @pytest.mark.parametrize(
        "bad, match",
        [
            (b"\xff\xff\xff\xff", "out of bounds"),
            (b"\x00\x00\x00\x00", "out of bounds"),
            (_raw_frame(250, b"x"), "unknown frame type"),
            (_raw_frame(FrameType.JOIN, b"x"), "undecodable JOIN"),
            (_raw_frame(FrameType.JOIN, pickle.dumps([7])), "must be a dict"),
        ],
    )
    def test_malformed_frame_raises_after_the_good_ones(self, bad, match):
        good = pack_frame(FrameType.PING, {"t": 1})
        frames = FrameDecoder().feed(good + bad)
        assert next(frames) == (FrameType.PING, {"t": 1})
        with pytest.raises(WireError, match=match):
            next(frames)


class TestHandshake:
    def _connect_raw(self, hello_frames):
        """Open a raw socket to an inline daemon, send frames, read one."""

        async def go():
            daemon = NetDaemon()
            port = await daemon.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                for frame in hello_frames:
                    writer.write(frame)
                await writer.drain()
                ftype, body = await asyncio.wait_for(read_frame(reader), timeout=5)
                writer.close()
                return ftype, body
            finally:
                await daemon.stop()

        return asyncio.run(go())

    def test_welcome_on_valid_hello(self):
        ftype, body = self._connect_raw(
            [pack_frame(FrameType.HELLO, {"name": "a", "version": WIRE_VERSION})]
        )
        assert ftype is FrameType.WELCOME
        assert body["config_id"] == (1, 0)

    def test_bad_name_rejected_with_error_frame(self):
        ftype, body = self._connect_raw(
            [pack_frame(FrameType.HELLO, {"name": "", "version": WIRE_VERSION})]
        )
        assert ftype is FrameType.ERROR
        assert "member name" in body["error"]

    def test_version_mismatch_rejected(self):
        ftype, body = self._connect_raw(
            [pack_frame(FrameType.HELLO, {"name": "a", "version": 99})]
        )
        assert ftype is FrameType.ERROR
        assert "version" in body["error"]

    def test_duplicate_name_rejected(self):
        async def go():
            daemon = NetDaemon()
            port = await daemon.start()
            try:
                first = NetClient("dup", port=port)
                await first.connect()
                second = NetClient("dup", port=port)
                with pytest.raises(ConnectionError, match="already in use"):
                    await second.connect()
                await first.aclose()
            finally:
                await daemon.stop()

        asyncio.run(go())

    def test_heartbeat_expiry_suspects_client(self):
        async def go():
            daemon = NetDaemon(heartbeat_timeout_s=0.2)
            port = await daemon.start()
            try:
                quiet = NetClient("quiet", port=port, heartbeat_interval_s=60)
                witness = NetClient("witness", port=port, heartbeat_interval_s=0.05)
                await quiet.connect()
                await witness.connect()
                quiet.join("g")
                witness.join("g")
                # With a 60 s heartbeat the quiet client is silent from
                # here on: a client writes only when it is called.
                deadline = asyncio.get_event_loop().time() + 5
                while "quiet" in daemon.sessions:
                    assert asyncio.get_event_loop().time() < deadline
                    await asyncio.sleep(0.05)
                assert daemon.suspected == 1
                await asyncio.sleep(0.1)
                assert witness.views[-1].members == ("witness",)
                await witness.aclose()
                await quiet.aclose()
            finally:
                await daemon.stop()

        asyncio.run(go())

    def test_connection_that_never_says_hello_is_swept(self):
        async def go():
            daemon = NetDaemon(heartbeat_timeout_s=0.2)
            port = await daemon.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                # The daemon hangs up on its own: EOF (or a reset), in time.
                with pytest.raises((asyncio.IncompleteReadError, ConnectionError)):
                    await asyncio.wait_for(read_frame(reader), timeout=5)
                assert not daemon._connections
                assert daemon.suspected == 0  # it never was a client
                writer.close()
            finally:
                await daemon.stop()

        asyncio.run(go())


class TestSessionClose:
    """What a closing session still owes its peer is written first."""

    def _exchange(self, frames, expect):
        """HELLO as ``raw`` on an inline daemon, send ``frames`` in one
        write, and return the ``expect`` frames read back plus whether
        EOF followed them."""

        async def go():
            daemon = NetDaemon()
            port = await daemon.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                hello = {"name": "raw", "version": WIRE_VERSION}
                writer.write(pack_frame(FrameType.HELLO, hello))
                ftype, _body = await asyncio.wait_for(read_frame(reader), 5)
                assert ftype is FrameType.WELCOME
                writer.write(b"".join(frames))
                got = [
                    await asyncio.wait_for(read_frame(reader), 5)
                    for _ in range(expect)
                ]
                rest = await asyncio.wait_for(reader.read(), 5)
                writer.close()
                assert "raw" not in daemon.sessions
                return got, rest == b""
            finally:
                await daemon.stop()

        return asyncio.run(go())

    def test_error_frame_precedes_the_close(self):
        got, eof = self._exchange(
            [pack_frame(FrameType.WELCOME, {})], expect=1
        )
        assert got[0][0] is FrameType.ERROR
        assert "unexpected WELCOME" in got[0][1]["error"]
        assert eof

    def test_leavers_final_view_precedes_the_close(self):
        got, eof = self._exchange(
            [
                pack_frame(FrameType.JOIN, {"group": "g"}),
                pack_frame(FrameType.LEAVE, {"group": "g"}),
                pack_frame(FrameType.BYE, {}),
            ],
            expect=2,
        )
        assert [ftype for ftype, _ in got] == [FrameType.VIEW, FrameType.VIEW]
        assert got[0][1]["members"] == ("raw",)
        assert got[1][1]["event"] == ViewEvent.LEAVE.value
        assert got[1][1]["left"] == ("raw",)
        assert eof


class TestClientAgainstABrokenDaemon:
    def _run(self, replies, scenario):
        """Run ``scenario(client)`` against a fake daemon that answers
        HELLO with ``replies`` and then waits for the client to hang up;
        returns what reached the loop's exception handler."""

        async def go():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: unhandled.append(context)
            )
            hung_up = asyncio.Event()

            async def fake_daemon(reader, writer):
                await read_frame(reader)  # HELLO
                writer.write(b"".join(replies))
                await reader.read()
                writer.close()
                await writer.wait_closed()
                hung_up.set()

            server = await asyncio.start_server(fake_daemon, "127.0.0.1", 0)
            client = NetClient("c", port=server.sockets[0].getsockname()[1])
            try:
                await scenario(client)
                await client.aclose()  # must not raise
                await asyncio.wait_for(hung_up.wait(), 5)
            finally:
                server.close()
                await server.wait_closed()
            return unhandled

        return asyncio.run(go())

    def test_out_of_protocol_frame_drops_the_connection_cleanly(self):
        async def scenario(client):
            await client.connect()
            await _until(lambda: not client.connected, timeout_s=5)
            assert "unexpected JOIN" in client.error
            with pytest.raises(RuntimeError, match="disconnected"):
                client.join("g")

        replies = [
            pack_frame(FrameType.WELCOME, {"config_id": (1, 0)}),
            pack_frame(FrameType.JOIN, {"group": "g"}),
        ]
        assert self._run(replies, scenario) == []

    def test_garbage_instead_of_welcome_fails_connect(self):
        async def scenario(client):
            with pytest.raises(ConnectionError, match="expected WELCOME"):
                await client.connect()
            assert not client.connected

        assert self._run([pack_frame(FrameType.VIEW, {})], scenario) == []


class TestRunnerValidation:
    def test_size_bounds(self):
        with pytest.raises(ValueError, match="at least 2"):
            LiveGroupRunner(size=1)

    def test_daemon_mode_validated(self):
        with pytest.raises(ValueError, match="spawn.*inline|inline.*spawn"):
            LiveGroupRunner(daemon_mode="carrier-pigeon")


@pytest.mark.slow
class TestDaemonMemory:
    """The live path holds what is in flight, not what has passed."""

    def _run(self, size, on_message, scenario):
        """``scenario(daemon, clients)`` on an inline daemon with ``size``
        clients in group "g", all listening with ``on_message``."""

        async def go():
            daemon = NetDaemon()
            port = await daemon.start()
            clients = [NetClient(f"c{i}", port=port) for i in range(size)]
            try:
                for client in clients:
                    await client.connect()
                    client.on_message = on_message
                    client.join("g")
                await _until(
                    lambda: all(
                        c.views and len(c.views[-1].members) == size
                        for c in clients
                    )
                )
                await scenario(daemon, clients)
            finally:
                for client in clients:
                    await client.aclose()
                await daemon.stop()

        asyncio.run(go())

    def test_steady_state_memory_is_flat(self):
        seen = {}

        def count(client, _message):
            seen[client.name] = seen.get(client.name, 0) + 1

        async def scenario(daemon, clients):
            sent = 0

            async def pump(count):
                nonlocal sent
                for _ in range(count):
                    clients[sent % len(clients)].multicast("g", sent)
                    sent += 1
                    if sent % 50 == 0:
                        await _until(
                            lambda: all(seen.get(c.name) == sent for c in clients)
                        )
                gc.collect()
                return tracemalloc.get_traced_memory()[0]

            tracemalloc.start()
            try:
                early = await pump(1000)
                late = await pump(2000)
            finally:
                tracemalloc.stop()
            assert abs(late - early) < 64 * 1024
            assert daemon.messages_routed == 3000
            assert all(client.received == [] for client in clients)

        self._run(4, count, scenario)

    def test_slow_consumer_is_evicted(self):
        logs = {}

        def log(client, message):
            logs.setdefault(client.name, []).append(
                (message.sender, message.payload[0])
            )

        async def scenario(daemon, clients):
            # A raw socket joins the group and never reads again.
            slow = socket.socket()
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.connect(("127.0.0.1", daemon.port))
            hello = {"name": "slow", "version": WIRE_VERSION}
            slow.sendall(
                pack_frame(FrameType.HELLO, hello)
                + pack_frame(FrameType.JOIN, {"group": "g"})
            )
            try:
                await _until(lambda: "slow" in clients[0].views[-1].members)
                blob = b"x" * 100_000
                sent = 0
                while daemon.evicted == 0:
                    assert sent < 1000, "the slow consumer was never evicted"
                    clients[sent % 2].multicast(
                        "g", (sent, blob), size_bytes=len(blob)
                    )
                    sent += 1
                    await asyncio.sleep(0.001)
                await _until(
                    lambda: all(len(logs[c.name]) == sent for c in clients)
                    and all(c.views[-1].left == ("slow",) for c in clients)
                )
            finally:
                slow.close()
            assert sent * len(blob) > SLOW_CONSUMER_BYTES
            assert daemon.evicted == 1
            assert "slow" not in daemon.sessions
            for client in clients:
                assert client.views[-1].event is ViewEvent.LEAVE
                assert client.views[-1].members == ("c0", "c1")
            # The survivors still observe one total order.
            assert logs["c0"] == logs["c1"]
            assert sorted(index for _s, index in logs["c0"]) == list(range(sent))

        self._run(2, log, scenario)


@pytest.mark.slow
class TestLiveRekey:
    """Full secure-group smoke over loopback TCP (real crypto, wall time)."""

    def test_inline_daemon_rekey(self):
        result = run_live(
            protocol="TGDH",
            size=4,
            daemon_mode="inline",
            timeout_s=60,
            heartbeat_interval_s=0.5,
        )
        assert result["join"]["total_ms"] > 0
        assert result["leave"]["total_ms"] > 0
        assert result["rekey_ms"]["count"] > 0
        assert result["rekey_ms"]["max"] > 0

    def test_spawned_daemon_rekey(self):
        result = run_live(
            protocol="BD",
            size=4,
            daemon_mode="spawn",
            timeout_s=60,
            heartbeat_interval_s=0.5,
        )
        assert result["daemon"]["mode"] == "spawn"
        assert result["join"]["total_ms"] > 0
        assert result["leave"]["total_ms"] > 0
        assert result["rekey_ms"]["count"] > 0
