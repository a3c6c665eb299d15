"""Tests for the transport interface: validators, conformance, shims."""

import pytest

from repro.core.framework import SecureSpreadFramework
from repro.gcs import GcsWorld, lan_testbed
from repro.transport import (
    MAX_GROUP_NAME_BYTES,
    MAX_PAYLOAD_BYTES,
    GroupChannel,
    Transport,
    validate_group_name,
    validate_member_name,
    validate_payload_size,
)


class TestValidators:
    def test_valid_group_name_returned(self):
        assert validate_group_name("secure-group") == "secure-group"

    @pytest.mark.parametrize("bad", [None, 7, b"bytes", ["g"]])
    def test_non_string_group_rejected(self, bad):
        with pytest.raises(ValueError, match="group name"):
            validate_group_name(bad)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validate_group_name("")

    def test_oversized_group_rejected(self):
        name = "g" * (MAX_GROUP_NAME_BYTES + 1)
        with pytest.raises(ValueError, match="exceeds"):
            validate_group_name(name)

    def test_control_characters_rejected(self):
        with pytest.raises(ValueError, match="control"):
            validate_group_name("bad\nname")

    def test_member_name_validator(self):
        assert validate_member_name("alice") == "alice"
        with pytest.raises(ValueError):
            validate_member_name("")
        with pytest.raises(ValueError):
            validate_member_name("x" * 200)

    def test_payload_size_bounds(self):
        assert validate_payload_size(0) == 0
        assert validate_payload_size(MAX_PAYLOAD_BYTES) == MAX_PAYLOAD_BYTES
        with pytest.raises(ValueError):
            validate_payload_size(-1)
        with pytest.raises(ValueError):
            validate_payload_size(MAX_PAYLOAD_BYTES + 1)

    def test_payload_size_type_checked(self):
        with pytest.raises(ValueError):
            validate_payload_size(True)  # bool is not a size
        with pytest.raises(ValueError):
            validate_payload_size(12.5)


class TestBoundaryValidation:
    """The simulator enforces the same rules at its API boundary (a bad
    group name used to surface as an opaque KeyError deep in the ring)."""

    def test_client_join_rejects_bad_group(self):
        world = GcsWorld(lan_testbed())
        client = world.channel("a", 0)
        with pytest.raises(ValueError, match="group name"):
            client.join("")
        with pytest.raises(ValueError, match="group name"):
            client.multicast(None, "payload")

    def test_client_multicast_rejects_oversized_payload(self):
        world = GcsWorld(lan_testbed())
        client = world.channel("a", 0)
        with pytest.raises(ValueError, match="payload"):
            client.multicast("g", "x", size_bytes=MAX_PAYLOAD_BYTES + 1)

    def test_client_name_validated(self):
        world = GcsWorld(lan_testbed())
        with pytest.raises(ValueError, match="member name"):
            world.channel("", 0)


class TestConformance:
    def test_gcs_world_is_a_transport(self):
        world = GcsWorld(lan_testbed())
        assert isinstance(world, Transport)
        assert world.kind == "sim"

    def test_spread_client_is_a_group_channel(self):
        world = GcsWorld(lan_testbed())
        assert isinstance(world.channel("a", 0), GroupChannel)

    def test_asyncio_transport_is_a_transport(self):
        pytest.importorskip("asyncio")
        from repro.net.runner import AsyncioTransport

        transport = AsyncioTransport()
        assert isinstance(transport, Transport)
        assert transport.kind == "asyncio"
        assert transport.machine_count() == 13

    def test_asyncio_transport_has_no_virtual_time(self):
        from repro.net.runner import AsyncioTransport
        from repro.transport import CAP_VIRTUAL_TIME

        transport = AsyncioTransport()
        assert CAP_VIRTUAL_TIME not in transport.capabilities
        with pytest.raises(RuntimeError, match="real time"):
            transport.run_until_idle()


class TestDeprecationShims:
    """The shims are gone; what they forwarded to is the only spelling."""

    def test_framework_rejects_both_forms(self):
        with pytest.raises(TypeError, match="topology"):
            SecureSpreadFramework(lan_testbed(), topology=lan_testbed())
        assert not hasattr(GcsWorld, "client")

    def test_framework_requires_a_substrate(self):
        with pytest.raises(TypeError, match="substrate"):
            SecureSpreadFramework()

    def test_framework_world_property_on_sim(self):
        framework = SecureSpreadFramework(lan_testbed())
        assert framework.world is framework.transport

    def test_framework_world_property_on_live_transport(self):
        from repro.net.runner import AsyncioTransport

        framework = SecureSpreadFramework(AsyncioTransport())
        with pytest.raises(AttributeError, match="simulator-only"):
            framework.world
