"""Bandwidth accounting: the communication-efficiency claims of §2.1/§5.

The network counts every byte it carries (the flight recorder's
``net.bytes`` counter); protocol messages are sized by
the group elements they carry (partial-key lists, serialized trees, z/X
values) plus signature overhead.  This is the "GDH is, however,
bandwidth-efficient" axis of the paper's trade-off: BD spends few
exponentiations but floods the network.
"""

import pytest

from repro.core import SecureSpreadFramework
from repro.gcs.topology import lan_testbed
from repro.protocols import available, get_protocol
from repro.protocols.loopback import build_group


def _bytes_for_join(protocol, size=10):
    framework = SecureSpreadFramework(
        lan_testbed(), default_protocol=protocol, dh_group="dh-512", observe=True
    )
    metrics = framework.obs.metrics
    members = framework.spawn_members(size)
    for member in members:
        member.join()
        framework.run_until_idle()
    before = metrics.counter_total("net.bytes")
    extra = framework.member("x", 5)
    extra.join()
    framework.run_until_idle()
    return metrics.counter_total("net.bytes") - before


class TestWireBytes:
    @pytest.fixture(scope="class")
    def join_bytes(self):
        return {p: _bytes_for_join(p) for p in available()}

    def test_bd_floods_the_network(self, join_bytes):
        """BD's 2n broadcasts cost more wire bytes than any other
        protocol's join at n=10."""
        assert join_bytes["BD"] == max(join_bytes.values())

    def test_tree_protocols_are_frugal(self, join_bytes):
        assert join_bytes["STR"] < join_bytes["BD"] / 2
        assert join_bytes["TGDH"] < join_bytes["BD"]

    def test_all_joins_cost_nonzero_bytes(self, join_bytes):
        assert all(b > 0 for b in join_bytes.values())


class TestMessageSizing:
    def test_gdh_keylist_carries_n_elements(self):
        loop = build_group(get_protocol("GDH"), 6)
        stats = loop.join("x")
        keylist = [m for m in stats.messages if m.step == "gdh-keylist"][0]
        assert keylist.element_count == 7  # one partial key per member
        assert keylist.size_bytes > 7 * (loop.group.p_bits // 8)

    def test_bd_messages_are_single_element(self):
        loop = build_group(get_protocol("BD"), 6)
        stats = loop.join("x")
        assert all(m.element_count == 1 for m in stats.messages)

    def test_tgdh_tree_broadcast_scales_with_group(self):
        small = build_group(get_protocol("TGDH"), 4)
        big = build_group(get_protocol("TGDH"), 16, prefix="b")
        small_tree = max(
            m.element_count for m in small.join("x").messages
        )
        big_tree = max(m.element_count for m in big.join("y").messages)
        assert big_tree > 2 * small_tree

    def test_element_size_tracks_modulus(self):
        from repro.crypto.groups import GROUP_512, GROUP_1024
        from repro.protocols.loopback import LoopbackGroup

        loop512 = LoopbackGroup(get_protocol("BD"), group=GROUP_512)
        loop1024 = LoopbackGroup(get_protocol("BD"), group=GROUP_1024)
        for loop in (loop512, loop1024):
            for i in range(3):
                loop.join(f"m{i}")
        m512 = loop512.last_stats.messages[0].size_bytes
        m1024 = loop1024.last_stats.messages[0].size_bytes
        assert m1024 - m512 == (1024 - 512) // 8
