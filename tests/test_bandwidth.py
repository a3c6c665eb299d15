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


#: Each step's element count through one event sequence on a 6-member
#: loopback group: join x, leave m1, mass-join y0-y2, mass-leave m3 and
#: y1, then merge back the side partitioned off with m4 and y2.
TOKEN, UPFLOW, FACTOR = ("gdh-token", 1), ("gdh-upflow", 1), ("gdh-factor", 1)
SIZED_STEPS = {
    "BD": {
        "join": [("bd-z", 1)] * 7 + [("bd-x", 1)] * 7,
        "leave": [("bd-z", 1)] * 6 + [("bd-x", 1)] * 6,
        "mass_join": [("bd-z", 1)] * 9 + [("bd-x", 1)] * 9,
        "mass_leave": [("bd-z", 1)] * 7 + [("bd-x", 1)] * 7,
        "merge": [("bd-z", 1)] * 7 + [("bd-x", 1)] * 7,
    },
    "CKD": {
        "join": [("ckd-pub", 1), ("ckd-reply", 1), ("ckd-dist", 6)],
        "leave": [("ckd-dist", 5)],
        "mass_join": [("ckd-pub", 1)] + [("ckd-reply", 1)] * 3 + [("ckd-dist", 8)],
        "mass_leave": [("ckd-dist", 6)],
        "merge": [("ckd-pub", 1)] + [("ckd-reply", 1)] * 2 + [("ckd-dist", 6)],
    },
    "GDH": {
        "join": [TOKEN, UPFLOW] + [FACTOR] * 6 + [("gdh-keylist", 7)],
        "leave": [("gdh-keylist", 6)],
        "mass_join": [TOKEN] * 3 + [UPFLOW] + [FACTOR] * 8 + [("gdh-keylist", 9)],
        "mass_leave": [("gdh-keylist", 7)],
        "merge": [TOKEN] * 2 + [UPFLOW] + [FACTOR] * 6 + [("gdh-keylist", 7)],
    },
    "STR": {
        "join": [("str-tree", 12), ("str-tree", 2), ("str-bkeys", 8)],
        "leave": [("str-bkeys", 7)],
        "mass_join": [("str-tree", 12)] + [("str-tree", 2)] * 3 + [("str-bkeys", 10)],
        "mass_leave": [("str-bkeys", 8)],
        "merge": [("str-tree", 10), ("str-tree", 4), ("str-bkeys", 8)],
    },
    "TGDH": {
        "join": [("tgdh-tree", 11), ("tgdh-tree", 1), ("tgdh-bkeys", 1)],
        "leave": [("tgdh-bkeys", 2)],
        "mass_join": [
            ("tgdh-tree", 11),
            ("tgdh-tree", 1),
            ("tgdh-tree", 1),
            ("tgdh-tree", 1),
            ("tgdh-bkeys", 2),
            ("tgdh-bkeys", 2),
            ("tgdh-bkeys", 1),
        ],
        "mass_leave": [("tgdh-bkeys", 3)],
        "merge": [("tgdh-tree", 9), ("tgdh-tree", 3), ("tgdh-bkeys", 1)],
    },
}


class TestMessageSizing:
    @pytest.mark.parametrize("protocol", sorted(SIZED_STEPS))
    def test_every_step_sized_by_its_elements(self, protocol):
        def sized(stats):
            return [(m.step, m.element_count) for m in stats.messages]

        loop = build_group(get_protocol(protocol), 6)
        seen = {
            "join": sized(loop.join("x")),
            "leave": sized(loop.leave("m1")),
            "mass_join": sized(loop.mass_join(["y0", "y1", "y2"])),
            "mass_leave": sized(loop.mass_leave(["m3", "y1"])),
        }
        other = loop.partition(["m4", "y2"])
        seen["merge"] = sized(loop.merge(other))
        assert seen == SIZED_STEPS[protocol]

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
