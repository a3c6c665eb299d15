"""End-to-end Secure Spread integration tests over the simulated GCS.

These exercise the full stack of the paper's system: Spread daemons,
token-ring Agreed multicast, view-synchronous membership, signed key
agreement messages, CPU cost charging, and group-data encryption.
"""

import pytest

from repro.core import SecureSpreadFramework
from repro.gcs.topology import lan_testbed, wan_testbed
from repro.protocols import available

FAST = dict(dh_group="dh-test")


def _framework(protocol, topology=None, **kwargs):
    options = dict(FAST)
    options.update(kwargs)
    return SecureSpreadFramework(
        topology or lan_testbed(), default_protocol=protocol, **options
    )


def _join_all(framework, members):
    for member in members:
        framework.timeline.mark_event(framework.now)
        member.join()
        framework.run_until_idle()


@pytest.mark.parametrize("protocol", available())
class TestAllProtocolsOverGcs:
    def test_sequential_joins_reach_shared_key(self, protocol):
        fw = _framework(protocol)
        members = fw.spawn_members(6)
        _join_all(fw, members)
        keys = {m.key_bytes for m in members}
        assert len(keys) == 1
        assert keys.pop() is not None

    def test_leave_rekeys_survivors(self, protocol):
        fw = _framework(protocol)
        members = fw.spawn_members(5)
        _join_all(fw, members)
        old = members[0].key_bytes
        fw.timeline.mark_event(fw.now)
        members[2].leave()
        fw.run_until_idle()
        survivors = [m for i, m in enumerate(members) if i != 2]
        keys = {m.key_bytes for m in survivors}
        assert len(keys) == 1
        assert keys.pop() != old

    def test_network_partition_and_merge(self, protocol):
        fw = _framework(protocol)
        members = fw.spawn_members(6)
        _join_all(fw, members)
        fw.timeline.mark_event(fw.now)
        fw.world.partition([[0, 1, 2], [3, 4, 5] + list(range(6, 13))])
        fw.run_until_idle()
        left_keys = {members[i].key_bytes for i in (0, 1, 2)}
        right_keys = {members[i].key_bytes for i in (3, 4, 5)}
        assert len(left_keys) == 1 and len(right_keys) == 1
        assert left_keys != right_keys
        fw.timeline.mark_event(fw.now)
        fw.world.heal()
        fw.run_until_idle()
        merged = {m.key_bytes for m in members}
        assert len(merged) == 1

    def test_secure_data_roundtrip(self, protocol):
        fw = _framework(protocol)
        members = fw.spawn_members(4)
        _join_all(fw, members)
        members[1].send_secure(b"the eagle lands at midnight")
        fw.run_until_idle()
        for i in (0, 2, 3):
            assert ("m1", b"the eagle lands at midnight") in members[i].inbox


class TestFrameworkFeatures:
    def test_different_protocols_for_different_groups(self):
        """The paper's framework contribution: per-group protocol choice."""
        fw = _framework("TGDH")
        fw.set_group_protocol("alpha", "BD")
        fw.set_group_protocol("beta", "GDH")
        a = fw.member("a1", 0, "alpha")
        b = fw.member("b1", 1, "beta")
        c = fw.member("c1", 2, "gamma")  # default
        assert type(a.protocol).name == "BD"
        assert type(b.protocol).name == "GDH"
        assert type(c.protocol).name == "TGDH"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            _framework("NOPE")
        fw = _framework("BD")
        with pytest.raises(ValueError):
            fw.set_group_protocol("g", "NOPE")

    def test_member_of_two_groups(self):
        """A client can be in several groups, each with its own protocol."""
        fw = _framework("TGDH")
        fw.set_group_protocol("g1", "BD")
        fw.set_group_protocol("g2", "STR")
        a1 = fw.member("proc-a-g1", 0, "g1")
        b1 = fw.member("proc-b-g1", 1, "g1")
        a2 = fw.member("proc-a-g2", 0, "g2")
        b2 = fw.member("proc-b-g2", 1, "g2")
        for member in (a1, b1, a2, b2):
            member.join()
        fw.run_until_idle()
        assert a1.key_bytes == b1.key_bytes
        assert a2.key_bytes == b2.key_bytes
        assert a1.key_bytes != a2.key_bytes

    def test_real_signatures_verify(self):
        fw = _framework("TGDH", sign_for_real=True, rsa_bits=256)
        members = fw.spawn_members(3)
        _join_all(fw, members)
        assert len({m.key_bytes for m in members}) == 1

    def test_queued_sends_released_after_rekey(self):
        fw = _framework("STR")
        members = fw.spawn_members(3)
        _join_all(fw, members)
        # Send immediately after initiating a join; the message is queued
        # until the new epoch completes, then delivered under the new key.
        extra = fw.member("late", 5)
        extra.join()
        members[0].send_secure(b"queued during rekey")
        fw.run_until_idle()
        assert ("m0", b"queued during rekey") in members[2].inbox

    def test_cascaded_events_converge(self):
        """Robustness (§1.2): a second membership change arriving before
        the first agreement finishes aborts and restarts it."""
        fw = _framework("TGDH")
        members = fw.spawn_members(5)
        _join_all(fw, members)
        a = fw.member("a", 5)
        b = fw.member("b", 6)
        a.join()
        b.join()  # lands while the first agreement is still running
        fw.run_until_idle()
        everyone = members + [a, b]
        assert len({m.key_bytes for m in everyone}) == 1

    def test_cascaded_leave_during_join_agreement(self):
        fw = _framework("GDH")
        members = fw.spawn_members(6)
        _join_all(fw, members)
        late = fw.member("late", 6)
        late.join()
        members[4].leave()  # cascades into the join agreement
        fw.run_until_idle()
        current = [m for m in members if m is not members[4]] + [late]
        assert len({m.key_bytes for m in current}) == 1

    def test_timeline_measures_membership_and_total(self):
        fw = _framework("TGDH")
        members = fw.spawn_members(4)
        _join_all(fw, members)
        record = fw.timeline.latest_complete()
        assert record.total_elapsed() > record.membership_elapsed() > 0


class TestWan:
    def test_wan_join_latency_band(self):
        """Membership + key agreement on the WAN testbed lands in the
        paper's hundreds-of-milliseconds regime (Figure 14)."""
        fw = _framework("TGDH", topology=wan_testbed())
        members = fw.spawn_members(6)
        _join_all(fw, members)
        record = fw.timeline.latest_complete()
        assert 200 < record.total_elapsed() < 3000
        assert 100 < record.membership_elapsed() < 900

    def test_wan_all_protocols_converge(self):
        for protocol in available():
            fw = _framework(protocol, topology=wan_testbed())
            members = fw.spawn_members(4)
            _join_all(fw, members)
            assert len({m.key_bytes for m in members}) == 1, protocol
