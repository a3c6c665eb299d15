"""Robustness of the Secure Spread layer under cascades and faults.

The paper's prior work ([1, 2]) made GDH robust to "any sequence of
(possibly cascaded) events"; our framework adopts the abort-and-restart
discipline for all five protocols.  These tests inject cascades and
failures the basic integration suite doesn't."""

import pytest

from repro.core import SecureSpreadFramework
from repro.core.secure_group import _CIPHER_HISTORY
from repro.crypto.ledger import OpCounts
from repro.gcs.messages import View, ViewEvent
from repro.gcs.topology import lan_testbed, wan_testbed
from repro.protocols import available


def _framework(protocol, topology=None, **kwargs):
    options = dict(dh_group="dh-test")
    options.update(kwargs)
    return SecureSpreadFramework(
        topology or lan_testbed(), default_protocol=protocol, **options
    )


def _settled_group(framework, count):
    members = framework.spawn_members(count)
    for member in members:
        member.join()
        framework.run_until_idle()
    return members


@pytest.mark.parametrize("protocol", available())
class TestCascades:
    def test_partition_during_join_agreement(self, protocol):
        fw = _framework(protocol)
        members = _settled_group(fw, 6)
        late = fw.member("late", 7)
        late.join()  # do not run to completion
        fw.world.partition([[0, 1, 2, 7], [3, 4, 5, 6] + list(range(8, 13))])
        fw.run_until_idle()
        left = [members[0], members[1], members[2], late]
        right = [members[3], members[4], members[5]]
        assert len({m.key_bytes for m in left}) == 1
        assert len({m.key_bytes for m in right}) == 1

    def test_rapid_fire_joins(self, protocol):
        fw = _framework(protocol)
        members = _settled_group(fw, 3)
        burst = [fw.member(f"b{i}", 3 + i) for i in range(3)]
        for member in burst:
            member.join()  # all three agreements cascade
        fw.run_until_idle()
        everyone = members + burst
        keys = {m.key_bytes for m in everyone}
        assert len(keys) == 1 and keys.pop() is not None

    def test_leave_storm(self, protocol):
        fw = _framework(protocol)
        members = _settled_group(fw, 8)
        for index in (1, 3, 5):
            members[index].leave()  # overlapping subtractive agreements
        fw.run_until_idle()
        survivors = [m for i, m in enumerate(members) if i not in (1, 3, 5)]
        assert len({m.key_bytes for m in survivors}) == 1

    def test_member_crash_rekeys_group(self, protocol):
        fw = _framework(protocol)
        members = _settled_group(fw, 5)
        old_key = members[0].key_bytes
        fw.world.crash_client("m2")
        fw.run_until_idle()
        survivors = [m for m in members if m.name != "m2"]
        keys = {m.key_bytes for m in survivors}
        assert len(keys) == 1
        assert keys.pop() != old_key

    def test_machine_isolation_then_recovery(self, protocol):
        fw = _framework(protocol)
        members = _settled_group(fw, 6)
        fw.world.isolate_machine(2)
        fw.run_until_idle()
        fw.world.heal()
        fw.run_until_idle()
        assert len({m.key_bytes for m in members}) == 1


class TestDataDuringChurn:
    def test_old_epoch_ciphertext_still_readable_within_history(self):
        fw = _framework("TGDH")
        members = _settled_group(fw, 3)
        # Data racing a view change is sealed under the sender's current
        # epoch; receivers keep recent ciphers so nothing is lost.
        members[0].send_secure(b"racing the rekey")
        late = fw.member("late", 5)
        late.join()
        fw.run_until_idle()
        assert ("m0", b"racing the rekey") in members[1].inbox

    def test_cipher_history_is_bounded(self):
        fw = _framework("BD")
        members = _settled_group(fw, 3)
        # Drive many epochs; the cipher cache must not grow without bound.
        for i in range(_CIPHER_HISTORY + 3):
            extra = fw.member(f"extra{i}", 5)
            extra.join()
            fw.run_until_idle()
            extra.leave()
            fw.run_until_idle()
        assert len(members[0]._ciphers) <= _CIPHER_HISTORY

    def test_pre_join_ciphertext_unreadable_by_newcomer(self):
        fw = _framework("GDH")
        members = _settled_group(fw, 3)
        members[0].send_secure(b"old secret")
        fw.run_until_idle()
        late = fw.member("late", 6)
        late.join()
        fw.run_until_idle()
        assert all(text != b"old secret" for _, text in late.inbox)

    def test_departed_member_stops_receiving(self):
        fw = _framework("STR")
        members = _settled_group(fw, 4)
        members[3].leave()
        fw.run_until_idle()
        members[0].send_secure(b"post-departure")
        fw.run_until_idle()
        assert all(text != b"post-departure" for _, text in members[3].inbox)
        assert ("m0", b"post-departure") in members[1].inbox


class TestCallbacks:
    def test_on_secure_view_fires_with_key(self):
        fw = _framework("CKD")
        events = []
        member = fw.member("solo", 0)
        member.on_secure_view = lambda m, view, key: events.append(
            (tuple(view.members), key)
        )
        member.join()
        fw.run_until_idle()
        peer = fw.member("peer", 1)
        peer.join()
        fw.run_until_idle()
        assert len(events) == 2
        assert events[-1][0] == ("solo", "peer")
        assert events[-1][1] is not None

    def test_is_secure_false_while_rekeying(self):
        fw = _framework("GDH", topology=wan_testbed())
        members = _settled_group(fw, 3)
        assert all(m.is_secure for m in members)
        late = fw.member("late", 5)
        late.join()
        # Run only partially: the WAN agreement takes hundreds of ms.
        fw.world.run(until=fw.now + 50)
        assert not late.is_secure
        fw.run_until_idle()
        assert late.is_secure


class TestReplayProtection:
    """§3.2: active attacks that try to introduce an old key are prevented
    by protocol-run identifiers — every message is tagged with the epoch
    (view id) it belongs to and dropped otherwise."""

    def test_replayed_old_epoch_message_is_ignored(self):
        fw = _framework("BD")
        members = _settled_group(fw, 3)
        # Record a protocol message from the current epoch.
        recorded = []
        victim = members[1]
        original_receive = victim.protocol.receive

        def recording_receive(pmsg):
            recorded.append(pmsg)
            return original_receive(pmsg)

        victim.protocol.receive = recording_receive
        extra = fw.member("extra", 4)
        extra.join()
        fw.run_until_idle()
        victim.protocol.receive = original_receive  # stop recording
        assert recorded, "no protocol traffic was observed"
        # Replay the join-epoch messages after a further epoch change:
        # all are stale and contribute nothing.
        extra.leave()
        fw.run_until_idle()
        key_after = victim.key_bytes
        for pmsg in recorded:
            assert victim.protocol.receive(pmsg) == []
        assert victim.key_bytes == key_after
        assert victim.protocol.done_for(victim.protocol.view)

    def test_cross_epoch_message_never_contributes(self):
        from repro.protocols.base import ProtocolMessage

        fw = _framework("GDH")
        members = _settled_group(fw, 3)
        victim = members[0]
        stale = ProtocolMessage(
            protocol="GDH",
            epoch=((99, 99), 99),
            step="gdh-keylist",
            sender="m1",
            body={"partials": {"m0": 123}},
        )
        before = victim.protocol.ledger.snapshot()
        assert victim.protocol.receive(stale) == []
        assert victim.protocol.ledger.delta_since(before) == OpCounts()


@pytest.mark.parametrize("protocol", available())
def test_three_way_partition_and_simultaneous_heal(protocol):
    """Three components heal at once: the merge machinery must fold more
    than two subgroups in a single view (the paper's merge protocols are
    described pairwise; Secure Spread faces k-way merges after multi-way
    network faults)."""
    fw = _framework(protocol)
    members = _settled_group(fw, 9)
    fw.world.partition(
        [[0, 1, 2], [3, 4, 5], [6, 7, 8] + list(range(9, 13))]
    )
    fw.run_until_idle()
    sides = [members[0:3], members[3:6], members[6:9]]
    side_keys = []
    for side in sides:
        keys = {m.key_bytes for m in side}
        assert len(keys) == 1, protocol
        side_keys.append(keys.pop())
    assert len(set(side_keys)) == 3  # three distinct subgroup keys
    fw.world.heal()
    fw.run_until_idle()
    merged = {m.key_bytes for m in members}
    assert len(merged) == 1, protocol
    assert merged.pop() not in side_keys


@pytest.mark.parametrize("protocol", available())
def test_deferred_view_superseded_by_cascade_before_flush(protocol):
    """With ``defer_rekey`` set, each new view replaces the stashed one;
    a flush after a cascade must key the *latest* membership, not the
    view that was current when deferral began."""
    fw = _framework(protocol)
    members = _settled_group(fw, 3)
    joiners = [fw.member(f"j{i}", 3 + i) for i in range(2)]
    everyone = members + joiners
    for member in everyone:
        member.defer_rekey = True
    joiners[0].join()
    fw.run_until_idle()
    first_stash = members[0]._deferred_view
    joiners[1].join()  # cascaded view supersedes the stashed one
    fw.run_until_idle()
    final_stash = members[0]._deferred_view
    assert first_stash is not None and final_stash is not None
    assert final_stash.view_id > first_stash.view_id
    assert set(final_stash.members) == {m.name for m in everyone}
    # No rekey ran while deferred: the old 3-member key is still current.
    assert members[0].protocol.view.members == tuple(
        m.name for m in members
    )
    # Flush with the synthetic merge view the batched-growth path builds:
    # the raw stash's ``joined`` names only the last cascade step, but the
    # base stacks/trees cover none of the newcomers.
    joined = tuple(
        name
        for name in final_stash.members
        if name not in {m.name for m in members}
    )
    rekey_view = View(
        view_id=final_stash.view_id,
        group=final_stash.group,
        members=final_stash.members,
        event=ViewEvent.MERGE,
        joined=joined,
        left=(),
    )
    for member in everyone:
        member.defer_rekey = False
        member._deferred_view = None
    for member in everyone:
        member.flush_deferred(rekey_view)
    fw.run_until_idle()
    keys = {m.key_bytes for m in everyone}
    assert len(keys) == 1 and keys.pop() is not None
    for member in everyone:
        assert member.protocol.view.view_id == final_stash.view_id
        assert member.protocol.done_for(member.protocol.view)


def test_gdh_interrupted_agreement_then_churn_stays_uniform():
    """Regression for silent GDH divergence: a partition that interrupts
    an agreement leaves the two sides with different cached partial-key
    lists (the key-list broadcast lands on one side only).  Churn after
    the heal used to let two members fall back independently and race
    two agreements in one epoch, completing members on *different* keys
    with none the wiser.  Now exactly one member — the controller —
    decides fast-path vs re-formation per epoch, and a member whose
    refreshed contribution never reached an adopted list refuses a
    subtractive shift (the watchdog then re-forms from scratch), so
    every epoch ends with all members on one key."""
    fw = _framework("GDH", stall_timeout_ms=400.0)
    members = _settled_group(fw, 6)
    late = fw.member("late", 7)
    late.join()  # agreement in flight when the network tears
    fw.world.partition([[0, 1, 2, 7], [3, 4, 5, 6] + list(range(8, 13))])
    fw.run_until_idle()
    fw.world.heal()
    fw.run_until_idle()
    everyone = members + [late]
    merged = {m.key_bytes for m in everyone}
    assert len(merged) == 1 and None not in merged
    # Subtractive then additive churn on the healed group: the cached
    # lists were rebuilt by the merge, and every epoch must stay uniform.
    members[2].leave()
    fw.run_until_idle()
    survivors = [m for m in everyone if m is not members[2]]
    keys = {m.key_bytes for m in survivors}
    assert len(keys) == 1 and None not in keys
    newcomer = fw.member("fresh", 8)
    newcomer.join()
    fw.run_until_idle()
    survivors.append(newcomer)
    keys = {m.key_bytes for m in survivors}
    assert len(keys) == 1 and None not in keys
    for member in survivors:
        assert member.protocol.done_for(member.protocol.view)
