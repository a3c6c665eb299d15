"""White-box tests of daemon behaviour: flush reconstruction, freezing,
canonical merge views, and edge paths a black-box test rarely hits."""

import pytest

from repro.gcs import GcsWorld, ViewEvent, lan_testbed
from repro.gcs.daemon import _reconstruct_groups, _AcceptState
from repro.gcs.membership import MembershipTable
from repro.gcs.messages import GroupMessage, SequencedMessage, Service


def _world_with_group(names):
    world = GcsWorld(lan_testbed())
    clients = [world.channel(n, i) for i, n in enumerate(names)]
    for client in clients:
        client.join("g")
        world.run_until_idle()
    return world, clients


class TestReconstruction:
    def _smsg(self, seq, kind, sender, daemon_id=0, config=(1, 0)):
        return SequencedMessage(
            config_id=config,
            seq=seq,
            origin_daemon=daemon_id,
            sequenced_at=0.0,
            message=GroupMessage(
                group="g",
                sender=sender,
                payload={"daemon_id": daemon_id} if kind == "join" else None,
                kind=kind,
            ),
        )

    def _state(self, members=(), delivered=0, config=(1, 0)):
        """A reported state whose group "g" holds ``members`` (name, seq)."""
        table = MembershipTable()
        for name, seq in members:
            table.add("g", name, 0, ((1, 0), seq))
        return _AcceptState(
            daemon_id=0,
            config_id=config,
            delivered=delivered,
            undelivered={},
            table=table,
        )

    def test_applies_pending_joins(self):
        state = self._state()
        union = {(1, 0): {5: self._smsg(5, "join", "alice")}}
        groups = _reconstruct_groups(state, union).groups
        assert "alice" in groups["g"]
        assert groups["g"]["alice"].birth == ((1, 0), 5)

    def test_applies_pending_leaves(self):
        state = self._state([("bob", 1)])
        union = {(1, 0): {3: self._smsg(3, "leave", "bob")}}
        table = _reconstruct_groups(state, union)
        assert "bob" not in table.members("g")
        assert state.table.members("g") == ("bob",)  # replayed on a copy

    def test_skips_already_delivered(self):
        state = self._state(delivered=7)
        union = {(1, 0): {5: self._smsg(5, "join", "alice")}}
        assert "alice" not in _reconstruct_groups(state, union).members("g")

    def test_join_is_idempotent(self):
        state = self._state([("alice", 2)])
        union = {(1, 0): {4: self._smsg(4, "join", "alice")}}
        groups = _reconstruct_groups(state, union).groups
        assert groups["g"]["alice"].birth == ((1, 0), 2)  # original kept

    def test_ignores_other_configs(self):
        state = self._state(config=(2, 1))
        union = {(1, 0): {5: self._smsg(5, "join", "alice")}}
        assert "alice" not in _reconstruct_groups(state, union).members("g")


class TestFreezing:
    def test_sends_queued_while_frozen_are_released(self):
        world, (a, b) = _world_with_group(["a", "b"])
        world.partition([[0, 1], list(range(2, 13))], detection_delay_ms=0.1)
        # Submit right after detection: daemons are frozen mid-change.
        world.sim.schedule(0.15, a.multicast, "g", "during-freeze")
        world.run_until_idle()
        assert any(m.payload == "during-freeze" for m in b.received)

    def test_messages_sequenced_in_old_config_resubmitted(self):
        """A message waiting for the token when the config changes is
        re-sequenced in the new configuration, not lost."""
        world, (a, b) = _world_with_group(["a", "b"])
        a.multicast("g", "racing")
        # Detection fires before the token can possibly arrive.
        world.partition([[0, 1], list(range(2, 13))], detection_delay_ms=0.01)
        world.run_until_idle()
        assert any(m.payload == "racing" for m in b.received)

    def test_token_inside_the_freeze_sequences_nothing(self):
        """A join and a data message wait for d3's token when the network
        splits, and the token reaches d3 after its propose and before the
        install.  Stamped there, they would miss the accept snapshot and
        be dropped by the install; instead both go out in the new
        configuration."""
        world, clients = _world_with_group(["a", "b", "c", "d"])
        joiner = world.channel("j", 3)
        daemon = world.daemons[3]
        steps = []
        for name in ("_on_propose", "_on_sequenced", "_on_install"):
            method = getattr(daemon, name)
            setattr(daemon, name, lambda *a, m=method, n=name: steps.append(n) or m(*a))

        def send():
            joiner.join("g")
            clients[3].multicast("g", "in-window")

        world.sim.schedule(0.8, send)
        side = [0, 1, 2, 3]
        world.sim.schedule(0.8, world.partition, [side, list(range(4, 13))], 0.1)
        world.run_until_idle()
        # the setup hits the window: both tokens between propose and install
        window = steps[steps.index("_on_propose") : steps.index("_on_install")]
        assert window.count("_on_sequenced") == 2
        for client in clients + [joiner]:
            assert client.views[-1].members == ("a", "b", "c", "d", "j")
        for index in side:
            assert "j" in world.daemons[index].table.members("g")
        for client in clients:
            assert any(m.payload == "in-window" for m in client.received)


class TestCanonicalMergeViews:
    def test_joined_is_identical_on_both_sides(self):
        world, clients = _world_with_group(["a", "b", "c", "d"])
        world.partition([[0, 1], [2, 3] + list(range(4, 13))])
        world.run_until_idle()
        world.heal()
        world.run_until_idle()
        views = [c.views[-1] for c in clients]
        assert len({v.joined for v in views}) == 1
        # The oldest member 'a' anchors the base side.
        assert views[0].joined == ("c", "d")

    def test_merge_with_simultaneous_leave_classified_as_merge(self):
        world, clients = _world_with_group(["a", "b", "c", "d"])
        world.partition([[0, 1], [2, 3] + list(range(4, 13))])
        world.run_until_idle()
        # 'd' disconnects while partitioned; then the network heals.
        clients[3].disconnect()
        world.run_until_idle()
        world.heal()
        world.run_until_idle()
        view = clients[0].views[-1]
        assert view.event is ViewEvent.MERGE
        assert set(view.members) == {"a", "b", "c"}


class TestEdgePaths:
    def test_fifo_to_departed_member_dropped_silently(self):
        world, (a, b) = _world_with_group(["a", "b"])
        b.leave("g")
        world.run_until_idle()
        a.multicast("g", "too late", service=Service.FIFO, target="b")  # must not raise
        world.run_until_idle()
        assert all(m.payload != "too late" for m in b.received)

    def test_duplicate_join_ignored(self):
        world, (a, b) = _world_with_group(["a", "b"])
        views_before = len(b.views)
        a.join("g")  # already a member
        world.run_until_idle()
        assert len(b.views) == views_before

    def test_leave_of_non_member_ignored(self):
        world, (a, b) = _world_with_group(["a", "b"])
        outsider = world.channel("outsider", 5)
        outsider.leave("g")
        world.run_until_idle()
        assert b.views[-1].members == ("a", "b")

    def test_disconnect_leaves_all_groups(self):
        world = GcsWorld(lan_testbed())
        a = world.channel("a", 0)
        b = world.channel("b", 1)
        for group in ("g1", "g2"):
            a.join(group)
            b.join(group)
            world.run_until_idle()
        a.disconnect()
        world.run_until_idle()
        last_two = [v for v in b.views if v.event is ViewEvent.LEAVE]
        assert {v.group for v in last_two} == {"g1", "g2"}
        assert all(v.members == ("b",) for v in last_two)

    def test_crash_client_helper(self):
        world, (a, b) = _world_with_group(["a", "b"])
        world.crash_client("a")
        world.run_until_idle()
        assert b.views[-1].members == ("b",)
        with pytest.raises(KeyError):
            world.crash_client("ghost")

    def test_isolate_machine_helper(self):
        world, (a, b) = _world_with_group(["a", "b"])
        world.isolate_machine(0)
        world.run_until_idle()
        assert b.views[-1].members == ("b",)
        assert a.views[-1].members == ("a",)
