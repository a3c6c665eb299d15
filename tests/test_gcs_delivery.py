"""Tests for ordered delivery, views, and the client API."""

import pytest

from repro.gcs import GcsWorld, Service, ViewEvent, lan_testbed, wan_testbed


@pytest.fixture()
def world():
    return GcsWorld(lan_testbed())


def _setup_group(world, names, group="g"):
    clients = world.spawn_clients(names)
    for client in clients:
        # Sequential joins fix the join-age order to the listing order.
        client.join(group)
        world.run_until_idle()
    return clients


class TestJoinLeave:
    def test_join_delivers_view_to_all_members(self, world):
        alice, bob = _setup_group(world, ["alice", "bob"])
        assert alice.views[-1].members == ("alice", "bob")
        assert bob.views[-1].members == ("alice", "bob")
        assert bob.views[-1].event is ViewEvent.JOIN

    def test_members_ordered_by_join_age(self, world):
        clients = _setup_group(world, ["c3", "c1", "c2"])
        final = clients[0].views[-1]
        assert final.members == ("c3", "c1", "c2")
        assert final.oldest == "c3"
        assert final.newest == "c2"

    def test_leave_delivers_view_without_leaver(self, world):
        alice, bob, carol = _setup_group(world, ["alice", "bob", "carol"])
        bob.leave("g")
        world.run_until_idle()
        assert alice.views[-1].members == ("alice", "carol")
        assert alice.views[-1].left == ("bob",)
        assert alice.views[-1].event is ViewEvent.LEAVE

    def test_leaver_gets_final_view(self, world):
        alice, bob = _setup_group(world, ["alice", "bob"])
        bob.leave("g")
        world.run_until_idle()
        assert bob.views[-1].members == ("alice",)
        assert "bob" not in bob.views[-1]

    def test_view_sequences_identical_at_all_members(self, world):
        clients = _setup_group(world, [f"m{i}" for i in range(8)])
        clients[3].leave("g")
        clients[5].leave("g")
        world.run_until_idle()
        # Members observe the same suffix of views after they joined.
        reference = [v.members for v in clients[0].views[-3:]]
        for client in clients[:3]:
            assert [v.members for v in client.views[-3:]] == reference

    def test_disconnect_acts_as_leave(self, world):
        alice, bob = _setup_group(world, ["alice", "bob"])
        bob.disconnect()
        world.run_until_idle()
        assert alice.views[-1].members == ("alice",)
        with pytest.raises(RuntimeError):
            bob.multicast("g", "zombie")

    def test_duplicate_client_name_rejected(self, world):
        world.channel("dup", 0)
        with pytest.raises(ValueError):
            world.channel("dup", 1)


class TestAgreedOrdering:
    def test_all_members_deliver_same_order(self, world):
        clients = _setup_group(world, [f"m{i}" for i in range(6)])
        # Concurrent sends from every member.
        for i, client in enumerate(clients):
            client.multicast("g", f"msg-{i}")
        world.run_until_idle()
        reference = [m.payload for m in clients[0].received]
        assert len(reference) == 6
        for client in clients[1:]:
            assert [m.payload for m in client.received] == reference

    def test_sender_included_in_delivery(self, world):
        (alice,) = _setup_group(world, ["alice"])
        alice.multicast("g", "to-myself")
        world.run_until_idle()
        assert [m.payload for m in alice.received] == ["to-myself"]

    def test_fifo_order_from_single_sender(self, world):
        alice, bob = _setup_group(world, ["alice", "bob"])
        for i in range(10):
            alice.multicast("g", i)
        world.run_until_idle()
        assert [m.payload for m in bob.received] == list(range(10))

    def test_targeted_agreed_message_delivered_only_to_target(self, world):
        alice, bob, carol = _setup_group(world, ["alice", "bob", "carol"])
        alice.multicast("g", "secret", target="carol")
        world.run_until_idle()
        assert [m.payload for m in carol.received] == ["secret"]
        assert bob.received == []

    def test_non_members_do_not_receive(self, world):
        alice, bob = _setup_group(world, ["alice", "bob"])
        outsider = world.channel("eve", 5)
        alice.multicast("g", "private")
        world.run_until_idle()
        assert outsider.received == []

    def test_two_groups_are_independent(self, world):
        alice = world.channel("alice", 0)
        bob = world.channel("bob", 1)
        alice.join("g1")
        bob.join("g2")
        world.run_until_idle()
        alice.multicast("g1", "for-g1")
        world.run_until_idle()
        assert bob.received == []


class TestUnicast:
    def test_fifo_unicast_delivered_to_target_only(self, world):
        alice, bob, carol = _setup_group(world, ["alice", "bob", "carol"])
        alice.multicast("g", "hi bob", service=Service.FIFO, target="bob")
        world.run_until_idle()
        assert [m.payload for m in bob.received] == ["hi bob"]
        assert carol.received == []

    def test_unicast_to_unknown_member_dropped(self, world):
        (alice,) = _setup_group(world, ["alice"])
        alice.multicast("g", "anyone there?", service=Service.FIFO, target="ghost")
        world.run_until_idle()  # must not raise

    def test_unicast_cheaper_than_agreed_on_wan(self):
        """S6.2.2: an Agreed message costs far more than a raw unicast - the
        reason GDH's factor-out round dominates its WAN performance."""
        wan = GcsWorld(wan_testbed())
        a, b = wan.channel("a", 0), wan.channel("b", 12)
        a.join("g")
        b.join("g")
        wan.run_until_idle()
        stamps = {}
        b.on_message = lambda _c, m: stamps.setdefault(m.payload, wan.now)
        t0 = wan.now
        a.multicast("g", "u", service=Service.FIFO, target="b")
        a.multicast("g", "a")
        wan.run_until_idle()
        assert stamps["u"] - t0 < stamps["a"] - t0


class TestLatencyBands:
    def test_lan_agreed_delivery_a_few_milliseconds(self, world):
        alice, bob = _setup_group(world, ["alice", "bob"])
        stamp = {}
        bob.on_message = lambda _c, m: stamp.setdefault("t", world.now)
        t0 = world.now
        alice.multicast("g", "x")
        world.run_until_idle()
        assert 0.5 < stamp["t"] - t0 < 5.0

    def test_wan_agreed_delivery_hundreds_of_milliseconds(self):
        wan = GcsWorld(wan_testbed())
        a = wan.channel("a", 0)
        b = wan.channel("b", 12)
        a.join("g"); b.join("g")
        wan.run_until_idle()
        stamp = {}
        b.on_message = lambda _c, m: stamp.setdefault("t", wan.now)
        t0 = wan.now
        a.multicast("g", "x")
        wan.run_until_idle()
        assert 100 < stamp["t"] - t0 < 500
