"""Transport conformance: the same contract on both substrates.

Every scenario runs twice — once on the simulated world, once on the
asyncio backend with an in-process daemon over real loopback sockets —
asserting the interface guarantees of :mod:`repro.transport.base`:
join/leave view delivery, join-age member ordering, Agreed total order
(including under concurrent joins), and FIFO unicast targeting.

Channels record a single merged event log per client (views and
messages interleaved in delivery order), so cross-substrate assertions
compare the one thing the contract promises: what each member observed,
in order.

One layer up, a secure-group member on either substrate follows the
same rules: its ``inbox`` is a mailbox, and what it holds is bounded by
its current view, not by the events its group has been through.
"""

import asyncio
import gc

import pytest

from repro.core import SecureSpreadFramework
from repro.core.driver import GroupDriver
from repro.gcs import GcsWorld, lan_testbed
from repro.gcs.messages import Service, View
from repro.net.daemon import NetDaemon
from repro.net.client import NetClient
from repro.net.runner import AsyncioTransport

GROUP = "conformance"


class SimSubstrate:
    """The simulated world behind the async harness interface."""

    kind = "sim"

    async def start(self):
        self.world = GcsWorld(lan_testbed())
        return self

    async def channel(self, name, machine_index=0):
        client = self.world.channel(name, machine_index)
        _attach_log(client)
        return client

    async def settle(self):
        self.world.run_until_idle()

    def transport(self):
        return self.world

    async def drive(self, driver, steps):
        return driver.run(steps)

    async def until(self, condition):
        self.world.run_until_idle()
        assert condition()

    async def stop(self):
        pass


class LiveSubstrate:
    """An inline NetDaemon plus NetClient channels over loopback TCP."""

    kind = "asyncio"

    async def start(self):
        self.daemon = NetDaemon()
        self.port = await self.daemon.start()
        self.clients = []
        self.transports = []
        return self

    async def channel(self, name, machine_index=0):
        client = NetClient(name, port=self.port, heartbeat_interval_s=0.2)
        await client.connect()
        _attach_log(client)
        self.clients.append(client)
        return client

    async def settle(self):
        """Quiescence: the observed event count is stable across polls."""
        stable = 0
        last = -1
        for _ in range(400):  # bounded: 400 * 10ms = 4s hard cap
            await asyncio.sleep(0.01)
            seen = sum(len(c.log) for c in self.clients)
            if seen == last:
                stable += 1
                if stable >= 3:
                    return
            else:
                stable = 0
                last = seen
        raise TimeoutError("live substrate did not quiesce within 4s")

    def transport(self):
        transport = AsyncioTransport(port=self.port, heartbeat_interval_s=0.2)
        self.transports.append(transport)
        return transport

    async def drive(self, driver, steps):
        return await driver.arun(steps)

    async def until(self, condition):
        for _ in range(400):  # bounded: 400 * 10ms = 4s hard cap
            if condition():
                return
            await asyncio.sleep(0.01)
        raise TimeoutError("live substrate did not reach the condition in 4s")

    async def stop(self):
        for channel in self.clients + [
            c for transport in self.transports for c in transport.channels
        ]:
            await channel.aclose()
        await self.daemon.stop()


def _attach_log(client):
    """One merged, ordered log of everything the channel delivered.  The
    channel is listened to, so it retains no views of its own."""
    client.log = []
    client.on_view = lambda c, view: c.log.append(("view", view))
    client.on_message = lambda c, msg: c.log.append(
        ("msg", msg.sender, msg.payload)
    )


def _views(client):
    return [entry[1] for entry in client.log if entry[0] == "view"]


SUBSTRATES = [SimSubstrate, LiveSubstrate]


def run_scenario(substrate_cls, scenario):
    async def driver():
        substrate = await substrate_cls().start()
        try:
            await scenario(substrate)
        finally:
            await substrate.stop()

    asyncio.run(driver())


@pytest.mark.parametrize("substrate_cls", SUBSTRATES, ids=lambda s: s.kind)
class TestMembership:
    def test_join_delivers_view_to_all_members(self, substrate_cls):
        async def scenario(s):
            alice = await s.channel("alice")
            bob = await s.channel("bob", 1)
            alice.join(GROUP)
            await s.settle()
            bob.join(GROUP)
            await s.settle()
            assert _views(alice)[-1].members == ("alice", "bob")
            assert _views(bob)[-1].members == ("alice", "bob")
            assert _views(alice)[-1].joined == ("bob",)

        run_scenario(substrate_cls, scenario)

    def test_members_ordered_by_join_age(self, substrate_cls):
        async def scenario(s):
            names = ["c3", "c1", "c2"]
            clients = []
            for index, name in enumerate(names):
                client = await s.channel(name, index)
                client.join(GROUP)
                await s.settle()
                clients.append(client)
            final = _views(clients[0])[-1]
            assert final.members == ("c3", "c1", "c2")

        run_scenario(substrate_cls, scenario)

    def test_leave_delivers_view_without_leaver(self, substrate_cls):
        async def scenario(s):
            clients = []
            for index, name in enumerate(["alice", "bob", "carol"]):
                client = await s.channel(name, index)
                client.join(GROUP)
                await s.settle()
                clients.append(client)
            alice, bob, carol = clients
            bob.leave(GROUP)
            await s.settle()
            assert _views(alice)[-1].members == ("alice", "carol")
            assert _views(alice)[-1].left == ("bob",)
            # The leaver still learns it is out.
            assert _views(bob)[-1].members == ("alice", "carol")

        run_scenario(substrate_cls, scenario)

    def test_disconnect_acts_as_leave(self, substrate_cls):
        async def scenario(s):
            alice = await s.channel("alice")
            bob = await s.channel("bob", 1)
            for client in (alice, bob):
                client.join(GROUP)
                await s.settle()
            bob.disconnect()
            await s.settle()
            assert _views(alice)[-1].members == ("alice",)
            with pytest.raises(RuntimeError):
                bob.multicast(GROUP, "zombie")

        run_scenario(substrate_cls, scenario)


@pytest.mark.parametrize("substrate_cls", SUBSTRATES, ids=lambda s: s.kind)
class TestAgreedOrder:
    def test_all_members_deliver_same_order(self, substrate_cls):
        async def scenario(s):
            clients = []
            for index in range(4):
                client = await s.channel(f"m{index}", index)
                client.join(GROUP)
                await s.settle()
                clients.append(client)
            for index, client in enumerate(clients):
                client.multicast(GROUP, f"msg-{index}")
            await s.settle()
            reference = [
                entry for entry in clients[0].log if entry[0] == "msg"
            ]
            assert len(reference) == 4
            for client in clients[1:]:
                mine = [entry for entry in client.log if entry[0] == "msg"]
                assert mine == reference

        run_scenario(substrate_cls, scenario)

    def test_agreed_order_under_concurrent_joins(self, substrate_cls):
        async def scenario(s):
            base = []
            for index in range(3):
                client = await s.channel(f"b{index}", index)
                client.join(GROUP)
                await s.settle()
                base.append(client)
            # Compare only what happens from here on: the base members
            # joined at different times, so their log *prefixes* differ.
            for client in base:
                client.log.clear()
            # Two joins and interleaved data race into the total order.
            j1 = await s.channel("j1", 3)
            j2 = await s.channel("j2", 4)
            base[0].multicast(GROUP, "before")
            j1.join(GROUP)
            base[1].multicast(GROUP, "between")
            j2.join(GROUP)
            base[2].multicast(GROUP, "after")
            await s.settle()
            # All base members observe the identical interleaving of
            # views and messages (the Agreed guarantee).
            reference = base[0].log
            assert len([e for e in reference if e[0] == "msg"]) == 3
            for client in base[1:]:
                assert client.log == reference

        run_scenario(substrate_cls, scenario)

    def test_unicast_reaches_only_the_target(self, substrate_cls):
        async def scenario(s):
            clients = []
            for index, name in enumerate(["alice", "bob", "carol"]):
                client = await s.channel(name, index)
                client.join(GROUP)
                await s.settle()
                clients.append(client)
            alice, bob, carol = clients
            alice.multicast(GROUP, "psst", service=Service.FIFO, target="bob")
            await s.settle()
            assert ("msg", "alice", "psst") in bob.log
            assert all(entry[0] != "msg" for entry in alice.log)
            assert all(entry[0] != "msg" for entry in carol.log)

        run_scenario(substrate_cls, scenario)

    def test_non_members_do_not_receive(self, substrate_cls):
        """Membership gates receiving, not sending (Spread semantics):
        an outsider's multicast reaches the group, but an outsider never
        receives group traffic."""

        async def scenario(s):
            alice = await s.channel("alice")
            outsider = await s.channel("eve", 1)
            alice.join(GROUP)
            await s.settle()
            outsider.multicast(GROUP, "from-outside")
            alice.multicast(GROUP, "private")
            await s.settle()
            assert ("msg", "eve", "from-outside") in alice.log
            assert all(entry[0] != "msg" for entry in outsider.log)

        run_scenario(substrate_cls, scenario)


@pytest.mark.parametrize("substrate_cls", SUBSTRATES, ids=lambda s: s.kind)
class TestMailbox:
    """``received`` and ``views`` are the mailboxes of a channel nobody
    listens to."""

    def test_listener_retains_nothing_mailbox_keeps_delivery_order(
        self, substrate_cls
    ):
        async def scenario(s):
            listener = await s.channel("listener")
            mailbox = await s.channel("mailbox", 1)
            mailbox.on_message = mailbox.on_view = None
            for client in (listener, mailbox):
                client.join(GROUP)
                await s.settle()
            for index in range(20):
                (listener, mailbox)[index % 2].multicast(GROUP, index)
                if index % 5 == 4:
                    await s.settle()
            passer = await s.channel("passer", 2)
            passer.join(GROUP)
            await s.settle()
            passer.leave(GROUP)
            await s.settle()
            delivered = [e[2] for e in listener.log if e[0] == "msg"]
            assert sorted(delivered) == list(range(20))
            assert listener.received == [] and listener.views == []
            assert [m.payload for m in mailbox.received] == delivered
            # The mailbox saw every view from its own join on, in order.
            heard = _views(listener)
            assert [v.event.value for v in heard] == [
                "join", "join", "join", "leave",
            ]
            assert mailbox.views == heard[1:]

        run_scenario(substrate_cls, scenario)


def _secure_group(s):
    """A secure-group driver on the substrate (symbolic crypto, so the
    run costs what the transport costs)."""
    framework = SecureSpreadFramework(
        s.transport(), default_protocol="TGDH", dh_group="dh-test",
        engine="symbolic",
    )
    return GroupDriver(framework, timeout_s=10.0)


def _live_views():
    gc.collect()
    return sum(isinstance(obj, View) for obj in gc.get_objects())


def _churn(driver, cycles):
    """``cycles`` times: a fresh member joins, then leaves — two
    membership events and one departed member per cycle."""
    for _ in range(cycles):
        yield from driver.join()
        yield from driver.restore()


@pytest.mark.parametrize("substrate_cls", SUBSTRATES, ids=lambda s: s.kind)
class TestSecureMember:
    """A secure member follows its channel's rules: ``inbox`` is a
    mailbox, and what it holds is bounded by its current view."""

    def test_listener_inbox_stays_empty_mailbox_keeps_delivery_order(
        self, substrate_cls
    ):
        async def scenario(s):
            driver = _secure_group(s)
            await s.drive(driver, driver.grow(3))
            listener, mailbox, _ = driver.members
            heard = []
            listener.on_secure_message = lambda m, sender, text: heard.append(
                (sender, text)
            )
            for index in range(9):
                driver.members[index % 3].send_secure(b"%d" % index)
            await s.until(lambda: len(mailbox.inbox) == 9 and len(heard) == 9)
            assert listener.inbox == []
            assert mailbox.inbox == heard
            assert sorted(text for _, text in heard) == [
                b"%d" % index for index in range(9)
            ]

        run_scenario(substrate_cls, scenario)

    def test_views_held_grow_with_departed_members_not_with_events(
        self, substrate_cls
    ):
        # k cycles, then 3k more (4k in all).  A member holds the view it
        # last keyed, so the 3k departed members account for the growth;
        # a member that kept every view it ever keyed would add about one
        # view per current member per event (~160 here, against <= 30).
        async def scenario(s):
            k = 5
            driver = _secure_group(s)
            await s.drive(driver, driver.grow(5))
            await s.drive(driver, _churn(driver, k))
            before = _live_views()
            await s.drive(driver, _churn(driver, 3 * k))
            departed = 3 * k
            assert _live_views() - before <= 2 * departed

        run_scenario(substrate_cls, scenario)
