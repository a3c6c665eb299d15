"""Property-based tests over the full group communication stack.

Hypothesis drives random sequences of joins, leaves, sends, partitions
and heals, and the invariants of DESIGN.md §5 are checked after every
quiescent point: total order, view agreement, and no message invented or
duplicated.  A second property adds disconnects and daemon crash-restarts
and checks the daemons' join-age record order, which views are read
straight from.
"""

from hypothesis import given, settings, strategies as st

from repro.gcs import GcsWorld, lan_testbed
from repro.gcs.topology import Topology
from repro.sim.cpu import Machine


@st.composite
def _scripts(draw):
    return draw(
        st.lists(
            st.sampled_from(["join", "leave", "send", "split", "heal"]),
            min_size=3,
            max_size=12,
        )
    )


@given(script=_scripts(), data=st.data())
@settings(max_examples=20, deadline=None)
def test_total_order_and_views_hold_under_random_churn(script, data):
    world = GcsWorld(lan_testbed())
    clients = {}
    counter = [0]
    partitioned = [False]

    # Start with three members.
    for _ in range(3):
        name = f"m{counter[0]}"
        counter[0] += 1
        client = world.channel(name, counter[0] % 13)
        client.join("g")
        clients[name] = client
    world.run_until_idle()

    sent = []
    for op in script:
        members = [c for c in clients.values() if c.connected]
        if op == "join" or len(members) < 2:
            name = f"m{counter[0]}"
            counter[0] += 1
            client = world.channel(name, counter[0] % 13)
            client.join("g")
            clients[name] = client
        elif op == "leave":
            victim = data.draw(
                st.sampled_from(sorted(members, key=lambda c: c.name)),
                label="leaver",
            )
            victim.leave("g")
        elif op == "send":
            sender = data.draw(
                st.sampled_from(sorted(members, key=lambda c: c.name)),
                label="sender",
            )
            payload = f"msg-{len(sent)}"
            sent.append(payload)
            sender.multicast("g", payload)
        elif op == "split" and not partitioned[0]:
            cut = data.draw(st.integers(1, 6), label="cut")
            world.partition(
                [list(range(cut)), list(range(cut, 13))]
            )
            partitioned[0] = True
        elif op == "heal" and partitioned[0]:
            world.heal()
            partitioned[0] = False
        world.run_until_idle()
    if partitioned[0]:
        world.heal()
        world.run_until_idle()

    # Invariant 1: within the final view, members that share membership
    # agree on the order of the messages both delivered.
    live = [c for c in clients.values() if c.connected]
    for a in live:
        for b in live:
            pa = [m.payload for m in a.received]
            pb = [m.payload for m in b.received]
            common = [p for p in pa if p in pb]
            assert common == [p for p in pb if p in pa], (
                f"{a.name} and {b.name} disagree on common order"
            )
    # Invariant 2: nobody delivered a message that was never sent, and
    # nobody delivered anything twice.
    for c in clients.values():
        payloads = [m.payload for m in c.received]
        assert len(payloads) == len(set(payloads)), f"{c.name} duplicated"
        assert set(payloads) <= set(sent)
    # Invariant 3: all currently-connected members that are in the group
    # share the final view.
    final_views = {}
    for c in live:
        if c.views and c.name in c.views[-1].members:
            final_views[c.name] = c.views[-1].members
    for name, members in final_views.items():
        for other in members:
            if other in final_views:
                assert final_views[other] == members, (
                    f"{name} and {other} ended in different views"
                )


def _join_age(records):
    ordered = sorted(records.values(), key=lambda r: (r.birth, r.name))
    return tuple(r.name for r in ordered)


def _check_emitted_views(world):
    """Wrap every daemon's view emission: the view must list the group's
    records exactly, and the records must already be in join-age order."""
    emitted = []
    for daemon in world.daemons.values():

        def checking(view, also_to=(), daemon=daemon, emit=daemon._emit_view):
            records = daemon.table.groups.get(view.group, {})
            assert view.members == tuple(records) == _join_age(records)
            emitted.append(view)
            emit(view, also_to)

        daemon._emit_view = checking
    return emitted


_MACHINES = 4
_GROUPS = ("g", "h")


@given(
    script=st.lists(
        st.sampled_from(
            ["join", "leave", "disconnect", "split", "heal", "crash", "restart"]
        ),
        min_size=3,
        max_size=14,
    ),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_daemon_records_stay_in_join_age_order(script, data):
    """Views list members straight from the records, unsorted: a join
    appends and a configuration install rebuilds in ``(birth, name)``
    order, so after any schedule of joins, leaves, disconnects,
    partitions, heals and daemon crash-restarts every daemon's records —
    and every view it emits — must be in join-age order."""
    world = GcsWorld(
        Topology(
            "four",
            [Machine(f"q{i}", site="q") for i in range(_MACHINES)],
            site_latency_ms={},
        )
    )
    emitted = _check_emitted_views(world)
    clients = []
    crashed = set()
    partitioned = False

    def pick(label, options):
        return data.draw(st.sampled_from(sorted(options)), label=label)

    def spawn():
        machine = pick("machine", set(range(_MACHINES)) - crashed)
        client = world.channel(f"c{len(clients)}", machine)
        clients.append(client)
        return client

    for _ in range(3):
        spawn().join("g")
    world.run_until_idle()
    for op in script:
        connected = {c.name: c for c in clients if c.connected}
        if op == "join":
            if not connected or data.draw(st.booleans(), label="new client"):
                client = spawn()
            else:
                client = connected[pick("joiner", connected)]
            client.join(pick("group", _GROUPS))
        elif op in ("leave", "disconnect") and connected:
            client = connected[pick("client", connected)]
            if op == "leave":
                client.leave(pick("group", _GROUPS))
            else:
                client.disconnect()
        elif op == "split" and not partitioned:
            cut = data.draw(st.integers(1, _MACHINES - 1), label="cut")
            world.partition([range(cut), range(cut, _MACHINES)])
            partitioned = True
        elif op == "heal" and partitioned:
            world.heal()
            partitioned = False
        elif op == "crash" and len(crashed) < _MACHINES - 1:
            victim = pick("crash", set(range(_MACHINES)) - crashed)
            world.crash_daemon(victim)
            crashed.add(victim)
        elif op == "restart" and crashed:
            revived = pick("restart", crashed)
            world.restart_daemon(revived)
            crashed.discard(revived)
        world.run_until_idle()
        for daemon in world.daemons.values():
            for records in daemon.table.groups.values():
                assert tuple(records) == _join_age(records)
    assert emitted
