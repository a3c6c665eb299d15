"""The one membership table every substrate derives its views through.

:class:`~repro.gcs.membership.MembershipTable` keeps rosters in join-age
order and names the canonical newcomers of a merge; the simulated daemon,
the live daemon and the loopback driver all call it, so a split and heal
must produce the same views on each of them.
"""

import pytest

from repro.gcs import GcsWorld, lan_testbed
from repro.gcs.membership import MembershipTable
from repro.gcs.messages import ViewEvent
from repro.protocols import get_protocol
from repro.protocols.loopback import build_group


class TestMembershipTable:
    def test_join_age_ordering(self):
        table = MembershipTable()
        table.join("g", "c")
        table.join("g", "a")
        table.join("g", "b")
        assert table.members("g") == ("c", "a", "b")

    def test_leave_then_rejoin_goes_last(self):
        table = MembershipTable()
        for name in ("c", "a", "b"):
            table.join("g", name)
        table.leave("g", "c")
        view = table.join("g", "c")
        assert view.members == table.members("g") == ("a", "b", "c")

    def test_duplicate_join_is_none(self):
        table = MembershipTable()
        assert table.join("g", "a") is not None
        assert table.join("g", "a") is None

    def test_leave_view_and_absent_leave(self):
        table = MembershipTable()
        table.join("g", "a")
        table.join("g", "b")
        view = table.leave("g", "a")
        assert view.members == ("b",)
        assert view.left == ("a",)
        assert view.event is ViewEvent.LEAVE
        assert table.leave("g", "zz") is None

    def test_view_ids_totally_ordered(self):
        table = MembershipTable()
        first = table.join("g", "a")
        second = table.join("h", "a")
        third = table.leave("g", "a")
        assert first.view_id < second.view_id < third.view_id

    def test_disconnect_leaves_every_group(self):
        table = MembershipTable()
        table.join("g", "a")
        table.join("h", "a")
        table.join("g", "b")
        views = table.disconnect("a")
        assert {view.group for view in views} == {"g", "h"}
        assert table.members("g") == ("b",)
        assert table.members("h") == ()


def _table(names, group="g"):
    table = MembershipTable()
    for name in names:
        table.join(group, name)
    return table


class TestReconfiguration:
    """Heavyweight views: a side tag per member decides the newcomers."""

    def test_partition_view_names_the_lost_side(self):
        table = _table("abcde")
        old = table.members("g")
        for name in "bd":
            table.remove("g", name)
        view = table.reconfigured("g", old)
        assert view.event is ViewEvent.PARTITION
        assert view.members == ("a", "c", "e")
        assert view.joined == ()
        assert view.left == ("b", "d")  # join-age order

    def test_merge_newcomers_are_outside_the_oldest_side(self):
        table = _table("abcde")
        majority = {name: table.groups["g"][name] for name in "abc"}
        minority = [table.groups["g"][name] for name in "de"]
        table.place("g", majority.values())
        old = table.members("g")
        table.place("g", [*majority.values(), *minority])
        view = table.reconfigured("g", old, lambda m: m in majority)
        assert view.event is ViewEvent.MERGE
        assert view.members == tuple("abcde")
        assert view.joined == ("d", "e")
        assert view.left == ()

    def test_merge_where_the_minority_holds_the_oldest(self):
        table = _table("abcde")
        minority = {"a", "b"}
        # Seen from the majority's side: a and b come back, but they hold
        # the oldest member, so c, d and e are the newcomers.
        old = ("c", "d", "e")
        view = table.reconfigured("g", old, lambda m: m in minority)
        assert view.members == tuple("abcde")
        assert view.joined == ("c", "d", "e")
        # ...and the minority's own side computes the same set.
        same = table.reconfigured("g", ("a", "b"), lambda m: m in minority)
        assert same.joined == view.joined

    def test_fresh_members_are_always_newcomers(self):
        table = _table("ab")
        old = table.members("g")
        table.add("g", "x")
        table.add("g", "y")
        view = table.reconfigured("g", old, dict.fromkeys(old, "old").get)
        assert view.joined == ("x", "y")
        formed = _table("xy", group="h")
        view = formed.reconfigured("h", (), lambda m: None)
        assert view.event is ViewEvent.MERGE
        assert view.joined == ("x", "y")

    def test_place_restores_join_age_and_unchanged_roster_is_none(self):
        table = _table("abc")
        records = list(table.groups["g"].values())
        table.place("g", reversed(records))
        assert table.members("g") == ("a", "b", "c")
        assert table.reconfigured("g", ("a", "b", "c")) is None

    def test_view_ids_follow_the_table_sequence(self):
        table = MembershipTable(config_id=1)
        first = table.join("g", "a")
        table.join("g", "b")
        old = table.members("g")
        table.remove("g", "b")
        assert first.view_id == (1, 1)
        assert table.reconfigured("g", old).view_id == (1, 3)
        given = table.reconfigured("g", ("a", "b"), view_id=((7, 0), 0))
        assert given.view_id == ((7, 0), 0)


def _fields(view):
    return view.event, view.members, view.joined, view.left


@pytest.mark.parametrize("minority", [("m0", "m1"), ("m3", "m4")])
def test_split_and_heal_agree_across_substrates(minority):
    """One group of five splits and heals on the simulated GCS and on the
    loopback driver: every partition and merge view agrees."""
    names = [f"m{i}" for i in range(5)]
    world = GcsWorld(lan_testbed())
    clients = {name: world.channel(name, i) for i, name in enumerate(names)}
    for client in clients.values():
        client.join("g")
        world.run_until_idle()
    cut = [names.index(name) for name in minority]
    world.partition([cut, [i for i in range(13) if i not in cut]])
    world.run_until_idle()
    gcs_split = {name: _fields(c.views[-1]) for name, c in clients.items()}
    world.heal()
    world.run_until_idle()
    gcs_heal = {name: _fields(c.views[-1]) for name, c in clients.items()}

    loop = build_group(get_protocol("BD"), 5)
    side = loop.partition(list(minority))
    loop_split = {
        name: _fields(group.protocols[name].view)
        for group in (loop, side)
        for name in group.members()
    }
    loop.merge(side)
    loop_heal = {name: _fields(loop.protocols[name].view) for name in names}

    assert gcs_split == loop_split
    assert gcs_heal == loop_heal
    assert {fields[0] for fields in gcs_split.values()} == {ViewEvent.PARTITION}
    event, _, joined, _ = gcs_heal["m0"]
    oldest_side = set(minority) if "m0" in minority else set(names) - set(minority)
    assert event is ViewEvent.MERGE
    assert joined == tuple(name for name in names if name not in oldest_side)
