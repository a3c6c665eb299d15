"""Cross-protocol correctness tests: every protocol must satisfy these.

The paper's security discussion (§3.2) rests on two functional invariants
we can check mechanically: all current members always agree on the key
(agreement), and the key changes on every membership event with departed
members unable to follow (key freshness / independence at the state level).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols import available, get_protocol
from repro.protocols.loopback import LoopbackGroup, build_group

ALL = [(name, get_protocol(name)) for name in available()]


@pytest.mark.parametrize("name,cls", ALL)
class TestAgreement:
    def test_sequential_joins_agree(self, name, cls):
        loop = LoopbackGroup(cls)
        for i in range(6):
            loop.join(f"m{i}")
            loop.shared_key()  # raises on disagreement

    def test_key_changes_on_every_join(self, name, cls):
        loop = LoopbackGroup(cls)
        loop.join("m0")
        seen = {loop.shared_key()}
        for i in range(1, 6):
            loop.join(f"m{i}")
            key = loop.shared_key()
            assert key not in seen, "group key was reused after a join"
            seen.add(key)

    def test_key_changes_on_leave(self, name, cls):
        loop = build_group(cls, 5)
        old = loop.shared_key()
        loop.leave("m3")
        assert loop.shared_key() != old

    def test_departed_member_state_goes_stale(self, name, cls):
        loop = build_group(cls, 4)
        loop.leave("m1")
        new_key = loop.shared_key()
        departed = loop.departed["m1"]
        assert departed.key != new_key
        current_view = loop.protocols["m0"].view
        assert not departed.done_for(current_view)

    def test_mass_leave_partition(self, name, cls):
        loop = build_group(cls, 7)
        old = loop.shared_key()
        loop.mass_leave(["m1", "m4", "m5"])
        new = loop.shared_key()
        assert new != old
        assert loop.members() == ("m0", "m2", "m3", "m6")

    def test_partition_sides_diverge(self, name, cls):
        loop = build_group(cls, 6)
        side = loop.partition(["m1", "m2"])
        assert loop.shared_key() != side.shared_key()
        assert side.members() == ("m1", "m2")

    def test_merge_after_partition(self, name, cls):
        loop = build_group(cls, 6)
        before = loop.shared_key()
        side = loop.partition(["m4", "m5"])
        loop.merge(side)
        after = loop.shared_key()
        assert after != before
        assert loop.members() == tuple(f"m{i}" for i in range(6))

    def test_merge_of_larger_minority(self, name, cls):
        loop = build_group(cls, 5)
        side = loop.partition(["m0", "m1"])  # minority holds the oldest
        loop.merge(side)
        loop.shared_key()

    def test_mass_join(self, name, cls):
        loop = build_group(cls, 3)
        loop.mass_join(["x0", "x1", "x2"])
        loop.shared_key()
        assert len(loop.members()) == 6

    def test_group_formation_from_scratch_via_mass_join(self, name, cls):
        loop = LoopbackGroup(cls)
        loop.mass_join([f"m{i}" for i in range(5)])
        loop.shared_key()

    def test_shrink_to_one_and_regrow(self, name, cls):
        loop = build_group(cls, 3)
        loop.leave("m1")
        loop.leave("m2")
        assert loop.members() == ("m0",)
        solo_key = loop.shared_key()
        loop.join("m9")
        assert loop.shared_key() != solo_key

    def test_rejoin_after_leave(self, name, cls):
        loop = build_group(cls, 4)
        loop.leave("m2")
        key_without = loop.shared_key()
        loop.join("m2")
        assert loop.shared_key() != key_without
        assert "m2" in loop.members()

    def test_two_member_group_leave(self, name, cls):
        loop = build_group(cls, 2)
        loop.leave("m0")
        assert loop.members() == ("m1",)
        assert loop.shared_key() is not None

    def test_stale_messages_ignored(self, name, cls):
        from repro.protocols.base import ProtocolMessage

        loop = build_group(cls, 3)
        proto = loop.protocols["m0"]
        stale = ProtocolMessage(
            protocol=name,
            epoch=(99, 99),
            step="bogus-step",
            sender="m1",
            body={},
        )
        assert proto.receive(stale) == []


@pytest.mark.parametrize("name,cls", ALL)
class TestCounts:
    def test_ledgers_charge_work(self, name, cls):
        loop = build_group(cls, 4)
        stats = loop.join("x")
        assert stats.exponentiations() > 0

    def test_leave_is_single_round_except_bd(self, name, cls):
        loop = build_group(cls, 6)
        stats = loop.leave("m2")
        if name == "BD":
            assert stats.rounds == 2
        else:
            assert stats.rounds == 1
            assert stats.total_messages == 1

    def test_join_round_counts_match_table1(self, name, cls):
        loop = build_group(cls, 6)
        stats = loop.join("x")
        expected_rounds = {"GDH": 4, "CKD": 3, "BD": 2, "TGDH": 2, "STR": 2}
        assert stats.rounds == expected_rounds[name]


@st.composite
def _event_scripts(draw):
    """A random sequence of join/leave/partition-merge operations."""
    return draw(
        st.lists(
            st.sampled_from(["join", "leave", "mass_leave", "split_merge"]),
            min_size=1,
            max_size=8,
        )
    )


@pytest.mark.parametrize("name,cls", ALL)
@given(script=_event_scripts(), data=st.data())
@settings(max_examples=12, deadline=None)
def test_random_event_sequences_preserve_agreement(name, cls, script, data):
    """Property: after ANY sequence of membership events, all current
    members compute the same key, and it differs from the previous one."""
    loop = build_group(cls, 3)
    counter = [3]
    previous = loop.shared_key()
    for op in script:
        members = list(loop.members())
        if op == "join" or len(members) <= 2:
            loop.join(f"m{counter[0]}")
            counter[0] += 1
        elif op == "leave":
            victim = data.draw(st.sampled_from(members), label="leaver")
            loop.leave(victim)
        elif op == "mass_leave":
            count = data.draw(
                st.integers(1, len(members) - 1), label="leavers"
            )
            loop.mass_leave(members[-count:])
        else:  # split_merge
            count = data.draw(st.integers(1, len(members) - 1), label="split")
            chosen = data.draw(
                st.permutations(members), label="which"
            )[:count]
            side = loop.partition(list(chosen))
            side.shared_key()
            loop.merge(side)
        key = loop.shared_key()
        assert key != previous, f"{name} reused a key across {op}"
        previous = key


class TestLoopbackValidation:
    def test_double_join_rejected(self):
        loop = build_group(get_protocol("BD"), 3)
        with pytest.raises(ValueError):
            loop.join("m0")

    def test_leave_of_stranger_rejected(self):
        loop = build_group(get_protocol("BD"), 3)
        with pytest.raises(ValueError):
            loop.leave("ghost")

    def test_partition_needs_actual_members(self):
        loop = build_group(get_protocol("BD"), 3)
        with pytest.raises(ValueError):
            loop.partition(["ghost"])

    def test_partition_cannot_take_everyone(self):
        loop = build_group(get_protocol("BD"), 3)
        with pytest.raises(ValueError):
            loop.partition(["m0", "m1", "m2"])

    def test_merge_requires_same_protocol(self):
        a = build_group(get_protocol("BD"), 3)
        b = build_group(get_protocol("STR"), 2, prefix="s")
        with pytest.raises(ValueError):
            a.merge(b)

    def test_shared_key_raises_on_divergence(self):
        loop = build_group(get_protocol("BD"), 3)
        loop.protocols["m0"].key = 12345  # corrupt one member
        with pytest.raises(AssertionError):
            loop.shared_key()
