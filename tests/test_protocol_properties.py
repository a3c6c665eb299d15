"""Additional protocol-level properties: secrecy-shaped state invariants,
tree-height bounds under churn, and message hygiene."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols import available, get_protocol
from repro.protocols.loopback import build_group

ALL = [(name, get_protocol(name)) for name in available()]


@pytest.mark.parametrize("name,cls", ALL)
class TestMessageHygiene:
    def test_no_message_carries_the_group_key(self, name, cls):
        """The group key is never transmitted — only blinded/partial
        values (the defining property of contributory key agreement; for
        CKD the secret travels only exponent-blinded)."""
        loop = build_group(cls, 6)
        key = loop.shared_key()
        stats = loop.last_stats
        for message in stats.messages:
            assert key not in _ints_in(message.body), (
                f"{name} leaked the group key in {message.step}"
            )

    def test_no_message_carries_session_secrets(self, name, cls):
        """Members' private exponents never appear in any message."""
        loop = build_group(cls, 5)
        secrets = set()
        for proto in loop.protocols.values():
            for attr in ("_r", "_session", "_x"):
                value = getattr(proto, attr, None)
                if isinstance(value, int):
                    secrets.add(value)
        stats = loop.last_stats
        for message in stats.messages:
            carried = _ints_in(message.body)
            assert not (secrets & carried), (
                f"{name} leaked a private exponent in {message.step}"
            )

    def test_epochs_tag_every_message(self, name, cls):
        loop = build_group(cls, 4)
        stats = loop.join("x")
        epochs = {m.epoch for m in stats.messages}
        assert len(epochs) == 1


def _ints_in(value, found=None):
    found = set() if found is None else found
    if isinstance(value, bool):
        return found
    if isinstance(value, int):
        found.add(value)
    elif isinstance(value, dict):
        for k, v in value.items():
            _ints_in(k, found)
            _ints_in(v, found)
    elif isinstance(value, (list, tuple, set)):
        for item in value:
            _ints_in(item, found)
    return found


class TestTgdhHeightBound:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 30)),
            min_size=5,
            max_size=25,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_height_stays_logarithmic_under_churn(self, script):
        """The paper (footnote 7): TGDH's best-effort balancing keeps the
        height below 2·log2(n) for additive events; churn can degrade it
        but never past the number of members."""
        loop = build_group(get_protocol("TGDH"), 4)
        counter = [4]
        for grow, pick in script:
            members = list(loop.members())
            if grow or len(members) <= 2:
                loop.join(f"m{counter[0]}")
                counter[0] += 1
            else:
                loop.leave(members[pick % len(members)])
        tree = loop.protocols[loop.members()[0]]._tree
        n = len(loop.members())
        assert tree.height() < n
        # Internal consistency: member count matches the view.
        assert sorted(tree.members()) == sorted(loop.members())

    def test_sequential_joins_meet_the_paper_bound(self):
        for n in (8, 16, 32, 50):
            loop = build_group(get_protocol("TGDH"), n, prefix=f"h{n}-")
            height = loop.protocols[f"h{n}-0"]._tree.height()
            assert height <= 2 * math.ceil(math.log2(n))


class TestKeyEvolution:
    @pytest.mark.parametrize("name,cls", ALL)
    def test_fifty_events_never_repeat_a_key(self, name, cls):
        loop = build_group(cls, 4)
        seen = {loop.shared_key()}
        counter = 4
        for i in range(25):
            if i % 2 == 0:
                loop.join(f"m{counter}")
                counter += 1
            else:
                loop.leave(list(loop.members())[1])
            key = loop.shared_key()
            assert key not in seen, f"{name} repeated a key at event {i}"
            seen.add(key)
