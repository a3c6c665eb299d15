"""STR specifics: the skinny-tree chain, sponsor position, caching."""


from repro.crypto.groups import GROUP_TEST
from repro.crypto.rng import DeterministicRandom
from repro.gcs.messages import View, ViewEvent
from repro.protocols import StrProtocol
from repro.protocols.loopback import build_group


def _chain_key(order, protocols):
    """Recompute k_n = g^(r_n * g^(r_{n-1} * ...)) from member secrets."""
    q, p, g = GROUP_TEST.q, GROUP_TEST.p, GROUP_TEST.g
    key = protocols[order[0]]._session
    for member in order[1:]:
        key = pow(g, (protocols[member]._session * (key % q)) % q, p)
    return key


def test_key_matches_chain_definition():
    loop = build_group(StrProtocol, 6)
    order = loop.protocols["m0"]._order
    assert loop.shared_key() == _chain_key(order, loop.protocols)


def test_join_is_two_rounds_three_messages():
    loop = build_group(StrProtocol, 5)
    stats = loop.join("x")
    assert stats.rounds == 2
    assert stats.total_messages == 3


def test_new_member_joins_at_top():
    loop = build_group(StrProtocol, 4)
    loop.join("x")
    assert loop.protocols["m0"]._order[-1] == "x"


def test_leave_is_single_broadcast():
    loop = build_group(StrProtocol, 7)
    stats = loop.leave("m3")
    assert stats.rounds == 1
    assert stats.total_messages == 1


def test_leave_sponsor_is_member_below_leaver():
    loop = build_group(StrProtocol, 6)
    stats = loop.leave("m3")
    assert stats.messages[0].sender == "m2"


def test_bottom_leave_sponsor_is_new_bottom():
    loop = build_group(StrProtocol, 5)
    stats = loop.leave("m0")
    assert stats.messages[0].sender == "m1"
    assert loop.protocols["m1"]._order[0] == "m1"


def test_join_cost_per_member_constant_in_group_size():
    """Members cache the chain below the join point, so per-member join
    cost does not grow with n — what makes STR's join curve flat (Fig 11)."""
    costs = {}
    for n in (5, 25):
        loop = build_group(StrProtocol, n, prefix=f"g{n}m")
        stats = loop.join("x")
        costs[n] = stats.max_exponentiations()
    assert costs[25] <= costs[5] + 1


def test_join_serial_cost_about_seven():
    """§6.1.3: "BD involves only three full-blown exponentiations as
    opposed to STR's seven" — serial work = the sponsor's chain plus one
    (parallel) member's catch-up."""
    loop = build_group(StrProtocol, 10)
    stats = loop.join("x")
    sponsor_cost = stats.max_exponentiations()
    member_cost = stats.exponentiations("m0")
    serial = sponsor_cost + member_cost
    assert 5 <= serial <= 9
    assert sponsor_cost <= 6


def test_leave_cost_linear_with_three_halves_slope():
    """Figure 12: sponsor ~n exps plus members ~n/2 in the average case."""
    n = 20
    loop = build_group(StrProtocol, n)
    stats = loop.leave(f"m{n // 2}")  # the middle member, the paper's case
    sponsor = f"m{n // 2 - 1}"
    sponsor_cost = stats.exponentiations(sponsor)
    bottom_cost = stats.exponentiations("m0")
    assert n - 4 <= sponsor_cost <= n + 4
    assert n // 2 - 3 <= bottom_cost <= n // 2 + 3


def test_top_member_leave_is_cheap():
    loop = build_group(StrProtocol, 10)
    stats = loop.leave("m9")
    assert stats.max_exponentiations() <= 4


def test_merge_stacks_smaller_on_larger():
    loop = build_group(StrProtocol, 7)
    side = loop.partition(["m5", "m6"])
    loop.merge(side)
    order = loop.protocols["m0"]._order
    assert order[:5] == ["m0", "m1", "m2", "m3", "m4"]
    assert sorted(order[5:]) == ["m5", "m6"]


def test_merge_two_rounds():
    loop = build_group(StrProtocol, 6)
    side = loop.partition(["m4", "m5"])
    stats = loop.merge(side)
    assert stats.rounds == 2
    assert stats.total_messages == 3


def test_all_members_share_order():
    loop = build_group(StrProtocol, 6)
    loop.leave("m1")
    loop.join("z")
    reference = loop.protocols["m0"]._order
    for proto in loop.protocols.values():
        assert proto._order == reference


def test_blinded_keys_match_chain():
    loop = build_group(StrProtocol, 5)
    q, p, g = GROUP_TEST.q, GROUP_TEST.p, GROUP_TEST.g
    bottom = loop.protocols[loop.protocols["m0"]._order[0]]
    for proto in loop.protocols.values():
        for pos, key in proto._keys.items():
            published = proto._bk.get(pos)
            if published is not None:
                assert published == pow(g, key % q, p)


def test_leave_of_an_interrupted_joiner_has_one_sponsor(monkeypatch):
    """A join of ``c1`` is cut short after only the old top stacked it;
    then a LEAVE view removes ``c1``.  The members that never stacked it
    find no leaver in their stacks, and must still pick the top as the
    one sponsor: two sponsors draw two session randoms, two keys."""
    loop = build_group(StrProtocol, 4)
    protocols = dict(loop.protocols)
    protocols["c1"] = StrProtocol("c1", GROUP_TEST, DeterministicRandom(1))
    members = loop.members()
    join = View((1, 10), "g", members + ("c1",), ViewEvent.JOIN, joined=("c1",))
    sent = {name: protocols[name].start(join) for name in join.members}
    (joiner_tree,) = sent["c1"]
    protocols["m3"].receive(joiner_tree)  # only the old top stacks c1
    assert protocols["m3"]._order[-1] == "c1"
    assert protocols["m0"]._order[-1] == "m3"

    leave = View((1, 11), "g", members, ViewEvent.LEAVE, left=("c1",))
    installed = {name: [] for name in members}
    complete = StrProtocol._complete

    def recording(self, key):
        installed[self.member].append(key)
        complete(self, key)

    monkeypatch.setattr(StrProtocol, "_complete", recording)
    log, outbox = [], [m for name in members for m in protocols[name].start(leave)]
    while outbox:  # agreed order, in rounds
        log.extend(outbox)
        outbox = [
            reply
            for message in outbox
            for name in members
            if name != message.sender
            for reply in protocols[name].receive(message)
        ]
    assert [m.sender for m in log if m.step == "str-bkeys"] == ["m3"]
    assert all(len(keys) == 1 for keys in installed.values()), installed
    assert len({keys[0] for keys in installed.values()}) == 1
    assert all(protocols[name].done_for(leave) for name in members)
