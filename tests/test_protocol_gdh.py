"""GDH (IKA.3) specifics: key structure, roles, costs."""

from repro.crypto.groups import GROUP_TEST
from repro.protocols import GdhProtocol
from repro.protocols.loopback import build_group


def _product_of_contributions(loop):
    product = 1
    q = GROUP_TEST.q
    for proto in loop.protocols.values():
        product = (product * proto._r) % q
    return product


def test_key_is_g_to_the_product_of_contributions():
    """The defining GDH property: K = g^(r_1 r_2 ... r_n)."""
    loop = build_group(GdhProtocol, 6)
    expected = pow(GROUP_TEST.g, _product_of_contributions(loop), GROUP_TEST.p)
    assert loop.shared_key() == expected


def test_key_after_leave_refreshes_controller_contribution():
    """IKA.3 leave: the controller swaps its own contribution for a fresh
    one but the departed member's old exponent remains a factor (the
    departed member still cannot compute the key: its partial key was
    removed from the broadcast list)."""
    loop = build_group(GdhProtocol, 5)
    loop.leave("m2")
    q, p, g = GROUP_TEST.q, GROUP_TEST.p, GROUP_TEST.g
    exponent = _product_of_contributions(loop)
    exponent = (exponent * loop.departed["m2"]._r) % q
    assert loop.shared_key() == pow(g, exponent, p)
    # ... and the departed member's partial key is gone from the list.
    controller = loop.protocols["m4"]
    assert "m2" not in controller._partials


def test_join_message_count_is_n_plus_3():
    """Table 1: GDH join = 4 rounds, n+3 messages (n = old group size)."""
    for n in (2, 5, 9):
        loop = build_group(GdhProtocol, n)
        stats = loop.join("x")
        assert stats.rounds == 4
        assert stats.total_messages == n + 3


def test_merge_rounds_scale_with_new_members():
    """Table 1: GDH merge = m+3 rounds, n+2m+1 messages."""
    for m in (2, 4):
        loop = build_group(GdhProtocol, 4)
        stats = loop.mass_join([f"x{i}" for i in range(m)])
        assert stats.rounds == m + 3
        assert stats.total_messages == 4 + 2 * m + 1


def test_leave_is_one_broadcast():
    loop = build_group(GdhProtocol, 8)
    stats = loop.leave("m5")
    assert stats.rounds == 1
    assert stats.total_messages == 1
    (message,) = stats.messages
    assert message.requires_agreed


def test_leave_broadcast_comes_from_newest_member():
    """The controller is, at all times, the most recent remaining member."""
    loop = build_group(GdhProtocol, 5)
    stats = loop.leave("m1")
    assert stats.messages[0].sender == "m4"


def test_controller_leave_promotes_previous_member():
    loop = build_group(GdhProtocol, 5)
    stats = loop.leave("m4")  # the controller itself leaves
    assert stats.messages[0].sender == "m3"
    loop.shared_key()


def test_leave_controller_exponentiations_linear():
    """Controller refreshes every remaining partial key: n-p exps."""
    loop = build_group(GdhProtocol, 10)
    stats = loop.leave("m0")
    controller = stats.messages[0].sender
    # n' - 1 partial key refreshes + 1 key computation
    assert stats.exponentiations(controller) == len(stats.members)


def test_factor_out_messages_are_agreed_targeted():
    """§6.2.2: factor-out unicasts must be Agreed-ordered broadcasts."""
    loop = build_group(GdhProtocol, 4)
    stats = loop.join("x")
    factors = [m for m in stats.messages if m.step == "gdh-factor"]
    assert len(factors) == 4
    assert all(m.requires_agreed for m in factors)
    assert all(m.target == "x" for m in factors)


def test_token_messages_are_fifo_unicasts():
    loop = build_group(GdhProtocol, 4)
    stats = loop.mass_join(["x0", "x1"])
    tokens = [m for m in stats.messages if m.step == "gdh-token"]
    assert len(tokens) == 2  # controller -> x0 -> x1
    assert all(not m.requires_agreed for m in tokens)


def test_all_members_cache_partial_keys():
    loop = build_group(GdhProtocol, 4)
    for proto in loop.protocols.values():
        assert set(proto._partials) == set(loop.members())


def test_new_controller_is_last_new_member():
    loop = build_group(GdhProtocol, 3)
    stats = loop.mass_join(["x0", "x1"])
    keylist = [m for m in stats.messages if m.step == "gdh-keylist"]
    assert len(keylist) == 1
    assert keylist[0].sender == "x1"


def test_partial_keys_exclude_own_contribution():
    """P_i = g^(prod of everyone's r except member i's)."""
    loop = build_group(GdhProtocol, 5)
    q, p, g = GROUP_TEST.q, GROUP_TEST.p, GROUP_TEST.g
    total = _product_of_contributions(loop)
    for name, proto in loop.protocols.items():
        expected = pow(g, (total * pow(proto._r, -1, q)) % q, p)
        assert proto._partials[name] == expected
