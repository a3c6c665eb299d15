"""TGDH specifics: sponsors, rounds, logarithmic costs, partitions."""

import gc
import math

from repro.bench.scale import run_scale_cell
from repro.protocols import TgdhProtocol
from repro.protocols.keytree import TreeNode
from repro.protocols.loopback import build_group


def test_join_is_two_rounds_three_messages():
    """Table 1: TGDH join/merge = 2 rounds, 3 messages."""
    loop = build_group(TgdhProtocol, 6)
    stats = loop.join("x")
    assert stats.rounds == 2
    assert stats.total_messages == 3
    steps = [m.step for m in stats.messages]
    assert steps.count("tgdh-tree") == 2  # both round-1 sponsors
    assert steps.count("tgdh-bkeys") == 1  # the round-2 sponsor


def test_leave_is_one_round_one_message():
    loop = build_group(TgdhProtocol, 8)
    stats = loop.leave("m3")
    assert stats.rounds == 1
    assert stats.total_messages == 1
    assert stats.messages[0].step == "tgdh-bkeys"


def test_trees_identical_at_all_members():
    loop = build_group(TgdhProtocol, 7)
    loop.leave("m2")
    loop.join("y")
    reference = None
    for proto in loop.protocols.values():
        shape = _shape(proto._tree.root)
        reference = reference or shape
        assert shape == reference


def _shape(node):
    if node.is_leaf:
        return (node.member, node.bkey)
    return (_shape(node.left), _shape(node.right), node.bkey)


def test_members_know_exactly_their_path_keys():
    """Each member knows the keys on its leaf-to-root path and only those."""
    loop = build_group(TgdhProtocol, 6)
    for name, proto in loop.protocols.items():
        path = set(map(id, proto._tree.path(name)))
        for node in proto._tree._all_nodes():
            if id(node) in path:
                assert node.key is not None
            elif not node.is_leaf:
                assert node.key is None, f"{name} knows an off-path key"


def test_blinded_keys_consistent_with_keys():
    """Wherever a member knows both, bkey == g^(key mod q)."""
    loop = build_group(TgdhProtocol, 6)
    grp = loop.group
    for proto in loop.protocols.values():
        for node in proto._tree._all_nodes():
            if node.key is not None and node.bkey is not None:
                assert node.bkey == pow(grp.g, node.key % grp.q, grp.p)


def test_sponsor_exponentiations_logarithmic():
    """The sponsor's work is O(log n), not O(n) — TGDH's selling point."""
    costs = {}
    for n in (8, 32):
        loop = build_group(TgdhProtocol, n, prefix=f"g{n}m")
        stats = loop.leave(f"g{n}m{n // 2}")
        costs[n] = stats.max_exponentiations()
    assert costs[32] <= costs[8] + 2 * (math.log2(32) - math.log2(8)) + 2


def test_partition_completes_within_height_rounds():
    """Figure 6: partition takes at most h sponsor rounds."""
    loop = build_group(TgdhProtocol, 16)
    height = loop.protocols["m0"]._tree.height()
    stats = loop.mass_leave([f"m{i}" for i in (1, 4, 7, 9, 12, 14)])
    assert stats.rounds <= height
    loop.shared_key()


def test_partition_of_half_the_group():
    loop = build_group(TgdhProtocol, 12)
    stats = loop.mass_leave([f"m{i}" for i in range(0, 12, 2)])
    assert loop.members() == tuple(f"m{i}" for i in range(1, 12, 2))
    loop.shared_key()


def test_merge_of_two_trees_keeps_both_structures():
    loop = build_group(TgdhProtocol, 8)
    side = loop.partition(["m1", "m2", "m3"])
    assert sorted(side.protocols["m1"]._tree.members()) == ["m1", "m2", "m3"]
    loop.merge(side)
    tree = loop.protocols["m0"]._tree
    assert sorted(tree.members()) == sorted(loop.members())


def test_root_bkey_is_never_broadcast():
    """"The keys are never broadcasted" — and the root *blinded* key is
    useless, so sponsors never publish it either (except as a component
    root during merges, where it becomes an internal node)."""
    loop = build_group(TgdhProtocol, 6)
    stats = loop.leave("m2")
    for message in stats.messages:
        if message.step == "tgdh-bkeys":
            assert "" not in message.body["updates"]


def test_join_sponsor_refreshes_session_random():
    loop = build_group(TgdhProtocol, 4)
    sponsor = loop.protocols["m0"]._tree.rightmost_member()
    before = loop.protocols[sponsor]._session
    loop.join("x")
    assert loop.protocols[sponsor]._session != before


def _tree_nodes():
    return sum(1 for obj in gc.get_objects() if type(obj) is TreeNode)


def test_replaced_trees_are_freed_without_the_cyclic_collector():
    """Every key tree is freed by reference counting: one a member
    replaces as soon as it is replaced, and the live ones when the cell's
    framework closes.  With the collector off, an n=32 scale cell leaves
    no tree node behind."""
    n = 32
    gc.collect()
    gc.disable()
    try:
        before = _tree_nodes()
        run_scale_cell({"protocol": "TGDH", "group_size": n, "dh_group": "dh-test"})
        left = _tree_nodes() - before
    finally:
        gc.enable()
        gc.collect()
    assert left == 0
