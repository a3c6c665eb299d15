"""The binary key tree underlying TGDH (paper §4.3, Figures 4-7).

Every node carries a secret **key** (known only to the members below it)
and a public **blinded key** ``bkey = g^key`` (known group-wide once
published).  A leaf's key is its member's session random; an internal
node's key is the Diffie-Hellman agreement of its two children:
``key = bkey_sibling ^ key_child``.  The root key is the group key.

The tree structure evolves deterministically at every member — insertion
uses the paper's heuristic ("the rightmost shallowest node which does not
increase the height", footnote 5), and removal promotes the departed
leaf's sibling — so members only ever need to exchange blinded keys.

Secret keys are *local* state: a serialized tree carries blinded keys only
("the keys are never broadcasted", Figure 4's footnote).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class TreeNode:
    """One node of a key tree."""

    __slots__ = ("member", "left", "right", "parent", "key", "bkey", "_height")

    def __init__(
        self,
        member: Optional[str] = None,
        left: Optional["TreeNode"] = None,
        right: Optional["TreeNode"] = None,
    ):
        self.member = member
        self.left = left
        self.right = right
        self.parent: Optional[TreeNode] = None
        if left is not None:
            left.parent = self
        if right is not None:
            right.parent = self
        # Cached subtree height, maintained across structural mutations so
        # the insertion heuristic never re-walks whole subtrees.
        if left is None and right is None:
            self._height = 0
        else:
            self._height = 1 + max(left._height, right._height)
        #: secret key — local knowledge of the members below this node
        self.key: Optional[int] = None
        #: published blinded key — group knowledge; None means invalidated
        self.bkey: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.member is not None

    def height(self) -> int:
        return self._height

    def _recompute_height_up(self) -> None:
        """Refresh cached heights from this node to the root, stopping as
        soon as a recomputed value is unchanged (ancestors are then
        already correct)."""
        node: Optional[TreeNode] = self
        while node is not None:
            fresh = (
                0
                if node.is_leaf
                else 1 + max(node.left._height, node.right._height)
            )
            if fresh == node._height:
                return
            node._height = fresh
            node = node.parent

    def sibling(self) -> Optional["TreeNode"]:
        if self.parent is None:
            return None
        return self.parent.right if self.parent.left is self else self.parent.left


class KeyTree:
    """A member's replica of the group's key tree."""

    def __init__(self, root: TreeNode):
        self.root = root
        # member -> leaf node, so path walks don't rescan every leaf.
        self._leaf_index: Dict[str, TreeNode] = {
            leaf.member: leaf for leaf in self.leaves()
        }
        # Left-to-right member list, rebuilt lazily after structural
        # mutations (TGDH consults membership several times per received
        # message; callers treat the list as read-only).
        self._members_cache: Optional[List[str]] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def singleton(cls, member: str, key: Optional[int] = None) -> "KeyTree":
        node = TreeNode(member=member)
        node.key = key
        return cls(node)

    # -- queries ----------------------------------------------------------

    def leaves(self) -> List[TreeNode]:
        """All leaves, left to right."""
        found: List[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.member is not None:
                found.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return found

    def members(self) -> List[str]:
        """Member names, left to right (do not mutate the returned list)."""
        cached = self._members_cache
        if cached is None:
            cached = self._members_cache = [leaf.member for leaf in self.leaves()]
        return cached

    def leaf_of(self, member: str) -> TreeNode:
        try:
            return self._leaf_index[member]
        except KeyError:
            raise KeyError(f"{member} is not in the tree") from None

    def rightmost_member(self, node: Optional[TreeNode] = None) -> str:
        """The rightmost leaf's member under ``node`` (default: the root)."""
        node = node or self.root
        while not node.is_leaf:
            node = node.right
        return node.member

    def path(self, member: str) -> List[TreeNode]:
        """Nodes from the member's leaf up to (and including) the root."""
        node: Optional[TreeNode] = self.leaf_of(member)
        nodes = []
        while node is not None:
            nodes.append(node)
            node = node.parent
        return nodes

    def height(self) -> int:
        return self.root.height()

    def node_id(self, node: TreeNode) -> str:
        """Root-relative address: '' for the root, then '0'/'1' per step."""
        bits = []
        while node.parent is not None:
            bits.append("0" if node.parent.left is node else "1")
            node = node.parent
        return "".join(reversed(bits))

    def find(self, node_id: str) -> Optional[TreeNode]:
        """The node at ``node_id``, or None when the path does not exist
        in this tree (divergent shapes after an interrupted cascade)."""
        node = self.root
        for bit in node_id:
            if node is None:
                return None
            node = node.left if bit == "0" else node.right
        return node

    # -- structural mutation ----------------------------------------------

    def insertion_point(self, joining_height: int) -> TreeNode:
        """The paper's heuristic: the rightmost shallowest node where
        hanging a subtree of ``joining_height`` does not increase the
        tree's height; the root if no such node exists."""
        target_height = self.height()
        # A perfect tree has no suitable node at all (every node sits at
        # depth + height == target, so hanging anything under it adds a
        # level) — the BFS below would visit the whole tree just to fall
        # through to the root.  Perfection is a leaf count of 2^height,
        # so that worst case — every second join while a group doubles —
        # is answered in O(1).
        if len(self._leaf_index) == 1 << target_height:
            return self.root
        # A subtree at least as tall as the whole tree can only hang off
        # the root (any node below it would need depth + 1 + height ≤
        # height of the tree, impossible at depth ≥ 0) — the other O(1)
        # common case, merging two grown trees of equal height.
        if joining_height >= target_height:
            return self.root
        # Right-child-first level scan => within a depth, rightmost comes
        # first.  Children are only explored below *unsuitable* nodes:
        # the first suitable node seen is the answer, so nothing deeper
        # matters.  Plain per-level lists — no (node, depth) tuples, no
        # deque — because batched growth calls this once per joining
        # member per receiver, and the allocation churn is measurable.
        level = [self.root]
        limit = target_height - 1
        while level:
            nxt: List[TreeNode] = []
            for node in level:
                height = node._height
                if height < joining_height:
                    height = joining_height
                if height <= limit:
                    return node
                if node.member is None:
                    nxt.append(node.right)
                    nxt.append(node.left)
            level = nxt
            limit -= 1
        return self.root

    def insert_tree(self, other: "KeyTree") -> TreeNode:
        """Graft ``other`` as the right sibling of the insertion point.

        Returns the new intermediate node.  All keys and blinded keys from
        the intermediate node up to the root are invalidated.
        """
        anchor = self.insertion_point(other.height())
        parent = anchor.parent
        intermediate = TreeNode(left=anchor, right=other.root)
        if parent is None:
            self.root = intermediate
        else:
            if parent.left is anchor:
                parent.left = intermediate
            else:
                parent.right = intermediate
            intermediate.parent = parent
            parent._recompute_height_up()
        self._leaf_index.update(other._leaf_index)
        self._members_cache = None
        self._invalidate_up(intermediate)
        return intermediate

    def remove_members(self, names: Iterable[str]) -> List[TreeNode]:
        """Delete the given leaves, promoting each sibling (Figure 7).

        Returns the nodes whose subtrees were promoted (the points whose
        ancestors were invalidated).  Removal order is left-to-right tree
        order, which every member computes identically.
        """
        doomed = set(names)
        if not doomed:
            return []
        self._members_cache = None
        survivors = [m for m in self.members() if m not in doomed]
        if not survivors:
            raise ValueError("cannot remove every member from the tree")
        promoted: List[TreeNode] = []
        for name in [m for m in self.members() if m in doomed]:
            leaf = self.leaf_of(name)
            parent = leaf.parent
            if parent is None:  # removing the only node cannot happen here
                raise ValueError("cannot remove the last leaf")
            sibling = leaf.sibling()
            grand = parent.parent
            sibling.parent = grand
            if grand is None:
                self.root = sibling
            elif grand.left is parent:
                grand.left = sibling
            else:
                grand.right = sibling
            # Fully detach the removed leaf and its bypassed parent so
            # stale references (e.g. recorded promotion points) can be
            # recognized as no longer part of the tree.
            parent.parent = None
            leaf.parent = None
            del self._leaf_index[name]
            if grand is not None:
                grand._recompute_height_up()
            promoted.append(sibling)
            # Only nodes *above* the promotion point become stale; the
            # promoted subtree's own keys are still valid (freshness comes
            # from the sponsor's session-random refresh).
            self._invalidate_up(grand)
        self._members_cache = None
        return promoted

    def invalidate_path(self, member: str) -> None:
        """Invalidate everything above a leaf (after a session-key refresh)."""
        leaf = self.leaf_of(member)
        self._invalidate_up(leaf.parent)

    def release(self) -> None:
        """Cut every up-link of a tree its owner has discarded.

        Parent↔child links make every tree a reference cycle, which only
        a full collector pass frees; without the up-links the tree is
        freed by reference counting as soon as the last owner drops it.
        """
        for node in self._all_nodes():
            node.parent = None

    def _invalidate_up(self, node: Optional[TreeNode]) -> None:
        while node is not None:
            if not node.is_leaf:
                node.key = None
                node.bkey = None
            node = node.parent

    # -- serialization (blinded keys only) --------------------------------

    def serialize(self):
        """Nested-tuple form carrying structure and blinded keys only."""
        return _serialize(self.root)

    @classmethod
    def deserialize(cls, data) -> "KeyTree":
        return cls(_deserialize(data))

    def _all_nodes(self) -> List[TreeNode]:
        nodes = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                stack.append(node.left)
                stack.append(node.right)
        return nodes


def serialized_members(data) -> List[str]:
    """Member names in a serialized tree, without building any nodes.

    The registration path only needs the member set to track coverage;
    deserializing whole trees for that would dominate large merges.
    """
    members: List[str] = []
    stack = [data]
    while stack:
        item = stack.pop()
        if item[0] == "L":
            members.append(item[1])
        else:
            stack.append(item[1])
            stack.append(item[2])
    return members


def _serialize(node: TreeNode):
    if node.is_leaf:
        return ("L", node.member, node.bkey)
    return ("N", _serialize(node.left), _serialize(node.right), node.bkey)


def _deserialize(data) -> TreeNode:
    if data[0] == "L":
        node = TreeNode(member=data[1])
        node.bkey = data[2]
        return node
    node = TreeNode(left=_deserialize(data[1]), right=_deserialize(data[2]))
    node.bkey = data[3]
    return node
