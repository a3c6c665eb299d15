"""Tree-based Group Diffie-Hellman (TGDH) (paper §4.3, Figures 4-7).

Every member replicates the key tree structure and all *published* blinded
keys, and knows the secret keys on the path from its own leaf to the root
(the root key is the group key).  After any membership event the structure
is updated deterministically, stale keys are invalidated, and **sponsors**
— always the rightmost member under the affected node — compute and
broadcast the missing blinded keys until every member can reach the root:

* join/merge: each (sub)group's sponsor broadcasts its refreshed tree
  (round 1); all members graft the trees at the rightmost shallowest
  insertion point; the sponsor under the merge point publishes the new
  blinded keys (round 2);
* leave: the departed leaf's sibling subtree is promoted and its rightmost
  member refreshes and rebroadcasts — one round;
* partition: the same machinery iterates — "if a sponsor could not compute
  the group key, the next sponsor comes into play" — for at most
  tree-height rounds (Figure 6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.protocols.base import KeyConfirmationError, ProtocolMessage, TreeProtocol
from repro.protocols.keytree import KeyTree, TreeNode, serialized_members


class TgdhProtocol(TreeProtocol):
    """One member's TGDH instance: the key tree behind the shared merge
    skeleton."""

    name = "TGDH"
    TREE_STEP, BKEYS_STEP = "tgdh-tree", "tgdh-bkeys"
    STEP_PHASES = {TREE_STEP: "tree-sync", BKEYS_STEP: "bkey-broadcast"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tree: Optional[KeyTree] = None
        self._sponsors: set = set()

    def _roster(self) -> List[str]:
        return self._tree.members() if self._tree is not None else []

    def _reset_singleton(self) -> None:
        self._session = self.ctx.random_exponent(self.rng)
        self._replace_tree(KeyTree.singleton(self.member, key=self._session))

    def _replace_tree(self, tree: Optional[KeyTree]) -> None:
        """Adopt ``tree`` as our replica; the one it replaces shares no
        node with it and is released (see :meth:`KeyTree.release`)."""
        if self._tree is not None:
            self._tree.release()
        self._tree = tree

    def release(self) -> None:
        self._replace_tree(None)

    def _apply_removal(self, doomed: List[str]) -> List[TreeNode]:
        return self._tree.remove_members(doomed)

    # -- additive: join and merge ----------------------------------------

    def _component(self) -> ProtocolMessage:
        # Refresh our session random, recompute the path, and broadcast
        # the component tree.
        self._refresh_leaf()
        self._compute_path_keys()
        self._fill_path_bkeys(include_root=True, unrestricted=True)
        return self._message(self.TREE_STEP, {"tree": self._tree.serialize()})

    def _members_of(self, component: Dict[str, object]) -> List[str]:
        return serialized_members(component["tree"])

    def _fold(self, components: List[Dict[str, object]]) -> List[ProtocolMessage]:
        trees = [KeyTree.deserialize(component["tree"]) for component in components]
        base = trees[0]
        intermediates = []
        for other in trees[1:]:
            intermediates.append(base.insert_tree(other))
        self._replace_tree(base)
        # The sponsors of the update round: the rightmost member under
        # each merge point ("the rightmost member of the subtree rooted at
        # the merge point becomes the sponsor", Figure 4).
        self._sponsors = {
            base.rightmost_member(node) for node in intermediates
        }
        leaf = self._tree.leaf_of(self.member)
        leaf.key = self._session
        return self._advance()

    # -- subtractive: leave and partition ---------------------------------

    def _start_subtractive(self, doomed: List[str]) -> List[ProtocolMessage]:
        promoted = self._apply_removal(doomed)
        attached = [
            node for node in promoted if self._is_attached(node)
        ]
        # Every promoted subtree's rightmost member is a sponsor
        # (Figure 6); the shallowest rightmost one also refreshes.
        self._sponsors = {
            self._tree.rightmost_member(node) for node in attached
        }
        refresher = self._pick_refresher(attached)
        self._sponsors.add(refresher)
        if refresher == self.member:
            self._refresh_leaf()
        else:
            # Everyone knows who refreshes and treats its old blinded keys
            # as stale until the sponsor's broadcast arrives.
            leaf = self._tree.leaf_of(refresher)
            leaf.bkey = None
            self._tree.invalidate_path(refresher)
        return self._advance()

    def _is_attached(self, node: TreeNode) -> bool:
        while node.parent is not None:
            node = node.parent
        return node is self._tree.root

    def _pick_refresher(self, promoted: List[TreeNode]) -> str:
        """The shallowest rightmost sponsor changes its share (Figure 6)."""
        if not promoted:
            return self._tree.rightmost_member()
        def rank(node: TreeNode):
            node_id = self._tree.node_id(node)
            # Shallowest first; rightmost ('1' > '0') wins ties.
            return (len(node_id), tuple(-int(b) for b in node_id))
        chosen = min(promoted, key=rank)
        return self._tree.rightmost_member(chosen)

    # -- the generic completion machinery ---------------------------------

    def _refresh_leaf(self) -> None:
        self._session = self.ctx.random_exponent(self.rng)
        leaf = self._tree.leaf_of(self.member)
        leaf.key = self._session
        leaf.bkey = None
        self._tree.invalidate_path(self.member)

    def _compute_path_keys(self) -> None:
        """Walk our path to the root computing every key we can."""
        path = self._tree.path(self.member)
        current = path[0]
        key = current.key
        for node in path[1:]:
            if node.key is not None:
                key = node.key
                current = node
                continue
            sibling = (
                node.right if node.left is current else node.left
            )
            if sibling.bkey is None:
                return
            node.key = self.ctx.exp(sibling.bkey, key % self.group.q)
            if self.key_confirmation and node.bkey is not None:
                recomputed = self.ctx.exp_g(node.key % self.group.q)
                if recomputed != node.bkey:
                    raise KeyConfirmationError(
                        f"{self.member}: blinded key mismatch at node "
                        f"{self._tree.node_id(node)!r}"
                    )
            key = node.key
            current = node

    def _fill_path_bkeys(
        self, include_root: bool, unrestricted: bool = False
    ) -> List[Tuple[str, int]]:
        """Publish blinded keys for path nodes we sponsor.

        A sponsor publishes every invalidated node on its path whose key it
        now knows — "computes the keys and blinded keys as far up the tree
        as possible, and then broadcasts the set of new blinded keys"
        (Figure 6).  When several sponsors sit under the same node, only
        the rightmost of them publishes it, so broadcasts stay disjoint.
        ``unrestricted`` is the round-1 component-sponsor mode, where the
        caller already knows it is the (only) sponsor of its own tree.

        Returns (node_id, bkey) pairs; each costs one exponentiation (the
        sponsor's 2-per-level work).
        """
        if not unrestricted and self.member not in self._sponsors:
            return []
        published = []
        for node in self._tree.path(self.member):
            if node is self._tree.root and not include_root:
                continue
            if node.key is None or node.bkey is not None:
                continue
            if not unrestricted and not self._publishes(node):
                continue
            node.bkey = self.ctx.exp_g(node.key % self.group.q)
            published.append((self._tree.node_id(node), node.bkey))
        return published

    def _publishes(self, node) -> bool:
        """True when we are the rightmost sponsor under ``node``."""
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                if current.member in self._sponsors:
                    # Rightmost-first DFS: the first sponsor found is the
                    # rightmost one under ``node``.
                    return current.member == self.member
            else:
                stack.append(current.left)
                stack.append(current.right)
        return False

    def _advance(self) -> List[ProtocolMessage]:
        """Compute upward, publish what we sponsor, detect completion."""
        self._compute_path_keys()
        published = self._fill_path_bkeys(include_root=False)
        root = self._tree.root
        if root.key is not None:
            self._complete(root.key)
        if not published:
            return []
        return [self._message(self.BKEYS_STEP, {"updates": dict(published)})]

    def _on_bkeys(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        for node_id, bkey in message.body["updates"].items():
            node = self._tree.find(node_id)
            if node is None:
                # A cascade left the sender's folded tree shaped
                # differently from ours; this attempt cannot complete.
                # Drop the unknown node and let the epoch watchdog
                # drive the coordinated restart (which re-forms the
                # tree from singleton leaves deterministically).
                continue
            node.bkey = bkey
        return self._advance()
