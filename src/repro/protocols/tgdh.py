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

from repro.gcs.messages import View, ViewEvent
from repro.protocols.base import KeyAgreementProtocol, ProtocolMessage, classify_event
from repro.protocols.keytree import KeyTree, TreeNode, serialized_members


class KeyConfirmationError(Exception):
    """A published blinded key does not match the locally computed key."""


class TgdhProtocol(KeyAgreementProtocol):
    """One member's TGDH instance.

    ``key_confirmation=True`` enables the behaviour §5 describes in the
    original Cliques implementation: every member re-computes each blinded
    key the sponsor published and checks it against its own keys ("a form
    of key confirmation").  It costs one extra exponentiation per tree
    level per member; the paper's measurements (and our default) use the
    optimized variant without it.
    """

    name = "TGDH"
    STEP_PHASES = {"tgdh-tree": "tree-sync", "tgdh-bkeys": "bkey-broadcast"}

    def __init__(
        self, member, group, rng, ledger=None, engine=None, key_confirmation=False
    ):
        super().__init__(member, group, rng, ledger, engine=engine)
        self.key_confirmation = key_confirmation
        self._session: Optional[int] = None
        self._tree: Optional[KeyTree] = None
        self._collected: Dict[Tuple[str, ...], object] = {}
        self._covered: set = set()
        self._pending_updates: List[Dict[str, int]] = []
        self._merging = False
        self._sponsors: set = set()

    # ------------------------------------------------------------------

    def start(self, view: View) -> List[ProtocolMessage]:
        self._begin_epoch(view)
        self._collected = {}
        self._covered = set()
        self._pending_updates = []
        self._merging = False
        self._sponsors = set()
        if len(view.members) == 1:
            return self._bootstrap()
        if classify_event(view) in (ViewEvent.JOIN, ViewEvent.MERGE):
            return self._start_additive(view)
        if self._tree is None or not set(view.members) <= set(
            self._tree.members()
        ):
            # A cascaded event interrupted a merge: our tree does not cover
            # the new membership.  Recover by re-merging the component
            # trees (each member's tree state is consistent within its
            # component, so the merge machinery reassembles the group).
            return self._start_additive(view)
        return self._start_subtractive(view)

    def restart(self, view: View) -> List[ProtocolMessage]:
        # An aborted run can leave component trees half-merged, and
        # *differently* so at different members.  Re-form from singleton
        # leaves: every member sponsors itself and the n-way merge
        # machinery reassembles the group tree deterministically.
        self.key_epoch = None
        self._session = self.ctx.random_exponent(self.rng)
        self._replace_tree(KeyTree.singleton(self.member, key=self._session))
        return self.start(view)

    def _bootstrap(self) -> List[ProtocolMessage]:
        self._session = self.ctx.random_exponent(self.rng)
        self._replace_tree(KeyTree.singleton(self.member, key=self._session))
        self._complete(self._session)
        return []

    def _replace_tree(self, tree: Optional[KeyTree]) -> None:
        """Adopt ``tree`` as our replica; the one it replaces shares no
        node with it and is released (see :meth:`KeyTree.release`)."""
        if self._tree is not None:
            self._tree.release()
        self._tree = tree

    def release(self) -> None:
        self._replace_tree(None)

    # -- additive: join and merge ----------------------------------------

    def _start_additive(self, view: View) -> List[ProtocolMessage]:
        self._merging = True
        members_set = set(view.members)
        joined_set = set(view.joined)
        have_tree = (
            self._tree is not None and self.member in self._tree.members()
        )
        if self.member in joined_set:
            # Merging side.  Keep our subgroup tree only if it is *live* —
            # all its members merge alongside us (tree ⊆ joined).  A stale
            # tree from a previous tenure is discarded.
            live = have_tree and set(self._tree.members()) <= joined_set
            if not live:
                self._session = self.ctx.random_exponent(self.rng)
                self._replace_tree(
                    KeyTree.singleton(self.member, key=self._session)
                )
            stale = [m for m in self._tree.members() if m not in members_set]
        else:
            # Base side: the tree must cover exactly the non-joined members.
            stale = [
                m
                for m in self._tree.members()
                if m != self.member
                and (m not in members_set or m in joined_set)
            ]
        if stale:
            self._tree.remove_members(stale)
        messages: List[ProtocolMessage] = []
        if self._tree.rightmost_member() == self.member:
            # Component sponsor: refresh our session random, recompute the
            # path, and broadcast the component tree (round 1).
            self._refresh_leaf()
            self._compute_path_keys()
            self._fill_path_bkeys(include_root=True, unrestricted=True)
            serialized = self._tree.serialize()
            self._register_tree(serialized)
            messages.append(
                self._message(
                    "tgdh-tree",
                    {"tree": serialized},
                    element_count=self._tree.bkey_count(),
                )
            )
            messages.extend(self._maybe_fold())
        return messages

    def _register_tree(self, serialized) -> None:
        members = serialized_members(serialized)
        self._covered.update(members)
        self._collected[tuple(sorted(members))] = serialized

    def _maybe_fold(self) -> List[ProtocolMessage]:
        # Cheap-first coverage test: the length compare is O(1) per
        # message; the full set equality runs only once, when the counts
        # finally line up.
        if len(self._covered) != len(self.view.members) or self._covered != set(
            self.view.members
        ):
            return []
        # The collected component trees must partition the membership.
        # A cascade can leave them *overlapping* (a member's stale
        # singleton alongside a full component tree that also contains
        # it); folding that would plant duplicate leaves and corrupt the
        # tree.  Every member sees the same Agreed broadcasts, so all of
        # them detect the overlap and stall identically — the epoch
        # watchdog then drives a coordinated restart from singleton
        # leaves, which always partitions cleanly.
        if sum(len(members) for members in self._collected) != len(
            self.view.members
        ):
            return []
        # Deterministic fold: largest tree first, ties by member names.
        trees = [
            KeyTree.deserialize(data)
            for _, data in sorted(
                self._collected.items(), key=lambda kv: (-len(kv[0]), kv[0])
            )
        ]
        base = trees[0]
        intermediates = []
        for other in trees[1:]:
            intermediates.append(base.insert_tree(other))
        self._replace_tree(base)
        # Dead until the next start(): nothing reads them once merged.
        self._collected = {}
        self._covered = set()
        # The sponsors of the update round: the rightmost member under
        # each merge point ("the rightmost member of the subtree rooted at
        # the merge point becomes the sponsor", Figure 4).
        self._sponsors = {
            base.rightmost_member(node) for node in intermediates
        }
        self._merging = False
        leaf = self._tree.leaf_of(self.member)
        leaf.key = self._session
        for updates in self._pending_updates:
            for node_id, bkey in updates.items():
                node = self._tree.find(node_id)
                if node is not None:  # unknown id: divergent fold, see receive()
                    node.bkey = bkey
        self._pending_updates = []
        return self._advance()

    # -- subtractive: leave and partition ---------------------------------

    def _start_subtractive(self, view: View) -> List[ProtocolMessage]:
        members_set = set(view.members)
        doomed = [m for m in self._tree.members() if m not in members_set]
        promoted = self._tree.remove_members(doomed)
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
        return [
            self._message(
                "tgdh-bkeys",
                {"updates": dict(published)},
                element_count=len(published),
            )
        ]

    # -- message handling ---------------------------------------------------

    def receive(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        if self._stale(message):
            return []
        if message.step == "tgdh-tree":
            if not self._merging:
                return []
            self._register_tree(message.body["tree"])
            return self._maybe_fold()
        if message.step == "tgdh-bkeys":
            if self._merging:
                # Structural fold not done yet; stash and apply after it.
                self._pending_updates.append(dict(message.body["updates"]))
                return []
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
        raise ValueError(f"unknown TGDH step {message.step!r}")
