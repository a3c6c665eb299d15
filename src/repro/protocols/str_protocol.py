"""STR: group key agreement on a fully imbalanced ("skinny") tree
(paper §4.4, Figures 8 and 9).

Members occupy positions 1..n from the bottom of the stack; member *i*
holds session random ``r_i`` with blinded random ``br_i = g^{r_i}``.  The
chain of node keys is ``k_1 = r_1`` and ``k_i = g^{r_i · k_{i-1}}`` —
computable either as ``br_i^{k_{i-1}}`` (by members below) or as
``bk_{i-1}^{r_i}`` (by member *i* itself, from the blinded node key
``bk_{i-1} = g^{k_{i-1}}``).  The group key is ``k_n``.

STR minimizes communication (join/merge: 2 rounds; leave/partition: a
single broadcast) and pays with linear computation: after a leave, the
sponsor — the member just below the deepest leaver — recomputes keys *and*
blinded keys all the way up (the ``3/2``-slope the paper measures in
Figure 12).  Members cache the keys below the change point, which is what
keeps *join* cost constant.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.protocols.base import KeyConfirmationError, ProtocolMessage, TreeProtocol


class StrProtocol(TreeProtocol):
    """One member's STR instance: the stack behind the shared merge
    skeleton."""

    name = "STR"
    TREE_STEP, BKEYS_STEP = "str-tree", "str-bkeys"
    STEP_PHASES = {TREE_STEP: "tree-sync", BKEYS_STEP: "bkey-broadcast"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._order: List[str] = []  # positions 1..n, bottom to top
        self._br: Dict[str, int] = {}  # blinded session randoms by member
        self._bk: Dict[int, int] = {}  # published blinded node keys by position
        self._keys: Dict[int, int] = {}  # locally known node keys by position

    def _roster(self) -> List[str]:
        return self._order

    def _reset_singleton(self) -> None:
        self._session = self.ctx.random_exponent(self.rng)
        blinded = self.ctx.exp_g(self._session)
        self._order = [self.member]
        self._br = {self.member: blinded}
        self._bk = {1: blinded}
        self._keys = {1: self._session}

    # -- additive: join and merge ----------------------------------------

    def _component(self) -> Optional[ProtocolMessage]:
        # The topmost member refreshes its session random, recomputes the
        # top key, and broadcasts the component stack.
        position = len(self._order)
        self._session = self.ctx.random_exponent(self.rng)
        self._br[self.member] = self.ctx.exp_g(self._session)
        if position == 1:
            top_key = self._session
            self._bk[1] = self._br[self.member]
        elif (position - 1) in self._bk:
            top_key = self.ctx.exp(self._bk[position - 1], self._session)
            self._bk[position] = self.ctx.exp_g(top_key % self.group.q)
        else:
            # A cascade trimmed the stack and superseded the epoch whose
            # broadcast would have published bk_{p-1}; we hold no node key
            # below our own position, so the component cannot be extended.
            # Stay silent — coverage never completes and the stall
            # watchdog re-forms from singleton stacks.
            return None
        # We never hold a node key below our own position, so the top key
        # is the only one left.
        self._keys = {position: top_key}
        return self._message(
            self.TREE_STEP,
            {"order": list(self._order), "br": dict(self._br), "bk": dict(self._bk)},
        )

    def _members_of(self, component: dict) -> List[str]:
        return component["order"]

    def _fold(self, components: List[dict]) -> List[ProtocolMessage]:
        base = components[0]
        base_size = len(base["order"])
        old_position = (
            self._order.index(self.member) + 1 if self.member in self._order else 0
        )
        in_base = self.member in base["order"]
        merged_order: List[str] = []
        merged_br: Dict[str, int] = {}
        for comp in components:
            merged_order.extend(comp["order"])
            merged_br.update(comp["br"])
        self._order = merged_order
        self._br = merged_br
        # Only the base component's blinded node keys survive the stacking;
        # everything above position base_size is recomputed.
        self._bk = {pos: bk for pos, bk in base["bk"].items() if pos <= base_size}
        if in_base:
            # Keys below the base top are untouched; the base-top key
            # itself is fresh only at the member who refreshed it (the
            # round-2 sponsor); everyone else recomputes it from the
            # refreshed blinded session random.
            keep_top = base_size if old_position == base_size else base_size - 1
            self._keys = {
                pos: key for pos, key in self._keys.items() if pos <= keep_top
            }
        else:
            self._keys = {}
        return self._advance(sponsor_position=base_size)

    # -- subtractive: leave and partition ----------------------------------

    def _start_subtractive(self, doomed: List[str]) -> List[ProtocolMessage]:
        sponsor_position = self._apply_removal(doomed)
        sponsor_member = self._order[sponsor_position - 1]
        if sponsor_member == self.member:
            # Sponsor: refresh, recompute keys and blinded keys up the
            # stack, broadcast them — the single round of Figure 9.
            self._session = self.ctx.random_exponent(self.rng)
            self._br[self.member] = self.ctx.exp_g(self._session)
        else:
            # The sponsor's session random is being refreshed; forget the
            # stale blinded value so the chain blocks until its broadcast.
            self._br.pop(sponsor_member, None)
        return self._advance(sponsor_position=sponsor_position)

    def _apply_removal(self, doomed: List[str]) -> int:
        """Remove members; return the sponsor position (new numbering).
        No leaver in this stack means every leaver sat above its top."""
        doomed_set = set(doomed)
        lowest_removed = min(
            (self._order.index(m) for m in doomed), default=len(self._order)
        )
        survivors_below = [
            m for m in self._order[:lowest_removed] if m not in doomed_set
        ]
        self._order = [m for m in self._order if m not in doomed_set]
        for member in doomed:
            self._br.pop(member, None)
        sponsor_position = max(1, len(survivors_below))
        self._bk = {
            pos: bk for pos, bk in self._bk.items() if pos < sponsor_position
        }
        self._keys = {
            pos: key for pos, key in self._keys.items() if pos < sponsor_position
        }
        return sponsor_position

    # -- key computation ----------------------------------------------------

    def _advance(self, sponsor_position: int) -> List[ProtocolMessage]:
        """Compute what we can; the sponsor publishes blinded keys."""
        i_am_sponsor = self._order[sponsor_position - 1] == self.member
        self._compute_chain(publish=i_am_sponsor)
        n = len(self._order)
        if n in self._keys:
            self._complete(self._keys[n])
        if not i_am_sponsor:
            return []
        return [
            self._message(
                self.BKEYS_STEP,
                {
                    "br": {self.member: self._br[self.member]},
                    "bk": dict(self._bk),
                    "order": list(self._order),
                },
            )
        ]

    def _my_position(self) -> int:
        return self._order.index(self.member) + 1

    def _compute_chain(self, publish: bool) -> None:
        """Walk node keys upward from the highest cached position."""
        n = len(self._order)
        p = self._my_position()
        start = max((pos for pos in self._keys if pos >= p), default=None)
        if start is None:
            # Derive our own node key from the blinded key below us.
            if p == 1:
                self._keys[1] = self._session
            elif (p - 1) in self._bk:
                self._keys[p] = self.ctx.exp(self._bk[p - 1], self._session)
            else:
                return  # blocked until the sponsor publishes bk_{p-1}
            start = p
        for j in range(start + 1, n + 1):
            member_j = self._order[j - 1]
            if member_j not in self._br:
                return
            self._keys[j] = self.ctx.exp(
                self._br[member_j], self._keys[j - 1] % self.group.q
            )
            if self.key_confirmation and j in self._bk:
                recomputed = self.ctx.exp_g(self._keys[j] % self.group.q)
                if recomputed != self._bk[j]:
                    raise KeyConfirmationError(
                        f"{self.member}: blinded key mismatch at position {j}"
                    )
        if publish:
            for j in range(p, n + 1):
                if j not in self._bk and j in self._keys:
                    self._bk[j] = self.ctx.exp_g(self._keys[j] % self.group.q)

    def _on_bkeys(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        self._br.update(message.body["br"])
        for pos, bk in message.body["bk"].items():
            self._bk[pos] = bk
        self._order = list(message.body["order"])
        self._compute_chain(publish=False)
        n = len(self._order)
        if n in self._keys:
            self._complete(self._keys[n])
        return []
