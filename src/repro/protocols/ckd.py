"""Centralized Key Distribution (CKD) (paper §4.2, Figure 3).

Not contributory: the group key is *generated* by the current controller —
always the **oldest** member — and distributed over long-term pairwise
channels established with authenticated two-party Diffie-Hellman.  Each
pairwise key survives as long as both parties stay in the group, so a
steady-state rekey is a single broadcast; the expensive case is a
controller change, which forces the new controller to re-establish a
channel with every member (the cost the paper weights into its leave
measurements with probability 1/n).

Distribution is by exponentiation: the controller broadcasts
``D_i = K_s^{e_i}`` where ``e_i`` is derived from the pairwise key with
member *i*, and member *i* recovers ``K_s = D_i^(e_i^-1 mod q)`` — which is
why CKD's computation scales linearly like GDH's (§5).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.gcs.messages import View
from repro.protocols.base import KeyAgreementProtocol, ProtocolMessage


class CkdProtocol(KeyAgreementProtocol):
    """One member's CKD instance."""

    name = "CKD"
    STEP_PHASES = {
        "ckd-pub": "channel-setup",
        "ckd-reply": "contribution",
        "ckd-dist": "distribution",
    }

    def __init__(self, member, group, rng, engine=None):
        super().__init__(member, group, rng, engine=engine)
        self._x: Optional[int] = None  # long-term DH private (chosen once)
        self._y: Optional[int] = None  # g^x
        self._pair: Dict[str, int] = {}  # pairwise DH secrets by peer name
        self._awaiting: set = set()

    # ------------------------------------------------------------------

    def _ensure_longterm(self) -> None:
        """Figure 3, step 1: "this selection is performed only once"."""
        if self._x is None:
            self._x = self.ctx.random_exponent(self.rng)
            self._y = self.ctx.exp_g(self._x)

    def _pair_exponent(self, peer: str) -> int:
        """Derive a nonzero exponent mod q from the pairwise DH secret."""
        secret = self._pair[peer]
        digest = hashlib.sha256(
            secret.to_bytes((secret.bit_length() + 7) // 8 or 1, "big")
        ).digest()
        return int.from_bytes(digest, "big") % (self.group.q - 1) + 1

    @property
    def controller(self) -> str:
        return self.view.oldest

    # ------------------------------------------------------------------

    def start(self, view: View) -> List[ProtocolMessage]:
        self._begin_epoch(view)
        self._ensure_longterm()
        # A pairwise channel lives only while both parties are in the
        # group: every member prunes channels to departed peers, keeping
        # both ends' channel state symmetric across partitions.
        current = set(view.members)
        for peer in [p for p in self._pair if p not in current]:
            del self._pair[peer]
        if len(view.members) == 1:
            secret = self.ctx.random_exponent(self.rng)
            self._complete(self.ctx.exp_g(secret))
            return []
        if self.member != self.controller:
            return []
        # Controller: establish any missing channels, then distribute.
        self._awaiting = {
            m for m in view.members if m != self.member and m not in self._pair
        }
        if self._awaiting:
            # Name the members we need replies from: their own channel state
            # may be stale (e.g. a rejoining member still caching the pair
            # from its previous tenure).
            return [
                self._message(
                    "ckd-pub", {"y": self._y, "needed": sorted(self._awaiting)}
                )
            ]
        return [self._distribute()]

    def receive(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        if self._stale(message):
            return []
        if message.step == "ckd-pub":
            return self._on_pub(message)
        if message.step == "ckd-reply":
            return self._on_reply(message)
        if message.step == "ckd-dist":
            self._on_dist(message)
            return []
        raise ValueError(f"unknown CKD step {message.step!r}")

    def _on_pub(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        if self.member == self.controller:
            return []
        if self.member not in message.body["needed"]:
            return []  # the controller already holds our channel
        self._pair[message.sender] = self.ctx.exp(message.body["y"], self._x)
        return [
            self._message(
                "ckd-reply",
                {"y": self._y},
                target=message.sender,
                requires_agreed=False,
            )
        ]

    def _on_reply(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        if self.member != self.controller:
            return []
        self._pair[message.sender] = self.ctx.exp(message.body["y"], self._x)
        self._awaiting.discard(message.sender)
        if self._awaiting:
            return []
        return [self._distribute()]

    def _distribute(self) -> ProtocolMessage:
        secret_exponent = self.ctx.random_exponent(self.rng)
        group_secret = self.ctx.exp_g(secret_exponent)
        table = {}
        for member in self.view.members:
            if member == self.member:
                continue
            table[member] = self.ctx.exp(group_secret, self._pair_exponent(member))
        self._complete(group_secret)
        return self._message("ckd-dist", {"table": table})

    def _on_dist(self, message: ProtocolMessage) -> None:
        blinded = message.body["table"][self.member]
        exponent = self._pair_exponent(message.sender)
        group_secret = self.ctx.exp(blinded, self.ctx.inv_exponent(exponent))
        self._complete(group_secret)
