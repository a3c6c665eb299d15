"""Cliques GDH IKA.3 group Diffie-Hellman (paper §4.1, Figures 1 and 2).

The shared key is ``g^(r_1 r_2 ... r_n)``; it is never transmitted.
What circulates is the list of *partial keys* ``P_i = g^(∏_{j≠i} r_j)``
from which member *i* computes ``K = P_i^{r_i}``.  The **group controller**
(always the most recent member) builds and broadcasts this list; every
member caches the last list, which is what lets any member take over as
controller after the controller leaves.

Additive events (join = merge with one member):
  token round(s) through the new members → last new member broadcasts the
  accumulated value → every other member *factors out* its contribution
  (an Agreed message targeted at the new controller — §6.2.2 explains why
  this must be totally ordered and what that costs on a WAN) → the new
  controller exponentiates each factor with its fresh contribution and
  broadcasts the new partial-key list.

Subtractive events (leave / partition): the surviving controller deletes
the leavers' partial keys, refreshes its own contribution into every
remaining partial key, and broadcasts the list — one round, one message.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.gcs.messages import View, ViewEvent
from repro.protocols.base import KeyAgreementProtocol, ProtocolMessage, classify_event


class GdhProtocol(KeyAgreementProtocol):
    """One member's GDH IKA.3 instance."""

    name = "GDH"
    STEP_PHASES = {
        "gdh-token": "upflow",
        "gdh-upflow": "upflow",
        "gdh-factor": "factor-out",
        "gdh-keylist": "broadcast",
    }

    def __init__(self, member, group, rng, engine=None):
        super().__init__(member, group, rng, engine=engine)
        self._r: Optional[int] = None
        #: cached partial-key list from the last key-list broadcast
        self._partials: Dict[str, int] = {}
        self._factors: Dict[str, int] = {}
        self._chain: List[str] = []
        self._previous_members: Tuple[str, ...] = ()
        #: True while our contribution has been refreshed but not yet
        #: embedded in an adopted key list — a subtractive shift of a
        #: list that predates the refresh would silently mis-key us
        self._r_dirty = False
        #: epoch in which we last factored out our contribution (a key
        #: list built from this epoch's factors embeds our current
        #: contribution, so adopting it is safe even while dirty)
        self._factored_epoch: Optional[Tuple] = None

    # ------------------------------------------------------------------

    def start(self, view: View) -> List[ProtocolMessage]:
        self._begin_epoch(view)
        self._factors = {}
        self._chain: List[str] = []
        previous, self._previous_members = self._previous_members, view.members
        if len(view.members) == 1:
            return self._bootstrap()
        event = classify_event(view)
        if event in (ViewEvent.JOIN, ViewEvent.MERGE):
            return self._start_additive(view, previous)
        return self._start_subtractive(view)

    def restart(self, view: View) -> List[ProtocolMessage]:
        """Re-form from scratch after a declared stall.

        A stall means the cached lists or contributions diverged across
        members (that is exactly what the fast-path guards detect);
        retrying the cached-list paths would stall again forever.  Every
        member drops its cache — restart runs at the same point in the
        Agreed total order everywhere, so the reset is coordinated —
        and the oldest member leads initial key agreement.
        """
        self.key_epoch = None
        self._begin_epoch(view)
        self._factors = {}
        self._chain = []
        self._partials = {}
        self._factored_epoch = None
        # _r and _r_dirty survive: the restarted formation hands every
        # member a fresh contribution (and clears the flag) on its own.
        self._previous_members = view.members
        if len(view.members) == 1:
            return self._bootstrap()
        return self._start_formation(view)

    def _bootstrap(self) -> List[ProtocolMessage]:
        self._r = self.ctx.random_exponent(self.rng)
        self._partials = {self.member: self.group.g}
        self._r_dirty = False  # a singleton's list trivially embeds it
        self._complete(self.ctx.exp_g(self._r))
        return []

    # -- additive events (join / merge) ---------------------------------

    def _new_members(self) -> List[str]:
        """The merging members, in view order (canonical ``joined``)."""
        return [m for m in self.view.members if m in self.view.joined]

    def _start_additive(self, view: View, previous) -> List[ProtocolMessage]:
        new_members = self._new_members()
        old_members = [m for m in view.members if m not in view.joined]
        if not new_members or not old_members:
            # No prior subgroup survives intact.  This condition is
            # derived from the view alone, so every member reaches it
            # identically: initial key agreement, led by the oldest.
            return self._start_formation(view)
        old_controller = old_members[-1]
        if self.member != old_controller:
            # Exactly one member — the old controller — decides between
            # the cached-list fast path and re-formation.  After a
            # partition, a key-list broadcast may have been adopted on
            # one side only, so per-member fallback decisions can
            # disagree and race *two* agreements in one epoch; their
            # interleaved key lists then complete members with
            # mismatched contributions and the group silently diverges.
            return []
        if not set(old_members) <= set(self._partials):
            # Our cache cannot seed the token (a cascaded event
            # interrupted the previous agreement): re-form, led by us —
            # one initiator per epoch whichever path is taken.
            return self._start_formation(view, leader=self.member)
        # Refresh our contribution and launch the token down the new chain.
        self._r = self.ctx.random_exponent(self.rng)
        self._r_dirty = True
        token = self.ctx.exp(self._partials[self.member], self._r)
        self._chain = new_members
        return self._token(token, new_members, 0)

    def _start_formation(
        self, view: View, leader: Optional[str] = None
    ) -> List[ProtocolMessage]:
        """Initial key agreement: treat everyone but the leader as new.

        The leader defaults to the oldest member (the view-only fallback
        cases); the fast-path deciders pass themselves so that the
        member making the fallback decision is also the one initiator.
        """
        if leader is None:
            leader = view.oldest
        if self.member != leader:
            return []
        self._r = self.ctx.random_exponent(self.rng)
        self._r_dirty = True
        self._partials = {self.member: self.group.g}
        token = self.ctx.exp_g(self._r)
        chain = [m for m in view.members if m != self.member]
        self._chain = chain
        return self._token(token, chain, 0)

    def _token(
        self, value: int, chain: List[str], position: int
    ) -> List[ProtocolMessage]:
        """Pass the token, FIFO, to the chain's member at ``position``."""
        return [
            self._message(
                "gdh-token",
                {"value": value, "chain": list(chain)},
                target=chain[position],
                requires_agreed=False,
            )
        ]

    def receive(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        if self._stale(message):
            return []
        handler = {
            "gdh-token": self._on_token,
            "gdh-upflow": self._on_upflow,
            "gdh-factor": self._on_factor,
            "gdh-keylist": self._on_keylist,
        }.get(message.step)
        if handler is None:
            raise ValueError(f"unknown GDH step {message.step!r}")
        return handler(message)

    def _on_token(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        chain = list(message.body["chain"])
        self._chain = chain
        position = chain.index(self.member)
        if position == len(chain) - 1:
            # Last new member: the new controller.  Broadcast the
            # accumulated value *without* adding a contribution (Figure 1).
            self._factors["__upflow__"] = message.body["value"]
            return [
                self._message(
                    "gdh-upflow", {"value": message.body["value"], "chain": chain}
                )
            ]
        self._r = self.ctx.random_exponent(self.rng)
        self._r_dirty = True
        value = self.ctx.exp(message.body["value"], self._r)
        return self._token(value, chain, position + 1)

    def _on_upflow(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        # Everyone except the new controller factors out its contribution
        # and sends the result to the new controller, in Agreed order.
        self._chain = list(message.body["chain"])
        controller = self._chain[-1]
        if self.member == controller:
            self._factors["__upflow__"] = message.body["value"]
            return self._maybe_build_keylist()
        factor = self.ctx.exp(
            message.body["value"], self.ctx.inv_exponent(self._r)
        )
        self._factored_epoch = self.view.view_id
        return [self._message("gdh-factor", {"factor": factor}, target=controller)]

    def _on_factor(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        if not self._chain or self.member != self._chain[-1]:
            return []  # Agreed-targeted: only the controller processes it
        self._factors[message.sender] = message.body["factor"]
        return self._maybe_build_keylist()

    def _maybe_build_keylist(self) -> List[ProtocolMessage]:
        expected = len(self.view.members) - 1
        upflow = self._factors.get("__upflow__")
        have = len(self._factors) - ("__upflow__" in self._factors)
        if upflow is None or have < expected:
            return []
        self._r = self.ctx.random_exponent(self.rng)
        partials = {
            sender: self.ctx.exp(factor, self._r)
            for sender, factor in self._factors.items()
            if sender != "__upflow__"
        }
        partials[self.member] = upflow
        self._partials = partials
        self._r_dirty = False
        self._complete(self.ctx.exp(upflow, self._r))
        return [self._message("gdh-keylist", {"partials": dict(partials)})]

    def _on_keylist(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        if self._r_dirty and self._factored_epoch != self.view.view_id:
            # This key list was not built from our factor (we sent none
            # this epoch, so it must be a subtractive shift of a cached
            # list), and our contribution was refreshed by an agreement
            # that never completed — so the list embeds our *old*
            # contribution and the key we would compute silently differs
            # from everyone else's.  Stall instead; the epoch watchdog
            # drives a coordinated re-formation from scratch.
            return []
        self._partials = dict(message.body["partials"])
        self._complete(self.ctx.exp(self._partials[self.member], self._r))
        self._r_dirty = False
        return []

    # -- subtractive events (leave / partition) --------------------------

    def _start_subtractive(self, view: View) -> List[ProtocolMessage]:
        controller = view.newest  # the most recent remaining member
        if self.member != controller:
            # Single decision point, as in the additive case: only the
            # controller chooses between the one-round rekey and
            # re-formation, because cached lists can differ across
            # members after a partition interrupted an agreement.
            return []
        if self._r_dirty or not set(view.members) <= set(self._partials):
            # Our own contribution isn't embedded in our cache (an
            # interrupted agreement refreshed it), or the cache doesn't
            # cover the survivors: the shift rekey would mis-key the
            # group.  Re-form instead, led by us.
            return self._start_formation(view, leader=self.member)
        fresh = self.ctx.random_exponent(self.rng)
        shift = self.ctx.exponent_product(fresh, self.ctx.inv_exponent(self._r))
        partials = {}
        for member in view.members:
            if member == self.member:
                partials[member] = self._partials[member]
            else:
                partials[member] = self.ctx.exp(self._partials[member], shift)
        self._r = fresh
        self._partials = partials
        self._complete(self.ctx.exp(partials[self.member], self._r))
        return [self._message("gdh-keylist", {"partials": dict(partials)})]
