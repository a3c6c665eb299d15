"""Burmester-Desmedt (BD) group key agreement (paper §4.5, Figure 10).

BD is stateless across membership events and fully symmetric: for *any*
membership change, every member runs the same two broadcast rounds —

1. broadcast ``z_i = g^{r_i}``;
2. broadcast ``X_i = (z_{i+1} / z_{i-1})^{r_i}``;

and computes ``K = z_{i-1}^{n r_i} · X_i^{n-1} · X_{i+1}^{n-2} ··· X_{i-2}``
``= g^{r_1 r_2 + r_2 r_3 + ... + r_n r_1}``.

Only three full exponentiations per member, but ``n-1`` *small-exponent*
exponentiations hide in the key derivation (the paper's "hidden cost",
charged as modular multiplications), plus ``2n`` broadcasts and ``2(n-1)``
signature verifications per member — exactly the mix that makes BD the best
protocol for small LAN groups and the worst for large ones.
"""

from __future__ import annotations

from typing import Dict, List

from repro.gcs.messages import View
from repro.protocols.base import KeyAgreementProtocol, ProtocolMessage


class BdProtocol(KeyAgreementProtocol):
    """One member's Burmester-Desmedt instance."""

    name = "BD"
    STEP_PHASES = {"bd-z": "round-1", "bd-x": "round-2"}

    def __init__(self, member, group, rng, engine=None):
        super().__init__(member, group, rng, engine=engine)
        self._r = 0
        self._z: Dict[str, int] = {}
        self._x: Dict[str, int] = {}

    def start(self, view: View) -> List[ProtocolMessage]:
        self._begin_epoch(view)
        self._z = {}
        self._x = {}
        self._r = self.ctx.random_exponent(self.rng)
        z = self.ctx.exp_g(self._r)
        self._z[self.member] = z
        if len(view.members) == 1:
            self._complete(z)
            return []
        return [self._message("bd-z", {"z": z})]

    def receive(self, message: ProtocolMessage) -> List[ProtocolMessage]:
        # ``_stale`` and the per-step bookkeeping are inlined with local
        # bindings: every member receives every other member's two
        # broadcasts, so this body runs O(n²) times per rekey.
        view = self.view
        if view is None or message.epoch != view.view_id:
            return []
        step = message.step
        if step == "bd-z":
            z = self._z
            z[message.sender] = message.body["z"]
            if len(z) == len(view.members):
                return [self._second_round()]
            return []
        if step == "bd-x":
            x = self._x
            x[message.sender] = message.body["x"]
            if len(x) == len(view.members):
                self._derive_key()
            return []
        raise ValueError(f"unknown BD step {step!r}")

    def _neighbors(self) -> Dict[str, str]:
        members = self.view.members
        i = members.index(self.member)
        n = len(members)
        return {"prev": members[(i - 1) % n], "next": members[(i + 1) % n]}

    def _second_round(self) -> ProtocolMessage:
        around = self._neighbors()
        ratio = self.ctx.mul(
            self._z[around["next"]], self.ctx.inv_element(self._z[around["prev"]])
        )
        x = self.ctx.exp(ratio, self._r)
        self._x[self.member] = x
        return self._message("bd-x", {"x": x})

    def _derive_key(self) -> None:
        members = self.view.members
        n = len(members)
        i = members.index(self.member)
        prev = members[(i - 1) % n]
        # K = z_{i-1}^{n * r_i} * X_i^{n-1} * X_{i+1}^{n-2} * ... * X_{i-2}^1
        # in one request: one full exponentiation (the exponent is reduced
        # mod q, so its size is cryptographic, not small), then the hidden
        # cost of a small-exponent exponentiation and a multiplication per
        # X, whose descending weights the factor order implies.
        exponent = self.ctx.exponent_product(n % self.group.q, self._r)
        factors = [self._x[members[(i + offset) % n]] for offset in range(n - 1)]
        self._complete(self.ctx.weighted_product(self._z[prev], exponent, factors))
