"""Per-link fault policies: drop, delay, duplicate, reorder.

A :class:`LinkFaults` injector sits on :class:`repro.gcs.network.Network`
and is consulted for every inter-machine frame.  All randomness comes
from one :class:`~repro.crypto.rng.DeterministicRandom` stream forked
from the injector's seed, and the simulator fires events in a fixed
order, so a faulty run is exactly as reproducible as a clean one: same
seed, same policies, same schedule ⇒ bit-identical trace.

Policies follow the loss model of lossy-network TGDH studies (Rault &
Iannone, arXiv:2004.09966): independent per-frame Bernoulli loss plus
optional extra latency, jitter, duplication and reordering.  Frames a
machine sends to itself never traverse a link and are exempt, as are the
membership protocol's control frames unless ``affect_control`` is set —
Spread runs its configuration-change exchange over its own retransmitted
channel, which the simulator models as reliable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro.crypto.rng import DeterministicRandom


@dataclass(frozen=True)
class LinkPolicy:
    """Fault rates and delays for one direction of one link.

    ``drop``, ``duplicate`` and ``reorder`` are per-frame probabilities in
    ``[0, 1]``; ``delay_ms`` is added to every frame, ``jitter_ms`` is the
    width of a uniform extra delay, and a reordered frame is held back an
    extra ``reorder_delay_ms`` (enough to let later frames overtake it).
    """

    drop: float = 0.0
    delay_ms: float = 0.0
    jitter_ms: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay_ms: float = 2.0
    #: whether configuration-change control frames are also subject to
    #: this policy (default: the membership exchange stays reliable)
    affect_control: bool = False

    def __post_init__(self):
        for name in ("drop", "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        for name in ("delay_ms", "jitter_ms", "reorder_delay_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def is_noop(self) -> bool:
        return (
            self.drop == 0.0
            and self.delay_ms == 0.0
            and self.jitter_ms == 0.0
            and self.duplicate == 0.0
            and self.reorder == 0.0
        )

    def to_dict(self) -> dict:
        return {
            "drop": self.drop,
            "delay_ms": self.delay_ms,
            "jitter_ms": self.jitter_ms,
            "duplicate": self.duplicate,
            "reorder": self.reorder,
            "reorder_delay_ms": self.reorder_delay_ms,
            "affect_control": self.affect_control,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkPolicy":
        known = cls().to_dict()
        return cls(**{k: v for k, v in data.items() if k in known})


#: The do-nothing policy (module-level so ``policy_for`` can be cheap).
NO_FAULTS = LinkPolicy()


class FaultVerdict(NamedTuple):
    """What happens to one frame."""

    drop: bool = False
    extra_delay_ms: float = 0.0
    #: when set, deliver a second copy this much later than the first
    duplicate_delay_ms: Optional[float] = None


class LinkFaults:
    """Seeded per-link fault injector for a :class:`~repro.gcs.network.Network`.

    A default policy applies to every inter-machine link; per-direction
    overrides are keyed by ``(src_daemon_id, dst_daemon_id)``.
    """

    def __init__(self, seed: int = 0, default: Optional[LinkPolicy] = None):
        self._rng = DeterministicRandom(seed).fork("link-faults")
        self.default_policy = default or NO_FAULTS
        self._overrides: Dict[Tuple[int, int], LinkPolicy] = {}
        #: frames this injector dropped
        self.drops = 0

    @classmethod
    def uniform(cls, seed: int = 0, **policy_fields) -> "LinkFaults":
        """An injector applying one policy to every link."""
        return cls(seed=seed, default=LinkPolicy(**policy_fields))

    # -- policy management -------------------------------------------------

    def set_default(self, policy: LinkPolicy) -> None:
        self.default_policy = policy

    def set_link(self, src: int, dst: int, policy: LinkPolicy) -> None:
        """Install a policy for one direction of one link."""
        self._overrides[(src, dst)] = policy

    def set_pair(self, a: int, b: int, policy: LinkPolicy) -> None:
        """Install a policy for both directions between two daemons."""
        self.set_link(a, b, policy)
        self.set_link(b, a, policy)

    def clear(self) -> None:
        """Remove every policy (the injector becomes a no-op)."""
        self.default_policy = NO_FAULTS
        self._overrides.clear()

    def policy_for(self, src: int, dst: int) -> LinkPolicy:
        return self._overrides.get((src, dst), self.default_policy)

    # -- the per-frame decision --------------------------------------------

    def apply(self, src: int, dst: int, control: bool = False) -> FaultVerdict:
        """Decide one frame's fate.  Draws from the seeded stream only when
        the governing policy is active, so installing a no-op injector
        leaves the random stream (and hence the simulation) untouched."""
        policy = self.policy_for(src, dst)
        if policy.is_noop or (control and not policy.affect_control):
            return FaultVerdict()
        if policy.drop and self._rng.uniform(0.0, 1.0) < policy.drop:
            self.drops += 1
            return FaultVerdict(drop=True)
        extra = policy.delay_ms
        if policy.jitter_ms:
            extra += self._rng.uniform(0.0, policy.jitter_ms)
        if policy.reorder and self._rng.uniform(0.0, 1.0) < policy.reorder:
            extra += policy.reorder_delay_ms
        duplicate_delay = None
        if policy.duplicate and self._rng.uniform(0.0, 1.0) < policy.duplicate:
            duplicate_delay = max(policy.reorder_delay_ms, 0.1)
        return FaultVerdict(False, extra, duplicate_delay)
