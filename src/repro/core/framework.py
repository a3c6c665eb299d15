"""The Secure Spread framework object: configuration and member factory.

One framework instance per deployment.  It owns the group communication
*transport* (the simulated world, or a live asyncio substrate — see
:mod:`repro.transport`), the DH group and cost model in force, the
per-group protocol registry (the paper's "different key agreement
protocols for different groups"), and the measurement timeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type, Union

from repro.core.timing import RekeyTimeline
from repro.crypto.costmodel import CostModel, pentium3_666
from repro.crypto.engine import EngineSpec, get_engine
from repro.crypto.groups import SchnorrGroup, get_group
from repro.crypto.rng import DeterministicRandom
from repro.crypto.rsa import RsaPublicKey
from repro.gcs.topology import Topology
from repro.gcs.world import GcsWorld
from repro.obs import Observability
from repro.protocols import available, get_protocol
from repro.protocols.base import KeyAgreementProtocol
from repro.transport.base import CAP_VIRTUAL_TIME, Transport


class SecureSpreadFramework:
    """A Secure Spread deployment on a transport substrate.

    ``substrate`` is either a :class:`~repro.gcs.topology.Topology` (the
    classic form: a simulated world is built around it) or an
    already-constructed :class:`~repro.transport.Transport` — e.g. the
    asyncio backend's :class:`~repro.net.runner.AsyncioTransport`, which
    runs the same protocols over real TCP sockets.
    """

    def __init__(
        self,
        substrate: Union[Topology, Transport],
        default_protocol: str = "TGDH",
        dh_group="dh-512",
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        sign_for_real: bool = False,
        rsa_bits: int = 512,
        observe: bool = False,
        engine: EngineSpec = None,
        stall_timeout_ms: Optional[float] = None,
    ):
        if default_protocol not in available():
            raise ValueError(
                f"unknown protocol {default_protocol!r}; "
                f"choose from {list(available())}"
            )
        if stall_timeout_ms is not None and not stall_timeout_ms > 0:
            raise ValueError(
                f"stall_timeout_ms must be positive (None disables the "
                f"watchdog), got {stall_timeout_ms}"
            )
        #: the crypto engine every member's protocol computes with;
        #: ``"symbolic"`` unlocks large-n runs with identical simulated
        #: timings (see :mod:`repro.crypto.engine`).
        self.engine = get_engine(engine)
        #: the deployment's flight recorder (spans + metrics); recording is
        #: passive, so enabling it never changes any measured time.
        self.obs = Observability(enabled=observe)
        if isinstance(substrate, Topology):
            #: the group communication substrate (Transport interface)
            self.transport: Transport = GcsWorld(substrate, obs=self.obs)
        else:
            self.transport = substrate
            self.transport.bind(self.obs)
        self.group: SchnorrGroup = get_group(dh_group)
        self.cost_model = cost_model or pentium3_666()
        self.seed = seed
        self.rng = DeterministicRandom(seed)
        #: epoch watchdog: how long a member waits on an incomplete rekey
        #: before proposing a coordinated restart (None disables the
        #: watchdog — the right setting for fault-free runs)
        self.stall_timeout_ms = stall_timeout_ms
        self.default_protocol = default_protocol
        self.sign_for_real = sign_for_real
        self.rsa_bits = rsa_bits
        self.timeline = RekeyTimeline()
        self._group_protocols: Dict[str, str] = {}
        self._members: Dict[str, "SecureGroupMember"] = {}

    @property
    def world(self) -> GcsWorld:
        """The simulated world behind the transport.

        Only the simulated substrate has one; fault injection, tracing
        and ``run(until=...)`` live there.  On a live transport this
        raises with a pointer to :attr:`transport` instead of failing
        deep inside whatever simulated-only feature was reached for.
        """
        transport = self.transport
        if CAP_VIRTUAL_TIME in transport.capabilities:
            return transport
        raise AttributeError(
            f"framework.world is the simulated substrate; this framework "
            f"runs on the {transport.kind!r} transport — use "
            "framework.transport (faults/partitions/tracing are "
            "simulator-only)"
        )

    # -- protocol registry ---------------------------------------------------

    def set_group_protocol(self, group_name: str, protocol: str) -> None:
        """Assign a key agreement protocol to a group (before members join)."""
        if protocol not in available():
            raise ValueError(
                f"unknown protocol {protocol!r}; "
                f"choose from {list(available())}"
            )
        self._group_protocols[group_name] = protocol

    def protocol_name(self, group_name: str) -> str:
        return self._group_protocols.get(group_name, self.default_protocol)

    def protocol_class(self, group_name: str) -> Type[KeyAgreementProtocol]:
        return get_protocol(self.protocol_name(group_name))

    # -- members ----------------------------------------------------------------

    def member(
        self, name: str, machine_index: int, group_name: str = "secure-group"
    ) -> "SecureGroupMember":
        """Create a member process on a machine (it has not joined yet)."""
        from repro.core.secure_group import ObservedMember, SecureGroupMember

        cls = ObservedMember if self.obs.enabled else SecureGroupMember
        member = cls(self, name, machine_index, group_name)
        self._members[name] = member
        return member

    def spawn_members(
        self, count: int, group_name: str = "secure-group", prefix: str = "m"
    ) -> List["SecureGroupMember"]:
        """Create ``count`` members distributed uniformly over the machines."""
        total = self.transport.machine_count()
        return [
            self.member(f"{prefix}{i}", i % total, group_name)
            for i in range(count)
        ]

    def members_of(self, group_name: str = "secure-group") -> List["SecureGroupMember"]:
        """All member processes created for ``group_name``, in creation order."""
        return [
            member for member in self._members.values()
            if member.group_name == group_name
        ]

    def public_key_of(self, member_name: str) -> RsaPublicKey:
        member = self._members[member_name]
        return member._keypair.public

    # -- measurement ------------------------------------------------------------

    @property
    def rekey_stalls(self) -> int:
        """Stalls the epoch watchdog declared, summed over all members."""
        return sum(m.stalls_detected for m in self._members.values())

    @property
    def rekey_restarts(self) -> int:
        """Coordinated rekey restarts executed, summed over all members."""
        return sum(m.restarts for m in self._members.values())

    def mark_event(self) -> None:
        """Mark "now" as a membership event's injection instant (both on
        the :class:`~repro.core.timing.RekeyTimeline` and, when
        observability is on, as a trace instant).

        The instant is also a trace *root*: it opens a fresh trace id and
        becomes the ambient cause, so every span the event sets in motion
        — frames, token waits, CPU batches, the final key installs —
        carries the same trace id and parents back to this vertex.
        """
        self.timeline.mark_event(self.now)
        if self.obs.enabled:
            causality = self.obs.causality
            trace = causality.begin_trace()
            span_id = causality.new_span_id()
            self.obs.instant(
                "membership", "event injected", "world", "world", self.now,
                span_id=span_id, trace_id=trace,
            )
            causality.adopt((span_id, trace))

    # -- lifetime -----------------------------------------------------------------

    def close(self) -> None:
        """Cut the cycles tying members, channels, daemons and key trees
        together, so reference counting frees a finished simulated run.
        Call it after the last read.  Idempotent; simulator only."""
        for member in self._members.values():
            member.client.on_message = member.client.on_view = None
            member.protocol.release()
        self._members.clear()
        self.world.close()

    def __enter__(self) -> "SecureSpreadFramework":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- running ----------------------------------------------------------------

    def run_until_idle(self, max_events: int = 2_000_000) -> None:
        self.transport.run_until_idle(max_events=max_events)

    @property
    def now(self) -> float:
        return self.transport.now
