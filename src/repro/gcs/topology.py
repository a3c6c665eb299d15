"""Network topologies: the paper's testbeds and the knobs that shape latency.

Latency is modelled per daemon pair as propagation (one-way link latency) +
transmission (message size over link bandwidth), with small constants for
client-daemon IPC and per-message daemon processing.  The two testbeds:

* :func:`lan_testbed` — §6.1.1: thirteen 666 MHz dual-processor Pentium III
  machines on a switched LAN.
* :func:`wan_testbed` — §6.2.1 / Figure 13: eleven machines at JHU, one at
  UCI, one at ICU; round-trip latencies JHU–UCI 35 ms, UCI–ICU 150 ms,
  ICU–JHU 135 ms; mixed platforms (hence per-machine speed factors).
* :func:`medium_wan_testbed` — the paper's future-work setting (§7): a
  40–100 ms round-trip wide-area network where communication and
  computation costs are expected to equalize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.cpu import Machine


@dataclass(frozen=True)
class GcsParams:
    """Tunable constants of the group communication substrate (milliseconds)."""

    #: client <-> daemon IPC latency, each direction
    ipc_ms: float = 0.1
    #: token processing per daemon hop
    hop_processing_ms: float = 0.03
    #: per-message handling at a daemon (sequencing or receiving)
    msg_processing_ms: float = 0.05
    #: per-delivered-message handling at a client
    client_processing_ms: float = 0.1
    #: multiplier on the ring cycle time before an unreachable daemon is
    #: declared failed and a configuration change starts
    failure_detection_cycles: float = 3.0
    #: flow control: how many messages one daemon may sequence per token
    #: visit (Totem's per-visit window); excess waits for the next rotation
    token_window: int = 3
    #: how long a daemon waits on a sequence gap before requesting
    #: retransmission (Totem recovers lost frames via the token; we model
    #: it as a NACK to a peer daemon)
    retransmit_timeout_ms: float = 4.0
    #: delivered messages retained per configuration to serve
    #: retransmission requests
    retransmit_history: int = 256
    #: how many times the origin re-sends an Agreed frame lost to a link
    #: fault (Totem's circulating token recovers the multicast stream for
    #: as long as the configuration lives; the cap only bounds simulation
    #: work on totally dead links)
    retransmit_retries: int = 20


@dataclass(frozen=True)
class Link:
    """One-way characteristics between two machines."""

    latency_ms: float
    bytes_per_ms: float


class Topology:
    """A set of machines grouped into sites, with pairwise link properties."""

    def __init__(
        self,
        name: str,
        machines: List[Machine],
        site_latency_ms: Dict[Tuple[str, str], float],
        intra_site_latency_ms: float = 0.08,
        same_machine_latency_ms: float = 0.01,
        lan_bytes_per_ms: float = 12_500.0,  # 100 Mbit/s
        wan_bytes_per_ms: float = 1_250.0,  # 10 Mbit/s
        params: GcsParams = GcsParams(),
    ):
        self.name = name
        self.machines = machines
        self.params = params
        # Links are immutable and there are only a few kinds of them, so
        # each is built once here rather than per machine pair or frame.
        self._site_links = {
            key: Link(lat, wan_bytes_per_ms)
            for (a, b), lat in site_latency_ms.items()
            for key in ((a, b), (b, a))
        }
        self._intra_link = Link(intra_site_latency_ms, lan_bytes_per_ms)
        self._local_link = Link(same_machine_latency_ms, lan_bytes_per_ms)
        self._by_name = {m.name: m for m in machines}
        if len(self._by_name) != len(machines):
            raise ValueError("machine names must be unique")

    def machine(self, name: str) -> Machine:
        """Look up a machine by name."""
        return self._by_name[name]

    @property
    def sites(self) -> List[str]:
        """Site names in first-appearance order."""
        seen: List[str] = []
        for m in self.machines:
            if m.site not in seen:
                seen.append(m.site)
        return seen

    def link(self, src: Machine, dst: Machine) -> Link:
        """One-way link characteristics between two machines."""
        if src is dst:
            return self._local_link
        if src.site == dst.site:
            return self._intra_link
        key = (src.site, dst.site)
        link = self._site_links.get(key)
        if link is None:
            raise KeyError(f"no latency configured between {key}")
        return link

    def one_way_ms(self, src: Machine, dst: Machine, size_bytes: int = 0) -> float:
        """Propagation + transmission delay for a message of ``size_bytes``."""
        link = self.link(src, dst)
        return link.latency_ms + size_bytes / link.bytes_per_ms

    def round_trip_ms(self, src: Machine, dst: Machine) -> float:
        """Ping-style round trip between two machines (empty payload)."""
        return self.one_way_ms(src, dst) + self.one_way_ms(dst, src)


def lan_testbed(params: GcsParams = GcsParams()) -> Topology:
    """The paper's LAN cluster: 13 dual-processor 666 MHz PIII machines."""
    machines = [
        Machine(f"lan{i}", site="jhu-lan", cores=2, speed=1.0) for i in range(13)
    ]
    return Topology("lan", machines, site_latency_ms={}, params=params)


def wan_testbed(params: GcsParams = GcsParams()) -> Topology:
    """The paper's WAN testbed (Figure 13): JHU (11 machines), UCI, ICU.

    One-way latencies are half the reported ping RTTs: JHU-UCI 17.5 ms,
    UCI-ICU 75 ms, ICU-JHU 67.5 ms.  The paper mixes platforms (ten dual
    666 MHz PIIIs plus one faster Athlon and one slower PIII); we model the
    Athlon at UCI (speed 1.3) and the slower PIII at ICU (speed 0.65),
    which reproduces the paper's platform-dependent RSA timings.
    """
    machines = [
        Machine(f"jhu{i}", site="jhu", cores=2, speed=1.0) for i in range(11)
    ]
    machines.append(Machine("uci0", site="uci", cores=1, speed=1.3))
    machines.append(Machine("icu0", site="icu", cores=1, speed=0.65))
    return Topology(
        "wan",
        machines,
        site_latency_ms={
            ("jhu", "uci"): 17.5,
            ("uci", "icu"): 75.0,
            ("icu", "jhu"): 67.5,
        },
        params=params,
    )


def medium_wan_testbed(
    rtt_ms: float = 70.0, params: GcsParams = GcsParams()
) -> Topology:
    """The paper's future-work setting: a medium-delay (40-100 ms RTT) WAN.

    Three sites of 5/4/4 dual-CPU machines with symmetric ``rtt_ms``
    round-trip inter-site latency.
    """
    if not 1.0 <= rtt_ms <= 1000.0:
        raise ValueError("rtt_ms out of plausible range")
    machines = [Machine(f"a{i}", site="site-a", cores=2) for i in range(5)]
    machines += [Machine(f"b{i}", site="site-b", cores=2) for i in range(4)]
    machines += [Machine(f"c{i}", site="site-c", cores=2) for i in range(4)]
    one_way = rtt_ms / 2
    return Topology(
        f"medium-wan-{rtt_ms:g}ms",
        machines,
        site_latency_ms={
            ("site-a", "site-b"): one_way,
            ("site-b", "site-c"): one_way,
            ("site-c", "site-a"): one_way,
        },
        params=params,
    )


#: Named testbed factories, so experiment specs and CLIs can refer to a
#: topology by name instead of importing factories.
TESTBEDS = {
    "lan": lan_testbed,
    "wan": wan_testbed,
    "medium-wan": medium_wan_testbed,
}


def resolve_testbed(topology: str) -> Topology:
    """A fresh testbed by :data:`TESTBEDS` name; a custom testbed is a
    :class:`Topology` handed to the framework itself."""
    if topology not in TESTBEDS:
        raise ValueError(
            f"unknown topology {topology!r}; choose from {sorted(TESTBEDS)}"
        )
    return TESTBEDS[topology]()
