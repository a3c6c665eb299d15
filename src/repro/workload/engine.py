"""The multi-group sustained-churn driver.

A :class:`WorkloadEngine` takes a :class:`~repro.workload.spec.WorkloadSpec`
and drives it on one simulated testbed: every group is grown to its
steady-state size with a single batched rekey, the churn stream and any
composed fault schedule are installed as ordinary simulator events
(relative to the same base instant), and the run proceeds until the
event queue drains.  Groups are staggered across the testbed machines so
hundreds of groups multiplex the same daemons instead of piling onto
machine 0 — the "different groups, different protocols, one framework"
deployment of the paper, at scale.  A daemon crash in the fault schedule
is followed: its members drop out of their group's roster, and joiners
are placed only on running daemons.

Measurement reads the framework's timeline: each member's key install
is observed into its group's ``member.rekey_ms`` log histogram
(:meth:`~repro.core.timing.RekeyTimeline.rekey_latency`; only epochs of
the *sustained* phase — the growth rekeys' latencies are dropped after
growth), and the engine merges every group's histogram into one exact
per-(protocol, arrival) aggregate for p50/p95/p99.  The flight recorder
stays off: a run returns its :class:`WorkloadResult` and nothing the
recorder would hold.  Throughput is member-epochs per virtual second
over the sustained window; ``converge_ms`` is the quiet tail between the
last injection (churn or fault) and the instant the simulator went idle
— the time-to-converge after the storm.

Everything downstream of the seed is deterministic: same spec, same
substrate ⇒ a bit-identical :class:`WorkloadResult`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from repro.core.driver import LARGE_RUN_MAX_EVENTS, GroupDriver
from repro.core.framework import SecureSpreadFramework
from repro.gcs.topology import resolve_testbed
from repro.obs.histo import LogHistogram
from repro.obs.metrics import MetricsRegistry
from repro.workload.arrivals import MIN_MEMBERS
from repro.workload.spec import WorkloadSpec

#: Epoch-watchdog timeout, virtual ms, armed by default for every
#: workload run and every chaos sample: comfortably above a clean LAN
#: rekey (tens of ms), so it fires only on lost progress, and far below
#: the livelock guard.  Sustained churn stalls rekeys even on a
#: fault-free network — cascaded events interrupt agreements mid-flight
#: — so unlike single-event benchmarks the watchdog is not optional here.
DEFAULT_STALL_TIMEOUT_MS = 400.0


@dataclass
class WorkloadResult:
    """Everything one sustained run reports, JSON-ready."""

    protocol: str
    arrival: str
    groups: int
    group_size: int
    seed: int
    topology: str
    engine: str
    events: int
    joins: int
    leaves: int
    skipped: int
    member_epochs: int
    duration_ms: float
    last_injection_ms: float
    makespan_ms: float
    converge_ms: float
    throughput_eps: float
    rekey_p50_ms: float
    rekey_p95_ms: float
    rekey_p99_ms: float
    rekey_mean_ms: float
    rekey_max_ms: float
    stalls: int
    restarts: int
    converged_groups: int

    @property
    def converged(self) -> bool:
        """Did every group end on one confirmed shared key?"""
        return self.converged_groups == self.groups

    def to_dict(self) -> dict:
        data = {field.name: getattr(self, field.name) for field in fields(self)}
        data["converged"] = self.converged
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadResult":
        known = {field.name for field in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})


class WorkloadEngine:
    """One sustained run on one framework; see the module docstring.

    Construct, then :meth:`run`; the drivers (each group's live member
    list is ``drivers[g].members``) and the framework stay inspectable
    afterwards (the multi-group key-isolation test reads
    them).  The benchmark's ``load`` cell
    (:func:`~repro.bench.load.run_load_cell`) runs one engine per cell
    and closes its framework on return.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        topology: str = "lan",
        dh_group: str = "dh-512",
        engine=None,
        stall_timeout_ms: Optional[float] = DEFAULT_STALL_TIMEOUT_MS,
        max_events: int = LARGE_RUN_MAX_EVENTS,
    ):
        self.spec = spec
        self.max_events = int(max_events)
        self.framework = SecureSpreadFramework(
            resolve_testbed(topology),
            default_protocol=spec.protocol,
            dh_group=dh_group,
            seed=spec.seed,
            engine=engine,
            stall_timeout_ms=stall_timeout_ms,
        )
        #: where a tripped livelock guard is counted (``run_load_cell``
        #: points it at the cell's registry)
        self.metrics = MetricsRegistry()
        #: one driver per group index; its ``members`` is the group's live
        #: roster, maintained through churn
        self.drivers: Dict[int, GroupDriver] = {}
        self.joins = self.leaves = self.skipped = 0
        self._machines = self.framework.transport.machine_count()
        self._next_machine = 0
        self._joiner_serial = [0] * spec.groups
        # Victim picks draw from a stream separate from the arrival
        # seed so changing the arrival process cannot reshuffle them.
        self._victim_rng = random.Random((spec.seed << 1) ^ 0x9E3779B9)
        self._base_ms = 0.0
        self._last_injection_ms = 0.0

    def group_name(self, group: int) -> str:
        return f"g{group}"

    # -- phases -------------------------------------------------------------

    def populate(self) -> None:
        """Grow every group to its steady-state size (one batched rekey
        per group), staggered over the machines, then forget the growth
        rekeys' latencies so percentiles cover only the sustained phase."""
        spec = self.spec
        for group in range(spec.groups):
            driver = GroupDriver(
                self.framework,
                self.group_name(group),
                prefix=f"g{group}.m",
                offset=group * spec.group_size,
                max_events=self.max_events,
                metrics=self.metrics,
                kind="load",
            )
            driver.grow_batched(spec.group_size)
            self.drivers[group] = driver
        self._next_machine = spec.groups * spec.group_size
        self.framework.timeline.metrics = MetricsRegistry()

    def inject(self) -> int:
        """Schedule the churn stream and the composed fault schedule,
        both relative to "now"; returns the number of churn events."""
        spec = self.spec
        events = spec.events()
        sim = self.framework.world.sim
        base = sim.now
        self._base_ms = base
        last = 0.0
        for event in events:
            last = max(last, event.at_ms)
            if event.action == "join":
                serial = self._joiner_serial[event.group]
                self._joiner_serial[event.group] = serial + 1
                name = f"{self.group_name(event.group)}.c{serial}"
                sim.schedule_at(base + event.at_ms, self._do_join, event.group, name)
            else:
                sim.schedule_at(base + event.at_ms, self._do_leave, event.group)
        schedule = spec.fault_schedule()
        if len(schedule):
            schedule.install(self.framework)
            last = max(last, max(e.at_ms for e in schedule))
        self._last_injection_ms = last
        return len(events)

    def _next_running_machine(self) -> Optional[int]:
        """The next machine in rotation whose daemon is up, or None when
        every daemon is down."""
        daemons = self.framework.world.daemons
        for _ in range(self._machines):
            machine = self._next_machine % self._machines
            self._next_machine += 1
            if not daemons[machine].crashed:
                return machine
        return None

    def _live_roster(self, group: int) -> List:
        """Group ``group``'s roster without the members a daemon crash
        disconnected (they hold no channel, so they neither leave nor
        key)."""
        roster = self.drivers[group].members
        roster[:] = [member for member in roster if member.client.connected]
        return roster

    def _do_join(self, group: int, name: str) -> None:
        machine = self._next_running_machine()
        if machine is None:
            self.skipped += 1
            return
        self.framework.mark_event()
        member = self.framework.member(name, machine, self.group_name(group))
        member.join()
        self.drivers[group].members.append(member)
        self.joins += 1

    def _do_leave(self, group: int) -> None:
        roster = self._live_roster(group)
        if len(roster) <= MIN_MEMBERS:
            # Unreachable for generated streams without crashes
            # (feasibility is decided at generation time); a replayed
            # trace or a crash can get here.
            self.skipped += 1
            return
        victim = roster.pop(self._victim_rng.randrange(len(roster)))
        self.framework.mark_event()
        victim.leave()
        self.leaves += 1

    # -- the run ------------------------------------------------------------

    def merged_histogram(self) -> LogHistogram:
        """All groups' ``member.rekey_ms`` histograms folded into one
        exact aggregate (integer buckets + fsum totals, so the fold is
        order-independent like every pool merge)."""
        merged = LogHistogram(
            "load.rekey_ms",
            (("arrival", self.spec.arrival), ("protocol", self.spec.protocol)),
        )
        for histogram in self.framework.timeline.metrics.log_histograms():
            merged.fold(histogram)
        return merged

    def run(self) -> WorkloadResult:
        spec = self.spec
        self.populate()
        injected = self.inject()
        # A tripped livelock guard is counted; report whatever converged.
        self.drivers[0].settle()
        for group in self.drivers:
            self._live_roster(group)
        end = self.framework.now
        makespan = end - self._base_ms
        converge = 0.0
        if injected or spec.faults:
            converge = end - (self._base_ms + self._last_injection_ms)
        merged = self.merged_histogram()
        percentiles = merged.percentiles()
        virtual_s = makespan / 1000.0
        converged_groups = sum(
            driver.converged_key() is not None
            for driver in self.drivers.values()
        )
        return WorkloadResult(
            protocol=spec.protocol,
            arrival=spec.arrival,
            groups=spec.groups,
            group_size=spec.group_size,
            seed=spec.seed,
            topology=self.framework.world.topology.name,
            engine=self.framework.engine.name,
            events=injected,
            joins=self.joins,
            leaves=self.leaves,
            skipped=self.skipped,
            member_epochs=merged.count,
            duration_ms=spec.duration_ms,
            last_injection_ms=self._last_injection_ms,
            makespan_ms=makespan,
            converge_ms=converge,
            throughput_eps=merged.count / virtual_s if virtual_s > 0 else 0.0,
            rekey_p50_ms=percentiles["p50"],
            rekey_p95_ms=percentiles["p95"],
            rekey_p99_ms=percentiles["p99"],
            rekey_mean_ms=merged.mean,
            rekey_max_ms=merged.max if merged.max is not None else 0.0,
            stalls=self.framework.rekey_stalls,
            restarts=self.framework.rekey_restarts,
            converged_groups=converged_groups,
        )

    def unkeyed(self) -> List[dict]:
        """The end-of-run check, by name: every group without a confirmed
        shared key, with its newest view id and its members, each with
        the epoch it last installed and a short fingerprint of its key
        (``None`` while it holds none) — never the key itself.  View ids
        are rendered as strings, so the detail is JSON-ready."""
        detail = []
        for group, driver in self.drivers.items():
            if driver.converged_key() is not None:
                continue
            views = [m.protocol.view.view_id for m in driver.members if m.protocol.view]
            detail.append({
                "group": self.group_name(group),
                "view": str(max(views)) if views else None,
                "members": [_member_state(member) for member in driver.members],
            })
        return detail


def _member_state(member) -> dict:
    installed = member.installed_view.view_id if member.installed_view else None
    key = member.key_bytes
    return {
        "name": member.name,
        "epoch": None if installed is None else str(installed),
        "key": None if key is None else hashlib.sha256(key).hexdigest()[:8],
    }
