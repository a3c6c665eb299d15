"""Timed fault scenarios, replayable from a plain spec dict.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`
injections — partitions, heals, daemon crashes and restarts, and
link-policy changes — installed on a
:class:`~repro.core.framework.SecureSpreadFramework` as ordinary
simulator events.  Because the simulator is deterministic and every
injection is either parameter-free or seeded, replaying the same
schedule with the same seed reproduces the run bit-for-bit.

A schedule carries faults, not churn: members join and leave through
:class:`~repro.core.driver.GroupDriver` and the workload engine, which
keep the rosters the convergence checks read.

Scenario builders (:func:`partition_storm`, :func:`coordinator_kill`)
capture the paper's §5 stress cases: merges arriving mid-agreement and
the coordinator dying at the worst moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.faults.link import LinkFaults, LinkPolicy

#: every action a schedule may perform, and the args it understands
ACTIONS = {
    "partition": ("components", "detection_delay_ms"),
    "heal": ("detection_delay_ms",),
    "crash": ("machine", "detection_delay_ms"),
    "restart": ("machine", "detection_delay_ms"),
    "link": ("policy", "src", "dst"),
    "link-clear": (),
}


@dataclass(frozen=True)
class FaultEvent:
    """One timed injection."""

    at_ms: float
    action: str
    args: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"choose from {sorted(ACTIONS)}"
            )
        if not 0 <= self.at_ms < math.inf:  # NaN fails both comparisons
            raise ValueError(f"at_ms must be finite and non-negative, not {self.at_ms}")
        allowed = set(ACTIONS[self.action])
        for key, _ in self.args:
            if key not in allowed:
                raise ValueError(
                    f"action {self.action!r} does not accept {key!r}"
                )

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.args)

    def to_dict(self) -> dict:
        spec = {"at_ms": self.at_ms, "action": self.action}
        spec.update(self.kwargs)
        return spec


def _event(at_ms: float, action: str, **kwargs) -> FaultEvent:
    return FaultEvent(at_ms, action, tuple(sorted(kwargs.items())))


class FaultSchedule:
    """A deterministic script of timed fault injections."""

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self.events: List[FaultEvent] = sorted(
            events, key=lambda e: e.at_ms
        )
        #: ``(virtual_time, action)`` log of injections actually applied
        self.applied: List[Tuple[float, str]] = []

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- construction -------------------------------------------------------

    def add(self, at_ms: float, action: str, **kwargs) -> "FaultSchedule":
        """Append one injection (chainable)."""
        self.events.append(_event(at_ms, action, **kwargs))
        self.events.sort(key=lambda e: e.at_ms)
        return self

    @classmethod
    def from_spec(cls, spec: Sequence[dict]) -> "FaultSchedule":
        """Build a schedule from a list of plain dicts.

        Each entry needs ``at_ms`` (or ``at``) and ``action``; remaining
        keys are the action's arguments.  ``link`` entries may give the
        policy inline as a dict under ``policy``.
        """
        events = []
        for entry in spec:
            entry = dict(entry)
            at_ms = entry.pop("at_ms", entry.pop("at", None))
            if at_ms is None:
                raise ValueError(f"spec entry missing 'at_ms': {entry}")
            action = entry.pop("action")
            events.append(_event(float(at_ms), action, **entry))
        return cls(events)

    def to_spec(self) -> List[dict]:
        """The inverse of :meth:`from_spec` (round-trips exactly)."""
        return [event.to_dict() for event in self.events]

    # -- installation -------------------------------------------------------

    def install(self, framework) -> "FaultSchedule":
        """Schedule every injection on the framework's simulator.

        Times are relative to the simulator clock at install time, so a
        schedule can be installed on a grown, settled group.  Returns
        ``self`` so the caller can inspect :attr:`applied` afterwards.
        """
        sim = framework.world.sim
        base = sim.now
        for event in self.events:
            sim.schedule_at(base + event.at_ms, self._apply, framework, event)
        return self

    def _apply(self, framework, event: FaultEvent) -> None:
        world = framework.world
        kwargs = event.kwargs
        self.applied.append((world.sim.now, event.action))
        if world.obs.enabled:
            world.obs.instant(
                "fault", event.action, "schedule", "world", world.sim.now
            )
        if event.action == "partition":
            world.partition(
                kwargs["components"],
                detection_delay_ms=kwargs.get("detection_delay_ms"),
            )
        elif event.action == "heal":
            world.heal(detection_delay_ms=kwargs.get("detection_delay_ms"))
        elif event.action == "crash":
            world.crash_daemon(
                kwargs["machine"],
                detection_delay_ms=kwargs.get("detection_delay_ms"),
            )
        elif event.action == "restart":
            world.restart_daemon(
                kwargs["machine"],
                detection_delay_ms=kwargs.get("detection_delay_ms"),
            )
        elif event.action == "link":
            faults = world.network.faults
            if faults is None:
                faults = LinkFaults(seed=getattr(framework, "seed", 0))
                world.install_link_faults(faults)
            policy = kwargs["policy"]
            if isinstance(policy, dict):
                policy = LinkPolicy.from_dict(policy)
            src, dst = kwargs.get("src"), kwargs.get("dst")
            if src is None and dst is None:
                faults.set_default(policy)
            else:
                faults.set_pair(src, dst, policy)
        elif event.action == "link-clear":
            if world.network.faults is not None:
                world.network.faults.clear()
        else:  # pragma: no cover - FaultEvent validates actions
            raise ValueError(f"unknown action {event.action!r}")


# -- canned scenarios -------------------------------------------------------


def partition_storm(
    components: Sequence[Sequence[int]],
    rounds: int = 3,
    period_ms: float = 200.0,
    start_ms: float = 0.0,
    detection_delay_ms: Optional[float] = None,
) -> FaultSchedule:
    """Alternating partition/heal cycles — the paper's cascaded
    partition+merge stress (§5)."""
    schedule = FaultSchedule()
    t = start_ms
    for _ in range(rounds):
        kwargs = {"components": [list(c) for c in components]}
        if detection_delay_ms is not None:
            kwargs["detection_delay_ms"] = detection_delay_ms
        schedule.add(t, "partition", **kwargs)
        heal_kwargs = {}
        if detection_delay_ms is not None:
            heal_kwargs["detection_delay_ms"] = detection_delay_ms
        schedule.add(t + period_ms / 2, "heal", **heal_kwargs)
        t += period_ms
    return schedule


def coordinator_kill(
    machine: int = 0,
    at_ms: float = 0.0,
    restart_after_ms: Optional[float] = None,
) -> FaultSchedule:
    """Kill the configuration coordinator's machine (lowest daemon id is
    always the coordinator), optionally restarting it later."""
    schedule = FaultSchedule().add(at_ms, "crash", machine=machine)
    if restart_after_ms is not None:
        schedule.add(at_ms + restart_after_ms, "restart", machine=machine)
    return schedule

