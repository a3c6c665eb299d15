"""Deterministic arrival processes for sustained membership churn.

Each generator emits a finite, time-ordered stream of
:class:`ChurnEvent` — *when* which group gains or loses a member — from
nothing but its parameters and a seed, using a private
:class:`random.Random` instance so the stream is reproducible across
runs, processes and Python versions.  Inter-arrival gaps are computed as
``-log(1 - u) / rate`` directly from uniform draws rather than through
``Random.expovariate`` so the arithmetic is pinned down by this module,
not by stdlib implementation details.

Feasibility is decided at *generation* time: the generator tracks each
group's virtual population (starting at the settled group size) and only
emits a leave while the group stays above ``min_members``, so the engine
replaying the stream never has to skip an event.  Joins are always
feasible; the generators merely cap steady-state growth at
``max_members`` to keep runs bounded — the flash-crowd burst
deliberately ignores that cap, because overshooting is the scenario.

The four processes:

* :func:`poisson_stream` — memoryless steady-state churn at a constant
  rate, the baseline of the dynamic-group literature.
* :func:`flash_stream` — the Poisson background plus a tightly packed
  burst of joins at one instant (a flash crowd hitting every group).
* :func:`diurnal_stream` — a non-homogeneous Poisson process whose rate
  follows a sinusoidal day/night cycle, sampled by thinning.
* :func:`trace_stream` — replay of an explicit event list, validated
  and time-ordered.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

#: The two things a churn event can do to a group.
CHURN_ACTIONS = ("join", "leave")

#: Every arrival process a :class:`~repro.workload.spec.WorkloadSpec`
#: may name.
ARRIVALS = ("diurnal", "flash", "poisson", "trace")

#: Relative swing of the diurnal rate around its mean (±90 %).
DIURNAL_AMPLITUDE = 0.9

#: Gap between consecutive joins inside a flash burst, virtual ms.
FLASH_SPACING_MS = 1.0


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change: at ``at_ms`` (relative to the start of the
    sustained phase), group ``group`` gains or loses a member."""

    at_ms: float
    group: int
    action: str

    def __post_init__(self):
        if self.action not in CHURN_ACTIONS:
            raise ValueError(
                f"unknown churn action {self.action!r}; "
                f"choose from {list(CHURN_ACTIONS)}"
            )
        if not 0 <= self.at_ms < math.inf:  # NaN fails both comparisons
            raise ValueError(f"at_ms must be finite and non-negative, not {self.at_ms}")
        if self.group < 0:
            raise ValueError("group must be a non-negative index")

    def to_dict(self) -> dict:
        return {"at_ms": self.at_ms, "group": self.group, "action": self.action}

    @classmethod
    def from_dict(cls, data: dict) -> "ChurnEvent":
        try:
            return cls(
                at_ms=float(data["at_ms"]),
                group=int(data["group"]),
                action=data["action"],
            )
        except KeyError as missing:
            raise ValueError(
                f"churn event entry missing {missing.args[0]!r}: {data}"
            ) from None


def _pick_action(
    rng: random.Random,
    populations: List[int],
    group: int,
    min_members: int,
    max_members: int,
) -> Optional[str]:
    """Choose join/leave for ``group`` subject to feasibility, updating
    the virtual population; None when the group is pinned at both bounds."""
    population = populations[group]
    can_join = population < max_members
    can_leave = population > min_members
    if can_join and can_leave:
        action = "join" if rng.random() < 0.5 else "leave"
    elif can_join:
        action = "join"
    elif can_leave:
        action = "leave"
    else:
        return None
    populations[group] += 1 if action == "join" else -1
    return action


def poisson_stream(
    groups: int,
    group_size: int,
    rate_hz: float,
    duration_ms: float,
    seed: int,
    min_members: int = 2,
    max_members: Optional[int] = None,
) -> Tuple[ChurnEvent, ...]:
    """Steady-state churn: one Poisson process at ``rate_hz`` events/s
    across all groups, each event hitting a uniformly random group."""
    cap = 2 * group_size if max_members is None else max_members
    rng = random.Random(seed)
    populations = [group_size] * groups
    scale_ms = 1000.0 / rate_hz
    events: List[ChurnEvent] = []
    t = 0.0
    while True:
        t += -math.log(1.0 - rng.random()) * scale_ms
        if t >= duration_ms:
            return tuple(events)
        group = rng.randrange(groups)
        action = _pick_action(rng, populations, group, min_members, cap)
        if action is not None:
            events.append(ChurnEvent(t, group, action))


def flash_stream(
    groups: int,
    group_size: int,
    rate_hz: float,
    duration_ms: float,
    seed: int,
    min_members: int = 2,
    max_members: Optional[int] = None,
    burst_at_ms: Optional[float] = None,
    burst_joins: Optional[int] = None,
) -> Tuple[ChurnEvent, ...]:
    """Flash crowd: the Poisson background plus ``burst_joins`` joins
    packed :data:`FLASH_SPACING_MS` apart starting at ``burst_at_ms``
    (default: mid-run), round-robined over the groups.

    The burst only *adds* members, so merging it into the background
    stream cannot invalidate any background leave's feasibility.
    """
    at = duration_ms / 2.0 if burst_at_ms is None else burst_at_ms
    joins = 2 * groups if burst_joins is None else burst_joins
    background = poisson_stream(
        groups, group_size, rate_hz, duration_ms, seed,
        min_members=min_members, max_members=max_members,
    )
    burst = [
        ChurnEvent(at + j * FLASH_SPACING_MS, j % groups, "join")
        for j in range(joins)
    ]
    return tuple(sorted(background + tuple(burst), key=lambda e: e.at_ms))


def diurnal_stream(
    groups: int,
    group_size: int,
    rate_hz: float,
    duration_ms: float,
    seed: int,
    min_members: int = 2,
    max_members: Optional[int] = None,
    period_ms: Optional[float] = None,
) -> Tuple[ChurnEvent, ...]:
    """Diurnal cycle: a non-homogeneous Poisson process whose rate swings
    sinusoidally around ``rate_hz`` with period ``period_ms`` (default:
    one full cycle over the run), sampled by thinning against the peak
    rate so the accept/reject draws stay seed-deterministic."""
    cap = 2 * group_size if max_members is None else max_members
    period = duration_ms if period_ms is None else period_ms
    peak_hz = rate_hz * (1.0 + DIURNAL_AMPLITUDE)
    rng = random.Random(seed)
    populations = [group_size] * groups
    scale_ms = 1000.0 / peak_hz
    events: List[ChurnEvent] = []
    t = 0.0
    while True:
        t += -math.log(1.0 - rng.random()) * scale_ms
        if t >= duration_ms:
            return tuple(events)
        rate_now = rate_hz * (
            1.0 + DIURNAL_AMPLITUDE * math.sin(2.0 * math.pi * t / period)
        )
        if rng.random() * peak_hz >= rate_now:
            continue  # thinned: the candidate falls outside λ(t)
        group = rng.randrange(groups)
        action = _pick_action(rng, populations, group, min_members, cap)
        if action is not None:
            events.append(ChurnEvent(t, group, action))


def trace_stream(
    trace: Iterable,
    groups: Optional[int] = None,
) -> Tuple[ChurnEvent, ...]:
    """Replay an explicit event list (dicts or :class:`ChurnEvent`),
    validated and sorted by time.  ``groups``, when given, bounds the
    group indices the trace may reference."""
    events: List[ChurnEvent] = []
    for entry in trace:
        event = entry if isinstance(entry, ChurnEvent) else ChurnEvent.from_dict(entry)
        if groups is not None and event.group >= groups:
            raise ValueError(
                f"trace references group {event.group} but the workload "
                f"has only {groups} groups"
            )
        events.append(event)
    return tuple(sorted(events, key=lambda e: e.at_ms))


def stream_populations(
    events: Sequence[ChurnEvent], groups: int, group_size: int
) -> List[int]:
    """Replay a stream's population arithmetic: final member count per
    group.  Used by tests to assert the feasibility invariant."""
    populations = [group_size] * groups
    for event in events:
        populations[event.group] += 1 if event.action == "join" else -1
    return populations
