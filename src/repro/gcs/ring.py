"""Totem-style token-ring sequencer for Agreed multicast.

Spread orders Agreed messages by circulating a token among daemons: only
the token holder may sequence messages (§6.2.2 — "group communication
systems use a mechanism where a token is passed between participants and
only the entity that has the token is allowed to send").  This is the
mechanism behind two of the paper's WAN findings: every broadcast waits
for the token (on average half a ring rotation), and "simultaneous"
broadcasts from different members serialize on token visits — in *ring*
order, so one sweep services every daemon with pending messages.  Each
request asks for one sequence number: a token grant sequences one
message, and a visit serves at most ``token_window`` requests.

The token is in one of three states, and only work costs an event:

* **active** — requests are pending, or a rotation has not yet been
  quiet.  The token has exactly one scheduled event, aimed at its next
  visit that does something: the first daemon with pending requests or,
  with none pending, the *park point* (the visit that completes a full
  quiet rotation).  A request for a daemon the token reaches sooner
  re-aims it.
* **coasting** — between the aimed event and the last visit, the token's
  idle visits are not events.  They are replayed arithmetically, in hop
  order with the same float additions a hop-by-hop token makes, when the
  aimed event fires or a request arrives (a request first replays the
  visits strictly before now).  Every sequencing time is therefore the
  one a token that hopped as discrete events would give.  The one
  ordering choice the replay makes: a request at the very instant the
  token reaches its daemon is served by that visit.
* **parked** — a full rotation found nothing to sequence.  The park
  event still fires (it advances the clock exactly as far as the hopping
  token's last idle visit did, so later events keep their token phase);
  after it the position is tracked by arithmetic alone until the next
  request.

A message sequenced by daemon *s* becomes deliverable at daemon *d* only
once the token has swept from *s* to *d* (the ordering-settlement
barrier), which is what stretches a WAN Agreed delivery beyond raw
propagation time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.gcs.topology import Topology
from repro.sim.cpu import Machine
from repro.sim.engine import Event, Simulator

#: Callback type: receives ``(seq, sequenced_at_ms)`` for its message.
SequenceCallback = Callable[[int, float], None]


class TokenRing:
    """Sequencer for one daemon configuration.

    ``machines`` fixes the ring order (daemon-id order, which groups
    machines by site so the token crosses each WAN link once per cycle).
    """

    def __init__(
        self,
        topology: Topology,
        machines: Sequence[Machine],
        sim: Optional[Simulator] = None,
    ):
        if not machines:
            raise ValueError("a ring needs at least one daemon")
        self._machines = list(machines)
        self._params = topology.params
        self._sim = sim
        n = len(machines)
        self._hop_ms: List[float] = []
        for i in range(n):
            nxt = machines[(i + 1) % n]
            hop = topology.one_way_ms(machines[i], nxt) + self._params.hop_processing_ms
            self._hop_ms.append(hop)
        self.cycle_ms = sum(self._hop_ms)
        #: ``distance_ms[src][dst]``: token travel time from ring
        #: position ``src`` forward to ``dst``, zero when they are equal
        #: (the sequencer holds the token and needs no settlement sweep).
        #: Precomputed because every Agreed delivery reads its barrier
        #: here; each row accumulates hops in ring order.
        self.distance_ms: List[List[float]] = []
        for src in range(n):
            row = [0.0] * n
            total = 0.0
            i = src
            nxt = (i + 1) % n
            while nxt != src:
                total += self._hop_ms[i]
                row[nxt] = total
                i = nxt
                nxt = (i + 1) % n
            self.distance_ms.append(row)
        # Token state.  Parked: it was at position ``_pos`` at time
        # ``_time`` and has been rotating freely since.  Active: its next
        # visit not yet replayed is to ``_pos`` at ``_time``, after
        # ``_idle_hops`` consecutive quiet visits.
        self._pos = 0
        self._time = 0.0
        self._next_seq = 1
        self._active = False
        self._pending: Dict[int, List[SequenceCallback]] = {}
        self._idle_hops = 0
        #: the active token's one scheduled event (see :meth:`_aim`)
        self._aimed: Optional[Event] = None
        self._in_visit = False

    @property
    def next_seq(self) -> int:
        """The sequence number the next sequenced message will get."""
        return self._next_seq

    # -- parked-position arithmetic -----------------------------------------

    def _advance_to(self, now: float) -> None:
        """Move the parked token's state to where it would be at ``now``."""
        if self._time >= now or len(self._machines) == 1:
            return
        elapsed = now - self._time
        full_cycles = int(elapsed // self.cycle_ms)
        self._time += full_cycles * self.cycle_ms
        while self._time + self._hop_ms[self._pos] <= now:
            self._time += self._hop_ms[self._pos]
            self._pos = (self._pos + 1) % len(self._machines)

    # -- active-token arithmetic ---------------------------------------------

    def _coast(self, before: float) -> None:
        """Replay the idle visits the active token makes before ``before``.

        Each replayed visit is what a hop event did at a daemon with
        nothing pending: count one more quiet visit and move one hop on.
        ``before`` is never later than the aimed event, which is no later
        than the next visit with work or the park point, so every visit
        replayed here is idle and none of them parks the token.
        """
        hop_ms = self._hop_ms
        n = len(hop_ms)
        pos, t, idle = self._pos, self._time, self._idle_hops
        while t < before:
            idle += 1
            t += hop_ms[pos]
            pos = (pos + 1) % n
        self._pos, self._time, self._idle_hops = pos, t, idle

    def _aim(self) -> None:
        """Point the token's one event at its next visit that does work.

        That is the first daemon with pending requests or, with none
        pending, the park point (the visit completing a quiet rotation).
        An event already aimed no later than that is kept; a later one is
        cancelled and re-aimed.
        """
        pending = self._pending
        hop_ms = self._hop_ms
        n = len(hop_ms)
        pos, t, idle = self._pos, self._time, self._idle_hops
        while pos not in pending:
            idle += 1
            if not pending and idle >= n:
                break
            t += hop_ms[pos]
            pos = (pos + 1) % n
        aimed = self._aimed
        if aimed is not None:
            if aimed.time <= t:
                return
            aimed.cancel()
        self._aimed = self._sim.schedule_at(t, self._visit)

    # -- sequencing ----------------------------------------------------------

    def request(self, index: int, callback: SequenceCallback) -> None:
        """Ask for one sequence number at daemon ``index``.

        The callback fires when the token next visits ``index`` — requests
        across daemons are serviced in ring order, one sweep per rotation,
        exactly like a physical token.  A request made at the very instant
        the token reaches ``index`` is served by that visit.
        """
        if not 0 <= index < len(self._machines):
            raise IndexError(f"no daemon at ring position {index}")
        if self._sim is None:
            raise RuntimeError("this ring was built without a simulator")
        if self._active and not self._in_visit:
            self._coast(self._sim.now)
        self._pending.setdefault(index, []).append(callback)
        if not self._active:
            self._activate()
        elif not self._in_visit:
            self._aim()

    def _activate(self) -> None:
        now = self._sim.now
        self._advance_to(now)
        if self._time < now:
            # The token already left ``_pos``; it next arrives one hop on.
            self._time += self._hop_ms[self._pos]
            self._pos = (self._pos + 1) % len(self._machines)
            self._time = max(self._time, now)  # single-daemon rings
        self._active = True
        self._idle_hops = 0
        self._aim()

    def _visit(self) -> None:
        """The aimed event: coast up to now, service the queue, re-aim."""
        self._aimed = None
        self._coast(self._sim.now)
        index = self._pos
        queue = self._pending.pop(index, [])
        # Flow control: at most ``token_window`` messages per visit; the
        # rest wait for the next rotation (Totem's sequencing window).
        window = max(self._params.token_window, 1)
        burst = queue[:window]
        if len(queue) > window:
            self._pending[index] = queue[window:]
        t = self._time
        if burst:
            self._idle_hops = 0
            # Requests the callbacks make join the queue; they are aimed
            # for once this visit has moved the token on.
            self._in_visit = True
            for callback in burst:
                t += self._params.msg_processing_ms
                seq = self._next_seq
                self._next_seq = seq + 1
                callback(seq, t)
            self._in_visit = False
        else:
            self._idle_hops += 1
        if not self._pending and self._idle_hops >= len(self._machines):
            # A full quiet rotation: park here (lazy rotation resumes).
            self._active = False
            self._time = t
            return
        self._time = t + self._hop_ms[index]
        self._pos = (index + 1) % len(self._machines)
        self._aim()
