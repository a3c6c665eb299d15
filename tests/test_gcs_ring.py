"""Tests for the token-ring sequencer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gcs.ring import TokenRing
from repro.gcs.topology import GcsParams, lan_testbed, wan_testbed
from repro.sim.engine import Simulator


def _ring(testbed=lan_testbed, machines=None):
    sim = Simulator()
    topo = testbed()
    ring = TokenRing(topo, machines or topo.machines, sim)
    return sim, ring


def _collector(collected):
    """A sequencing callback appending each ``(seq, time)`` it gets."""
    return lambda seq, at: collected.append((seq, at))


def _request(sim, ring, index, at=0.0):
    """Request one sequence number and collect the assignment."""
    collected = []
    sim.schedule_at(max(at, sim.now), ring.request, index, _collector(collected))
    return collected


def test_cycle_time_is_sum_of_hops():
    _, ring = _ring()
    # 13 hops of (0.08 link + 0.03 processing)
    assert ring.cycle_ms == pytest.approx(13 * 0.11)


def test_wan_cycle_dominated_by_site_links():
    _, ring = _ring(wan_testbed)
    expected = 10 * (0.08 + 0.03) + (17.5 + 0.03) + (75.0 + 0.03) + (67.5 + 0.03)
    assert ring.cycle_ms == pytest.approx(expected)


def test_sequencing_waits_for_token_arrival():
    sim, ring = _ring()
    got = _request(sim, ring, 5)
    sim.run_until_idle()
    ((seq, t),) = got
    assert seq == 1
    # Token starts at daemon 0 and travels 5 hops, plus message processing.
    assert t == pytest.approx(5 * 0.11 + 0.05)


def test_burst_sequencing_spaces_messages():
    sim, ring = _ring()
    requests = [_request(sim, ring, 0) for _ in range(3)]
    sim.run_until_idle()
    got = [assignment for (assignment,) in requests]
    seqs = [s for s, _ in got]
    times = [t for _, t in got]
    assert seqs == [1, 2, 3]
    assert times[1] - times[0] == pytest.approx(0.05)


def test_simultaneous_requests_serviced_in_ring_order():
    """One sweep services every daemon with pending messages — requests
    are NOT serialized by arrival order (a full-cycle penalty each)."""
    sim, ring = _ring()
    results = {}
    # Submit in descending daemon order at the same instant.
    for index in (7, 5, 3, 1):
        collected = _request(sim, ring, index)
        results[index] = collected
    sim.run_until_idle()
    times = {i: results[i][0][1] for i in results}
    assert times[1] < times[3] < times[5] < times[7]
    # All four serviced within a single rotation.
    assert times[7] - times[1] < ring.cycle_ms


def test_sequence_numbers_global_and_in_service_order():
    sim, ring = _ring()
    late = _request(sim, ring, 9)
    early = _request(sim, ring, 2)
    sim.run_until_idle()
    assert early[0][0] == 1
    assert late[0][0] == 2


def test_token_parks_and_resumes_with_correct_phase():
    sim, ring = _ring()
    first = _request(sim, ring, 0)
    sim.run_until_idle()
    # Long idle period; the token's virtual position keeps rotating.
    second = _request(sim, ring, 0, at=first[0][1] + 100.0)
    sim.run_until_idle()
    wait = second[0][1] - (first[0][1] + 100.0)
    assert 0 <= wait <= ring.cycle_ms + 0.2


def test_distance_is_directional():
    _, ring = _ring()
    assert ring.distance_ms[0][1] == pytest.approx(0.11)
    assert ring.distance_ms[1][0] == pytest.approx(12 * 0.11)
    assert ring.distance_ms[4][4] == 0.0


def test_single_daemon_ring():
    sim, ring = _ring(machines=lan_testbed().machines[:1])
    got = _request(sim, ring, 0, at=5.0)
    sim.run_until_idle()
    ((seq, t),) = got
    assert seq == 1
    assert t >= 5.0


def test_request_validation():
    sim, ring = _ring()
    with pytest.raises(IndexError):
        ring.request(99, lambda seq, at: None)


def test_ring_without_simulator_rejects_requests():
    topo = lan_testbed()
    ring = TokenRing(topo, topo.machines)
    with pytest.raises(RuntimeError):
        ring.request(0, lambda seq, at: None)


def test_empty_ring_rejected():
    with pytest.raises(ValueError):
        TokenRing(lan_testbed(), [], Simulator())


def test_average_token_wait_about_half_cycle():
    """Statistical: arrivals at random phases average ~cycle/2 of waiting."""
    sim, ring = _ring()
    samples = []
    t = 10.0
    for i in range(60):
        t += 7.919  # irrational-ish spacing to sample phases
        collected = _request(sim, ring, 3, at=t)
        samples.append((t, collected))
    sim.run_until_idle()
    waits = [col[0][1] - t0 for t0, col in samples]
    mean = sum(waits) / len(waits)
    assert 0.2 * ring.cycle_ms < mean < 0.9 * ring.cycle_ms


def test_flow_control_window_spreads_bursts_over_rotations():
    """Totem-style flow control: one daemon may sequence at most
    ``token_window`` messages per visit; excess waits a full rotation."""
    sim = Simulator()
    topo = lan_testbed(GcsParams(token_window=2))
    ring = TokenRing(topo, topo.machines, sim)
    requests = [_request(sim, ring, 0) for _ in range(5)]
    sim.run_until_idle()
    seqs, times = zip(*(assignment for (assignment,) in requests))
    assert seqs == (1, 2, 3, 4, 5)
    # Two messages per visit: the third and the fifth each wait a
    # rotation, while a visit's pair is one message-processing apart.
    assert times[1] - times[0] == pytest.approx(0.05)
    assert times[2] - times[1] > ring.cycle_ms / 2
    assert times[3] - times[2] == pytest.approx(0.05)
    assert times[4] - times[3] > ring.cycle_ms / 2


# -- the coasting token against a hop-by-hop oracle ---------------------------


class HopByHopRing(TokenRing):
    """The reference token: one simulator event per hop while active.

    Geometry and the parked arithmetic are the real ring's; requests,
    activation and visits are the straightforward discrete-event token
    that :class:`TokenRing` replays arithmetically.
    """

    def request(self, index, callback):
        self._pending.setdefault(index, []).append(callback)
        if not self._active:
            self._activate()

    def _activate(self):
        now = self._sim.now
        self._advance_to(now)
        if self._time < now:
            self._time += self._hop_ms[self._pos]
            self._pos = (self._pos + 1) % len(self._machines)
            self._time = max(self._time, now)
        self._active = True
        self._idle_hops = 0
        self._sim.schedule_at(self._time, self._visit)

    def _visit(self):
        index = self._pos
        queue = self._pending.pop(index, [])
        window = max(self._params.token_window, 1)
        burst, leftover = queue[:window], queue[window:]
        if leftover:
            self._pending[index] = leftover
        t = self._time
        if burst:
            self._idle_hops = 0
            for callback in burst:
                t += self._params.msg_processing_ms
                seq = self._next_seq
                self._next_seq += 1
                callback(seq, t)
        else:
            self._idle_hops += 1
        if not self._pending and self._idle_hops >= len(self._machines):
            self._active = False
            self._time = t
            return
        self._time = t + self._hop_ms[index]
        self._pos = (index + 1) % len(self._machines)
        self._sim.schedule_at(self._time, self._visit)


def _replay(ring_class, testbed, window, requests):
    """Run ``requests`` on a fresh ring; return every request's
    assignments, the final token state and the final clock."""
    sim = Simulator()
    topo = testbed(GcsParams(token_window=window))
    ring = ring_class(topo, topo.machines, sim)
    # Off the hop lattice: a tick is an irregular fraction of a rotation.
    quantum = ring.cycle_ms / 17.3
    got = {}

    def record(key):
        # what was assigned, and the instant the callback ran
        return lambda seq, at: got.setdefault(key, []).append(
            ((seq, at), sim.now)
        )

    def submit(key, index, chain):
        def served(seq, at):
            record(key)(seq, at)
            if chain is not None:
                ring.request(chain, record((key, "chain")))

        ring.request(index, served)

    for key, (tick, index, chain) in enumerate(requests):
        sim.schedule_at((tick + 0.371) * quantum, submit, key, index, chain)
    sim.run_until_idle()
    return got, (ring._pos, ring._time, ring._active), sim.now


@settings(max_examples=60, deadline=None)
@given(
    testbed=st.sampled_from([lan_testbed, wan_testbed]),
    window=st.integers(1, 4),
    requests=st.lists(
        st.tuples(
            st.integers(0, 120),
            st.integers(0, 12),
            st.none() | st.integers(0, 12),
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_coasting_ring_matches_hop_by_hop_token(testbed, window, requests):
    """Every ``(seq, time)`` assignment, the instant its callback runs and
    the final token state are the hop-by-hop token's, bit for bit —
    including requests made from inside a visit's callback and the clock
    the park event leaves."""
    assert _replay(TokenRing, testbed, window, requests) == _replay(
        HopByHopRing, testbed, window, requests
    )


@pytest.mark.parametrize("late", [False, True], ids=["early", "late"])
def test_request_at_the_token_arrival_instant_is_served_by_that_visit(late):
    """The tie rule.  The token serves daemon 0 at t=0 and then coasts
    past idle daemons; a request for daemon 3 landing at the exact float
    instant the token reaches it is served by that visit, whether the
    request was scheduled before the token started (``early``) or after
    the token left daemon 2 (``late``, which a hop-by-hop token would
    order behind its own visit event and serve a rotation later)."""
    sim, ring = _ring()
    topo = lan_testbed()
    params = topo.params
    machines = topo.machines
    first = _request(sim, ring, 0)
    # the token's arrival at daemon 3, with the hops' own float additions
    arrivals = [params.msg_processing_ms]
    for i in range(3):
        hop = topo.one_way_ms(machines[i], machines[i + 1]) + params.hop_processing_ms
        arrivals.append(arrivals[-1] + hop)
    at = arrivals[3]
    tied = []
    if late:
        sim.schedule_at(
            (arrivals[2] + at) / 2,
            lambda: sim.schedule_at(at, ring.request, 3, _collector(tied)),
        )
    else:
        sim.schedule_at(at, ring.request, 3, _collector(tied))
    sim.run_until_idle()
    assert first == [(1, params.msg_processing_ms)]
    assert tied == [(2, at + params.msg_processing_ms)]
