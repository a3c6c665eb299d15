"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run_until_idle()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(5, fired.append, label)
    sim.run_until_idle()
    assert fired == list("abcde")


def test_nested_scheduling():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(5, inner)

    def inner():
        fired.append(("inner", sim.now))

    sim.schedule(10, outer)
    sim.run_until_idle()
    assert fired == [("outer", 10), ("inner", 15)]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    sim.schedule(5, event.cancel)
    sim.run_until_idle()
    assert fired == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run_until_idle()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=100)
    assert sim.now == 100


def test_run_until_does_not_fire_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(50, fired.append, "early")
    sim.schedule(150, fired.append, "late")
    sim.run(until=100)
    assert fired == ["early"]
    assert sim.now == 100
    sim.run(until=200)
    assert fired == ["early", "late"]


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(i, fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert not sim.step()


def test_livelock_guard():
    sim = Simulator()

    def rescheduling():
        sim.schedule(1, rescheduling)

    sim.schedule(0, rescheduling)
    with pytest.raises(RuntimeError):
        sim.run_until_idle(max_events=100)


def test_run_until_idle_budget_is_exact():
    # Regression: the guard used to fire max_events + 1 events before
    # raising.  A queue of exactly max_events drains cleanly ...
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run_until_idle(max_events=5)
    assert sim.events_processed == 5
    # ... and one event more raises after the budget, not past it.
    sim = Simulator()
    for i in range(6):
        sim.schedule(i, lambda: None)
    with pytest.raises(RuntimeError):
        sim.run_until_idle(max_events=5)
    assert sim.events_processed == 5
    assert sim.active_pending == 1


def test_run_until_then_earlier_schedule_fires_in_order():
    # A run(until=...) that stops short of a queued event must not let
    # that event jump ahead of ones scheduled later at earlier times.
    sim = Simulator()
    fired = []
    sim.schedule(50, fired.append, "late")
    sim.run(until=10)
    sim.schedule_at(20, fired.append, "early")
    sim.schedule_at(50, fired.append, "later-seq")
    sim.run_until_idle()
    assert fired == ["early", "late", "later-seq"]


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(i, lambda: None)
    sim.run_until_idle()
    assert sim.events_processed == 4


def test_active_pending_excludes_cancelled_events():
    sim = Simulator()
    keep = sim.schedule(10, lambda: None)
    doomed = sim.schedule(20, lambda: None)
    assert sim.pending == 2
    assert sim.active_pending == 2
    doomed.cancel()
    assert sim.pending == 2  # heap entry still present
    assert sim.active_pending == 1
    doomed.cancel()  # idempotent: no double count
    assert sim.active_pending == 1
    sim.run_until_idle()
    assert sim.pending == 0 and sim.active_pending == 0
    keep.cancel()  # already fired: must not corrupt the counter
    assert sim.active_pending == 0


def test_cancelled_head_popped_by_run_keeps_count():
    sim = Simulator()
    early = sim.schedule(1, lambda: None)
    sim.schedule(50, lambda: None)
    early.cancel()
    sim.run(until=10)  # pops the cancelled head without firing it
    assert sim.active_pending == 1
    assert sim.pending == 1


def test_clear_drops_queued_events_unfired():
    sim = Simulator()
    fired = []
    first = sim.schedule(1, fired.append, 1)
    second = sim.schedule(2, fired.append, 2)
    second.cancel()
    sim.clear()
    assert sim.pending == 0 and sim.active_pending == 0
    first.cancel()  # dropped by clear: must not corrupt the counter
    assert sim.active_pending == 0
    sim.schedule(3, fired.append, 3)
    sim.run_until_idle()
    assert fired == [3]


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_delivery_order_is_sorted_for_any_delays(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda t=d: fired.append(t))
    sim.run_until_idle()
    assert fired == sorted(fired)


# -- the heap against a sorted-list reference model ---------------------------


class _ModelEvent:
    def __init__(self, time, seq, fn, args):
        self.time, self.seq, self.fn, self.args = time, seq, fn, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ModelSimulator:
    """The simulator's contract on a plain sorted list, for comparison:
    fire in (time, seq) order and drop cancelled entries only when they
    reach the head."""

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self.seq = 0
        self.events_processed = 0

    @property
    def pending(self):
        return len(self.queue)

    @property
    def active_pending(self):
        return sum(not e.cancelled for e in self.queue)

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        event = _ModelEvent(time, self.seq, fn, args)
        self.seq += 1
        self.queue.append(event)
        self.queue.sort(key=lambda e: (e.time, e.seq))
        return event

    def _peek(self):
        while self.queue and self.queue[0].cancelled:
            self.queue.pop(0)
        return self.queue[0] if self.queue else None

    def _fire(self, event):
        self.queue.pop(0)
        self.now = event.time
        self.events_processed += 1
        event.fn(*event.args)

    def step(self):
        event = self._peek()
        if event is not None:
            self._fire(event)
        return event is not None

    def run(self, until=None, max_events=None):
        fired = 0
        while max_events is None or fired < max_events:
            event = self._peek()
            if event is None or (until is not None and event.time > until):
                break
            self._fire(event)
            fired += 1
        if until is not None and until > self.now:
            self.now = until

    def run_until_idle(self, max_events=1_000_000):
        fired = 0
        while self.step():
            fired += 1
            if fired >= max_events and self.active_pending > 0:
                raise RuntimeError("livelock")


class _Harness:
    """Drives one simulator (real or model) through a program; callbacks
    log their label and the clock, then run their own nested action."""

    def __init__(self, sim):
        self.sim = sim
        self.handles = []
        self.log = []

    def schedule(self, time, action):
        label = len(self.handles)
        self.handles.append(self.sim.schedule_at(time, self.fire, label, action))

    def fire(self, label, action):
        self.log.append((label, self.sim.now))
        self.act(action)

    def act(self, action):
        if action is None:
            return
        if action[0] == "cancel":
            if self.handles:
                self.handles[action[1] % len(self.handles)].cancel()
        elif action[0] == "burst":
            # Many cancelled entries in the heap at once, far more than
            # the simulator's own traffic ever leaves there.
            count, delay = action[1], action[2]
            start = len(self.handles)
            for i in range(count):
                self.schedule(self.sim.now + delay + i % 3, None)
            for handle in self.handles[start:][: count * 3 // 4]:
                handle.cancel()
        else:  # ("schedule", delay, nested action)
            self.schedule(self.sim.now + action[1], action[2])

    def apply(self, op):
        sim = self.sim
        kind = op[0]
        if kind == "schedule":
            self.schedule(sim.now + op[1], op[2])
        elif kind in ("cancel", "burst"):
            self.act(op)
        elif kind == "run_until":
            sim.run(until=sim.now + op[1])
        elif kind == "run_max":
            sim.run(max_events=op[1])
        elif kind == "step":
            return sim.step()
        else:  # ("idle", max_events)
            try:
                sim.run_until_idle(max_events=op[1])
            except RuntimeError:
                return "livelock"
        return None

    def observe(self):
        sim = self.sim
        return (
            list(self.log),
            sim.now,
            sim.pending,
            sim.active_pending,
            sim.events_processed,
        )


_DELAY = st.sampled_from([0, 0, 1, 1, 2, 3.5, 10])
_BURST = st.tuples(st.just("burst"), st.integers(60, 160), _DELAY)
_LEAF = st.one_of(st.none(), st.tuples(st.just("cancel"), st.integers(0, 200)), _BURST)
_ACTION = st.recursive(
    _LEAF,
    lambda inner: st.tuples(st.just("schedule"), _DELAY, inner),
    max_leaves=3,
)
_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAY, _ACTION),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    _BURST,
    st.tuples(st.just("run_until"), _DELAY),
    st.tuples(st.just("run_max"), st.integers(0, 5)),
    st.tuples(st.just("step")),
    st.tuples(st.just("idle"), st.sampled_from([3, 1_000_000])),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_OP, max_size=40))
def test_simulator_matches_sorted_list_model(program):
    real, model = _Harness(Simulator()), _Harness(_ModelSimulator())
    for op in program:
        assert real.apply(op) == model.apply(op)
        assert real.observe() == model.observe()
