"""Tests for the multi-core CPU contention model."""

import pytest

from repro.obs import Observability
from repro.sim.cpu import Machine
from repro.sim.engine import Simulator


def test_single_core_serializes_work():
    sim = Simulator()
    machine = Machine("m0", cores=1)
    first = machine.submit(sim, 10)
    second = machine.submit(sim, 10)
    assert first == 10
    assert second == 20


def test_dual_core_parallelizes_two_tasks():
    sim = Simulator()
    machine = Machine("m0", cores=2)
    assert machine.submit(sim, 10) == 10
    assert machine.submit(sim, 10) == 10
    # The third task waits for a core.
    assert machine.submit(sim, 10) == 20


def test_contention_doubles_elapsed_time_for_symmetric_load():
    """The mechanism behind the paper's BD-doubles-every-13-members effect:
    k simultaneous equal tasks on a c-core machine finish at ceil(k/c) x."""
    sim = Simulator()
    machine = Machine("m0", cores=2)
    finishes = [machine.submit(sim, 10) for _ in range(4)]
    assert max(finishes) == 20
    machine = Machine("m1", cores=2)
    finishes = [machine.submit(sim, 10) for _ in range(6)]
    assert max(finishes) == 30


def test_speed_scales_duration():
    sim = Simulator()
    slow = Machine("slow", cores=1, speed=0.5)
    assert slow.submit(sim, 10) == 20


def test_completion_callback_fires_at_finish():
    sim = Simulator()
    machine = Machine("m0", cores=1)
    fired = []
    machine.submit(sim, 10, lambda: fired.append(sim.now))
    machine.submit(sim, 5, lambda: fired.append(sim.now))
    sim.run_until_idle()
    assert fired == [10, 15]


def test_work_starts_no_earlier_than_now():
    sim = Simulator()
    machine = Machine("m0", cores=1)
    sim.schedule(100, lambda: None)
    sim.run_until_idle()
    assert machine.submit(sim, 10) == 110


def test_zero_work_completes_immediately():
    sim = Simulator()
    machine = Machine("m0", cores=2)
    assert machine.submit(sim, 0) == 0


def test_negative_work_rejected():
    with pytest.raises(ValueError):
        Machine("m0").submit(Simulator(), -1)


def test_invalid_construction():
    with pytest.raises(ValueError):
        Machine("m0", cores=0)
    with pytest.raises(ValueError):
        Machine("m0", speed=0)


def test_total_work_accumulates():
    sim = Simulator()
    machine = Machine("m0", cores=2, speed=2.0)
    machine.obs = Observability(enabled=True)
    span = ("crypto", "work", "a", None)
    machine.submit(sim, 10, span=span)
    machine.submit(sim, 10, span=span)
    # the recorder's cpu.work_ms counter, scaled by speed
    assert machine.obs.counter("cpu.work_ms", machine="m0").value == 10.0


def test_not_before_serializes_a_single_process():
    """A client process is single-threaded: its next task cannot start
    before its previous one finished, even if another core is free."""
    sim = Simulator()
    machine = Machine("m0", cores=2)
    first = machine.submit(sim, 10)
    second = machine.submit(sim, 10, not_before=first)
    assert first == 10
    assert second == 20  # a free core existed, but the process was busy


def test_not_before_in_the_past_has_no_effect():
    sim = Simulator()
    machine = Machine("m0", cores=2)
    assert machine.submit(sim, 5, not_before=0.0) == 5
