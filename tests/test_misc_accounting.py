"""Small accounting/introspection APIs not covered elsewhere."""

import pytest

from repro.gcs import GcsWorld, lan_testbed
from repro.obs import Observability
from repro.sim.engine import Simulator


def test_simulator_pending_counter():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    cancelled = sim.schedule(6, lambda: None)
    assert sim.pending == 2
    cancelled.cancel()
    # active_pending is the honest queue depth: it excludes cancelled
    # events that still sit in the heap.
    assert sim.pending == 2
    assert sim.active_pending == 1
    sim.run_until_idle()
    assert sim.pending == 0
    assert sim.active_pending == 0


def test_network_counts_drops_across_partition():
    world = GcsWorld(lan_testbed(), obs=Observability(enabled=True))
    metrics = world.obs.metrics
    a = world.channel("a", 0)
    b = world.channel("b", 1)
    a.join("g")
    world.run_until_idle()
    b.join("g")
    world.run_until_idle()
    dropped_before = metrics.counter_total("net.frames_dropped")
    # Partition with slow detection: a's dissemination still targets the
    # full old configuration, so frames to the far side are dropped.
    world.partition([[0], list(range(1, 13))], detection_delay_ms=50.0)
    a.multicast("g", "into the void")
    world.run_until_idle()
    assert metrics.counter_total("net.frames_dropped") > dropped_before


def test_network_rejects_malformed_partitions():
    world = GcsWorld(lan_testbed())
    with pytest.raises(ValueError):
        world.network.set_partition([[0, 1], [1, 2]])  # overlapping
    with pytest.raises(ValueError):
        world.network.set_partition([[0, 1]])  # not covering
