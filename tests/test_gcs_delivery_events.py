"""Event census of the daemon's ordered-delivery path.

Delivery scans (``Daemon._try_deliver`` calls) must be scheduled in
proportion to frames *delivered*: one armed wake per held head frame, no
scan for a frame arriving behind it (see ``_Delivery.wake``).  These tests
count scans and scheduled events, which is exact and repeatable, and
check that the suppressed scans were the only thing removed: NACK
recovery, crash recovery and the chaos benchmark's results are what they
were.
"""

import collections

import pytest

from repro.bench import run_chaos_cell
from repro.core import SecureSpreadFramework
from repro.core.driver import GroupDriver
from repro.faults import LinkFaults
from repro.gcs import GcsWorld, lan_testbed
from repro.gcs.daemon import Daemon
from repro.sim.engine import Simulator

GROUP_SIZE = 26


def _epoch_census(monkeypatch, protocol, drop=0.0):
    """Grow to n-1 (one batched epoch), then one measured join at n.

    Returns the scheduled event counts by callback name, plus ``scans``
    (every ``Daemon._try_deliver`` call, whichever event carried it) and
    ``delivered`` (the number of Agreed frames daemons delivered), and
    the framework.
    """
    counts = collections.Counter()
    schedule_at = Simulator.schedule_at
    try_deliver, deliver = Daemon._try_deliver, Daemon._deliver

    def counting_schedule_at(self, time, fn, *args):
        counts[getattr(fn, "__name__", repr(fn))] += 1
        return schedule_at(self, time, fn, *args)

    def counting_try_deliver(self, *args):
        counts["scans"] += 1
        return try_deliver(self, *args)

    def counting_deliver(self, smsg):
        counts["delivered"] += 1
        return deliver(self, smsg)

    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "schedule_at", counting_schedule_at)
        patch.setattr(Daemon, "_try_deliver", counting_try_deliver)
        patch.setattr(Daemon, "_deliver", counting_deliver)
        framework = SecureSpreadFramework(
            lan_testbed(),
            default_protocol=protocol,
            engine="symbolic",
            stall_timeout_ms=400.0 if drop else None,
        )
        driver = GroupDriver(framework)
        driver.grow_batched(GROUP_SIZE - 1)
        if drop:
            framework.world.install_link_faults(
                LinkFaults.uniform(seed=3, drop=drop)
            )
        driver.run(driver.join((GROUP_SIZE - 1) % 13))
    keys = {member.key_bytes for member in driver.members}
    assert len(keys) == 1 and None not in keys
    return counts, framework


@pytest.mark.parametrize("protocol", ["BD", "TGDH"])
def test_scans_are_proportional_to_deliveries(monkeypatch, protocol):
    counts, framework = _epoch_census(monkeypatch, protocol)
    assert counts["delivered"] > 0
    # At most the wake that delivers a frame plus the arrival scan that
    # armed it.  One scan per arrival and re-armed wake would read 7-8
    # here, growing with the number of frames in flight.
    assert counts["scans"] <= 2 * counts["delivered"]
    again, framework_again = _epoch_census(monkeypatch, protocol)
    assert again == counts
    assert framework_again.now == framework.now


def test_nack_recovery_still_converges_under_drops(monkeypatch):
    counts, framework = _epoch_census(monkeypatch, "BD", drop=0.15)
    daemons = framework.world.daemons.values()
    assert framework.world.network.fault_drops > 0
    assert sum(d.retransmit_requests for d in daemons) > 0
    assert sum(d.retransmits_served for d in daemons) > 0
    assert counts["scans"] <= 2 * counts["delivered"]
    # Nothing is left behind a wake that never fired.
    for daemon in daemons:
        assert daemon._delivery.pending == {}


# The chaos benchmark's cell for the same epoch (sequential growth to 25,
# measured join of the 26th under 15 % uniform drops).  Pinned: which
# scans are scheduled must never move a faulted run's drops or timings.
_CHAOS_CELLS = {
    "BD": {
        "fault_drops": 86, "fault_retries": 86,
        "time_to_key_ms": 97.95349380216612,
    },
    "TGDH": {
        "fault_drops": 8, "fault_retries": 8,
        "time_to_key_ms": 66.05072000010114,
    },
}


@pytest.mark.parametrize("protocol", sorted(_CHAOS_CELLS))
def test_chaos_cell_result_is_unchanged(protocol):
    result = run_chaos_cell({
        "protocol": protocol, "drop_rate": 0.15,
        "group_size": GROUP_SIZE - 1, "repeats": 1, "seed": 0,
    })
    expected = {
        "protocol": protocol, "drop_rate": 0.15,
        "group_size": GROUP_SIZE - 1, "topology": "lan", "samples": 1,
        "converged": 1, "stalls": 0, "restarts": 0, "engine": "symbolic",
        "completion_rate": 1.0,
    }
    expected.update(_CHAOS_CELLS[protocol])
    assert result["cell"] == expected


class TestNoLostWake:
    """Crash and reconfiguration while a hold wake is armed."""

    VICTIM = 5

    def _world_with_armed_wake(self):
        world = GcsWorld(lan_testbed())
        clients = {
            name: world.channel(name, machine)
            for name, machine in (("a", 0), ("b", self.VICTIM), ("c", 9))
        }
        for client in clients.values():
            client.join("g")
            world.run_until_idle()
        for index in range(6):
            clients["a"].multicast("g", ("old", index))
        victim = world.daemons[self.VICTIM]
        delivery = victim._delivery
        while delivery.wake is None or delivery.wake <= world.sim.now:
            assert world.sim.step(), "no wake was ever armed"
        # The invariant the suppressed arrival scans rely on.
        assert delivery is victim._delivery
        assert delivery.delivered + 1 in delivery.pending
        return world, clients

    def _assert_new_configuration_delivers(self, world, senders, receiver):
        for index in range(8):
            for sender in senders:
                sender.multicast("g", (sender.name, index))
        world.run_until_idle()
        got = [m.payload for m in receiver.received[-8 * len(senders):]]
        for sender in senders:
            assert [p for p in got if p[0] == sender.name] == [
                (sender.name, index) for index in range(8)
            ]
        for daemon in world.daemons.values():
            config = daemon.config
            if config is None:
                continue  # still crashed
            assert daemon._delivery.delivered == config.ring.next_seq - 1
            assert daemon._delivery.pending == {}

    def test_crash_and_restart_of_the_daemon_holding_the_wake(self):
        world, clients = self._world_with_armed_wake()
        victim = world.daemons[self.VICTIM]
        world.crash_daemon(self.VICTIM)
        assert victim._delivery is None
        world.run_until_idle()  # the stale wake fires into a dead daemon
        world.restart_daemon(self.VICTIM)
        world.run_until_idle()
        assert len({d.config.config_id for d in world.daemons.values()}) == 1
        back = world.channel("b2", self.VICTIM)
        back.join("g")
        world.run_until_idle()
        self._assert_new_configuration_delivers(
            world, [clients["a"], clients["c"]], back
        )

    def test_peer_crash_reinstalls_under_an_armed_wake(self):
        world, clients = self._world_with_armed_wake()
        victim = world.daemons[self.VICTIM]
        old_config = victim.config.config_id
        world.crash_daemon(9, detection_delay_ms=0.0)
        world.run_until_idle()
        assert victim.config.config_id != old_config
        # View synchrony: the flush delivered what the wake was holding.
        assert [m.payload for m in clients["b"].received] == [
            ("old", index) for index in range(6)
        ]
        self._assert_new_configuration_delivers(
            world, [clients["a"]], clients["b"]
        )


# A LAN TGDH figure cell's sequence (sequential growth, one measured join
# and its restore at each size 2..16) as the hop-by-hop token ring with
# per-destination arrival events ran it: that tree printed these two
# numbers for
#
#   PYTHONPATH=src python -c "
#   from repro.core.driver import GroupDriver
#   from repro.core.framework import SecureSpreadFramework
#   from repro.gcs.topology import lan_testbed
#   driver = GroupDriver(SecureSpreadFramework(
#       lan_testbed(), default_protocol='TGDH', engine='symbolic'))
#   for size in range(2, 17):
#       driver.run(driver.grow(size))
#       driver.run(driver.measured('join'))
#       driver.run(driver.restore())
#   sim = driver.framework.world.sim
#   print(sim.events_processed, repr(sim.now))"
HOP_BY_HOP_EVENTS = 10106
HOP_BY_HOP_NOW = 1728.259999999901


def test_figure_cell_fires_events_only_where_work_happens():
    """No event per idle token hop, per destination daemon or per
    arrival scan: the cell fires at most 60 % of the hop-by-hop count.
    The final clock is unchanged to the bit — the park event still
    advances it to the last quiet rotation's end."""
    driver = GroupDriver(
        SecureSpreadFramework(
            lan_testbed(), default_protocol="TGDH", engine="symbolic"
        )
    )
    for size in range(2, 17):
        driver.run(driver.grow(size))
        driver.run(driver.measured("join"))
        driver.run(driver.restore())  # as the recorded sequence did
    sim = driver.framework.world.sim
    assert sim.events_processed <= 0.6 * HOP_BY_HOP_EVENTS
    assert sim.now == HOP_BY_HOP_NOW
