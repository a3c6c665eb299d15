"""The fault-injection subsystem (`repro.faults`) end to end.

Covers the three fault layers (link faults, daemon crashes, scenario
schedules), the rekey stall watchdog that makes faulty runs converge,
and the chaos benchmark that sweeps them — including the acceptance
bars: deterministic replay of a fixed-seed schedule, and a confirmed
shared key for every protocol under nonzero drop rates.
"""

import collections

import pytest

from repro.bench.pool import run_sweep
from repro.bench.report import artifact
from repro.core import SecureSpreadFramework
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    LinkFaults,
    LinkPolicy,
    NO_FAULTS,
    partition_storm,
)
from repro.gcs.topology import lan_testbed
from repro.protocols import available

STALL_MS = 400.0


def _framework(protocol, **kwargs):
    options = dict(dh_group="dh-test")
    options.update(kwargs)
    return SecureSpreadFramework(
        lan_testbed(), default_protocol=protocol, **options
    )


def _settled_group(framework, count):
    members = framework.spawn_members(count)
    for member in members:
        member.join()
        framework.run_until_idle()
    return members


def _cascaded_churn(framework, joins, leaves, gap_ms):
    """Back-to-back joins, then leaves, ``gap_ms`` apart from now:
    cascaded membership events landing while the previous rekey is
    still running."""
    sim = framework.world.sim
    base, t = sim.now, 0.0
    for name, machine in joins:
        sim.schedule_at(
            base + t, lambda n=name, m=machine: framework.member(n, m).join()
        )
        t += gap_ms
    for name in leaves:
        sim.schedule_at(base + t, lambda n=name: framework._members[n].leave())
        t += gap_ms


def _one_shared_key(members):
    keys = {m.key_bytes for m in members}
    assert len(keys) == 1 and keys.pop() is not None
    views = {m.protocol.view.view_id for m in members}
    assert len(views) == 1
    for m in members:
        assert m.protocol.done_for(m.protocol.view)


# ---------------------------------------------------------------------------
# link policies


class TestLinkPolicy:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            LinkPolicy(drop=1.5)
        with pytest.raises(ValueError):
            LinkPolicy(duplicate=-0.1)
        with pytest.raises(ValueError):
            LinkPolicy(delay_ms=-1.0)

    def test_noop_detection(self):
        assert NO_FAULTS.is_noop
        assert not LinkPolicy(drop=0.01).is_noop
        assert not LinkPolicy(delay_ms=1.0).is_noop

    def test_dict_roundtrip(self):
        policy = LinkPolicy(drop=0.1, delay_ms=2.0, jitter_ms=1.0,
                            duplicate=0.05, affect_control=True)
        assert LinkPolicy.from_dict(policy.to_dict()) == policy

    def test_verdicts_are_deterministic(self):
        def verdicts(seed):
            faults = LinkFaults.uniform(seed=seed, drop=0.3, jitter_ms=2.0,
                                        duplicate=0.2)
            return [faults.apply(0, 1) for _ in range(200)]

        assert verdicts(7) == verdicts(7)
        assert verdicts(7) != verdicts(8)

    def test_noop_policy_never_draws(self):
        # A no-op injector must not consume randomness: the verdict stream
        # under a per-link override is unchanged by unrelated no-op links.
        faults = LinkFaults.uniform(seed=3, drop=0.5)
        baseline = [faults.apply(0, 1) for _ in range(50)]
        mixed = LinkFaults.uniform(seed=3, drop=0.5)
        mixed.set_pair(4, 5, NO_FAULTS)
        interleaved = []
        for _ in range(50):
            assert mixed.apply(4, 5) == (False, 0.0, None)
            interleaved.append(mixed.apply(0, 1))
        assert interleaved == baseline

    def test_control_frames_exempt_by_default(self):
        faults = LinkFaults.uniform(seed=0, drop=1.0)
        assert faults.apply(0, 1, control=True).drop is False
        assert faults.apply(0, 1, control=False).drop is True
        strict = LinkFaults.uniform(seed=0, drop=1.0, affect_control=True)
        assert strict.apply(0, 1, control=True).drop is True


# ---------------------------------------------------------------------------
# the network under link faults


class TestNetworkFaults:
    def test_installing_noop_faults_changes_nothing(self):
        def run(with_noop):
            fw = _framework("BD")
            if with_noop:
                fw.world.install_link_faults(LinkFaults(seed=1))
            members = _settled_group(fw, 4)
            return [m.key_bytes for m in members], fw.now

        assert run(False) == run(True)

    def test_dropped_frames_are_recovered(self):
        fw = _framework("BD", stall_timeout_ms=STALL_MS)
        members = _settled_group(fw, 5)
        fw.world.install_link_faults(LinkFaults.uniform(seed=2, drop=0.2))
        joiner = fw.member("x", 5)
        joiner.join()
        fw.run_until_idle()
        assert fw.world.network.fault_drops > 0
        assert fw.world.network.fault_retries > 0
        _one_shared_key(members + [joiner])

    def test_duplicate_frames_are_suppressed(self):
        fw = _framework("TGDH", stall_timeout_ms=STALL_MS)
        members = _settled_group(fw, 4)
        faults = LinkFaults.uniform(seed=5, duplicate=0.5, jitter_ms=1.5)
        verdicts = []
        apply = faults.apply

        def counting_apply(*args, **kwargs):
            verdicts.append(apply(*args, **kwargs))
            return verdicts[-1]

        faults.apply = counting_apply
        fw.world.install_link_faults(faults)
        joiner = fw.member("x", 4)
        joiner.join()
        fw.run_until_idle()
        assert any(v.duplicate_delay_ms is not None for v in verdicts)
        _one_shared_key(members + [joiner])


# ---------------------------------------------------------------------------
# daemon crash / restart


class TestCrashRestart:
    def test_crash_excludes_members_and_group_rekeys(self):
        fw = _framework("TGDH")
        members = _settled_group(fw, 5)
        old_key = members[0].key_bytes
        fw.world.crash_daemon(1)
        fw.run_until_idle()
        survivors = [m for m in members if m.name != "m1"]
        _one_shared_key(survivors)
        assert members[1].client.connected is False
        assert survivors[0].key_bytes != old_key
        assert "m1" not in survivors[0].protocol.view.members

    def test_restarted_daemon_hosts_new_members(self):
        fw = _framework("STR")
        members = _settled_group(fw, 4)
        fw.world.crash_daemon(2)
        fw.run_until_idle()
        fw.world.restart_daemon(2)
        fw.run_until_idle()
        newcomer = fw.member("back", 2)
        newcomer.join()
        fw.run_until_idle()
        survivors = [m for m in members if m.name != "m2"] + [newcomer]
        _one_shared_key(survivors)

    def test_coordinator_kill_schedule(self):
        # Daemon 0 coordinates configuration changes; killing it mid-life
        # forces the survivors to elect the next-lowest daemon.
        fw = _framework("BD")
        members = _settled_group(fw, 5)
        FaultSchedule().add(1.0, "crash", machine=0).install(fw)
        fw.run_until_idle()
        survivors = [m for m in members if m.name != "m0"]
        _one_shared_key(survivors)


# ---------------------------------------------------------------------------
# stall detection and coordinated restart


class TestStallRecovery:
    @pytest.mark.parametrize("protocol", available())
    def test_every_protocol_converges_under_drops(self, protocol):
        # The acceptance bar: under a nonzero drop rate, every protocol
        # reaches a confirmed shared key (stall-restart plus frame
        # recovery; which mechanism fires depends on what got dropped).
        fw = _framework(protocol, stall_timeout_ms=STALL_MS)
        members = _settled_group(fw, 5)
        fw.world.install_link_faults(LinkFaults.uniform(seed=11, drop=0.12))
        joiner = fw.member("x", 5)
        joiner.join()
        fw.run_until_idle()
        assert fw.world.network.fault_drops > 0
        _one_shared_key(members + [joiner])

    @pytest.mark.parametrize("protocol,fault_seed", [("GDH", 6), ("CKD", 0)])
    def test_stall_restart_fires_and_recovers(self, protocol, fault_seed):
        # GDH and CKD route per-member unicasts over plain FIFO
        # (deliberately not retried), so a dropped one *must* be recovered
        # by the epoch watchdog: stall detected, coordinated restart,
        # fresh key.  The seeds are picked to make that unicast drop
        # happen; determinism keeps it happening.
        fw = _framework(protocol, stall_timeout_ms=STALL_MS)
        members = _settled_group(fw, 6)
        fw.world.install_link_faults(
            LinkFaults.uniform(seed=fault_seed, drop=0.15)
        )
        joiner = fw.member("x", 6)
        joiner.join()
        fw.run_until_idle()
        assert fw.rekey_stalls > 0
        assert fw.rekey_restarts > 0
        _one_shared_key(members + [joiner])

    def test_timeline_latency_equals_the_recorders_instrument(self):
        # The timeline's always-on ``member.rekey_ms`` is the one latency
        # instrument, traced or not: one sample per key install, an epoch
        # a restart makes a member install twice included (``record_key``
        # keeps only the first), and no second instrument of the same
        # name in the flight recorder's registry.
        fw = _framework("TGDH", stall_timeout_ms=STALL_MS, observe=True)
        installs = collections.Counter()
        make = fw.member

        def listened(*args):
            created = make(*args)
            created.on_secure_view = (
                lambda m, view, key: installs.update([m.group_name])
            )
            return created

        fw.member = listened  # the churn's joiners are heard from too
        fw.set_group_protocol("side", "BD")
        for member in fw.spawn_members(3, group_name="side", prefix="s"):
            member.join()
            fw.run_until_idle()
        _settled_group(fw, 5)
        fw.world.install_link_faults(LinkFaults.uniform(seed=0, drop=0.15))
        _cascaded_churn(fw, [("j0", 5), ("j1", 6)], ["m1"], gap_ms=2.0)
        fw.run_until_idle()
        assert fw.rekey_restarts > 0
        first_installs = sum(
            len(record.key_ready) for record in fw.timeline.epochs.values()
        )
        # a re-installed epoch is sampled
        assert sum(installs.values()) > first_installs
        measured = fw.timeline.rekey_latencies()
        assert [h.labels for h in measured] == [
            (("group", "secure-group"), ("protocol", "TGDH")),
            (("group", "side"), ("protocol", "BD")),
        ]
        assert {
            dict(h.labels)["group"]: h.count for h in measured
        } == dict(installs)
        assert not [
            h for h in fw.obs.metrics.log_histograms()
            if h.name == "member.rekey_ms"
        ]

    def test_clean_run_never_stalls(self):
        fw = _framework("GDH", stall_timeout_ms=STALL_MS)
        members = _settled_group(fw, 5)
        assert fw.rekey_stalls == 0
        assert fw.rekey_restarts == 0
        _one_shared_key(members)

    def test_watchdog_disabled_by_default(self):
        fw = _framework("BD")
        assert fw.stall_timeout_ms is None
        _settled_group(fw, 3)
        assert fw.rekey_stalls == 0

    @pytest.mark.parametrize("timeout", [0, 0.0, -1.0, float("nan")])
    def test_non_positive_stall_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="stall_timeout_ms must be positive"):
            _framework("BD", stall_timeout_ms=timeout)


# ---------------------------------------------------------------------------
# fault schedules


class TestFaultSchedule:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "meteor-strike")
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "heal")
        with pytest.raises(ValueError):
            FaultEvent(0.0, "crash", (("component", 1),))

    @pytest.mark.parametrize("at_ms", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, at_ms):
        # NaN passes ``at_ms < 0``; on the clock it would fire mid-run.
        with pytest.raises(ValueError, match="finite"):
            FaultEvent(at_ms, "heal")

    def test_spec_roundtrip(self):
        schedule = (
            FaultSchedule()
            .add(10.0, "partition", components=[[0, 1], [2, 3]])
            .add(50.0, "heal")
            .add(70.0, "crash", machine=2)
            .add(90.0, "link", policy=LinkPolicy(drop=0.2).to_dict())
        )
        spec = schedule.to_spec()
        rebuilt = FaultSchedule.from_spec(spec)
        assert rebuilt.to_spec() == spec
        assert [e.action for e in rebuilt] == [
            "partition", "heal", "crash", "link"
        ]

    def test_from_spec_accepts_at_alias(self):
        schedule = FaultSchedule.from_spec([{"at": 5, "action": "heal"}])
        assert schedule.events[0].at_ms == 5.0

    @pytest.mark.parametrize(
        "spec, effect",
        [
            (
                [
                    {"at_ms": 1.0, "action": "crash", "machine": 2},
                    {"at_ms": 50.0, "action": "restart", "machine": 2},
                ],
                lambda world: world.daemons[2].config.daemon_ids
                == tuple(range(13)),
            ),
            (
                [{"at_ms": 1.0, "action": "link", "src": 0, "dst": 3,
                  "policy": {"drop": 0.25}}],
                lambda world: world.network.faults.policy_for(0, 3)
                == world.network.faults.policy_for(3, 0)
                == LinkPolicy(drop=0.25)
                and world.network.faults.policy_for(0, 1) == NO_FAULTS,
            ),
            (
                [
                    {"at_ms": 1.0, "action": "link", "policy": {"drop": 0.25}},
                    {"at_ms": 2.0, "action": "link", "src": 0, "dst": 3,
                     "policy": {"delay_ms": 1.0}},
                    {"at_ms": 3.0, "action": "link-clear"},
                ],
                lambda world: world.network.faults.policy_for(0, 3)
                == world.network.faults.policy_for(0, 1)
                == NO_FAULTS,
            ),
            ([{"action": "heal"}], None),
        ],
        ids=["restart", "link-pair", "link-clear", "missing-at_ms"],
    )
    def test_from_spec_entries_take_effect(self, spec, effect):
        if effect is None:
            with pytest.raises(ValueError, match="at_ms"):
                FaultSchedule.from_spec(spec)
            return
        fw = _framework("BD", observe=True)
        _settled_group(fw, 3)
        schedule = FaultSchedule.from_spec(spec).install(fw)
        fw.run_until_idle()
        assert effect(fw.world)
        actions = [entry["action"] for entry in spec]
        assert [action for _, action in schedule.applied] == actions
        instants = [
            span.name for span in fw.obs.spans.spans if span.category == "fault"
        ]
        assert instants == actions

    def test_partition_storm_replay_is_bit_reproducible(self):
        # The acceptance bar: a fixed-seed schedule replays identically —
        # same keys, same virtual end time, same injection log.
        def run():
            fw = _framework("TGDH", seed=9, stall_timeout_ms=STALL_MS)
            members = _settled_group(fw, 6)
            schedule = partition_storm(
                [[0, 1, 2], list(range(3, 13))], rounds=2, period_ms=120.0
            )
            schedule.add(5.0, "link", policy={"drop": 0.1})
            schedule.install(fw)
            fw.run_until_idle()
            return (
                [m.key_bytes for m in members],
                fw.now,
                schedule.applied,
                fw.world.network.fault_drops,
            )

        first, second = run(), run()
        assert first == second
        assert len(first[2]) == 5  # 2×(partition+heal) + link
        _ = first

    def test_cascaded_churn_mid_rekey(self):
        fw = _framework("STR", stall_timeout_ms=STALL_MS)
        members = _settled_group(fw, 4)
        _cascaded_churn(fw, [("j0", 4), ("j1", 5)], ["m1"], gap_ms=2.0)
        fw.run_until_idle()
        final = [m for m in members if m.name != "m1"]
        final += [fw._members["j0"], fw._members["j1"]]
        _one_shared_key(final)


# ---------------------------------------------------------------------------
# the chaos benchmark


class TestChaosBench:
    def test_cells_and_zero_drop_control(self):
        cells = run_sweep(
            "chaos",
            protocols=("BD",),
            drop_rates=(0.0, 0.2),
            group_size=4,
            dh_group="dh-test",
            engine="symbolic",
            repeats=1,
            seed=4,
        ).rows
        assert [c.drop_rate for c in cells] == [0.0, 0.2]
        control, faulty = cells
        assert control.stalls == 0 and control.restarts == 0
        assert control.fault_drops == 0
        assert control.converged == control.samples == 1
        assert control.completion_rate == 1.0
        assert faulty.fault_drops > 0
        assert faulty.converged == faulty.samples
        assert faulty.time_to_key_ms is not None

    def test_payload_shape(self):
        cells = run_sweep(
            "chaos", protocols=("TGDH",), drop_rates=(0.1,), group_size=3,
            dh_group="dh-test", repeats=1,
        ).rows
        payload = artifact("chaos", {"seed": 0}, "cells", cells)
        assert payload["benchmark"] == "chaos"
        (cell,) = payload["cells"]
        assert cell["protocol"] == "TGDH"
        assert 0.0 <= cell["completion_rate"] <= 1.0
        for key in ("stalls", "restarts", "fault_drops", "fault_retries"):
            assert isinstance(cell[key], int)
