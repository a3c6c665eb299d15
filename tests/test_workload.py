"""Tests for the sustained-churn workload package (`repro.workload`)."""

import json
import re

import pytest

from repro.bench.pool import canonical_json
from repro.workload import (
    ChurnEvent,
    WorkloadEngine,
    WorkloadSpec,
    diurnal_stream,
    flash_stream,
    poisson_stream,
    run_workload,
    stream_populations,
    trace_stream,
)


# -- spec validation and round-trip -----------------------------------------


def test_spec_roundtrips_through_to_spec():
    spec = WorkloadSpec(
        protocol="tgdh",  # case-normalized at construction
        arrival="flash",
        groups=3,
        group_size=4,
        rate_hz=10.0,
        duration_ms=500.0,
        seed=42,
        burst_at_ms=250.0,
        burst_joins=5,
        faults=(
            {"at_ms": 100.0, "action": "partition", "components": [[0, 1], [2]]},
            {"at_ms": 200.0, "action": "heal"},
        ),
    )
    assert spec.protocol == "TGDH"
    rebuilt = WorkloadSpec.from_spec(spec.to_spec())
    assert rebuilt == spec
    # The canonical JSON of the spec dict is the pool's cache-key input:
    # the round trip must preserve it byte for byte.
    assert canonical_json(rebuilt.to_spec()) == canonical_json(spec.to_spec())


def test_spec_roundtrip_survives_json():
    spec = WorkloadSpec(protocol="GDH", arrival="trace", trace=(
        {"at_ms": 1.0, "group": 0, "action": "join"},
    ))
    wire = json.dumps(spec.to_spec())
    assert WorkloadSpec.from_spec(json.loads(wire)) == spec


def test_spec_rejects_unknown_protocol():
    with pytest.raises(ValueError, match="unknown protocol 'NOPE'"):
        WorkloadSpec(protocol="nope")


def test_spec_rejects_unknown_arrival():
    with pytest.raises(ValueError, match="unknown arrival process"):
        WorkloadSpec(protocol="TGDH", arrival="bursty")


def test_spec_rejects_unknown_fault_action():
    with pytest.raises(ValueError, match="unknown fault action"):
        WorkloadSpec(
            protocol="TGDH",
            faults=({"at_ms": 1.0, "action": "explode"},),
        )


@pytest.mark.parametrize("churn", [
    {"action": "leave", "member": "g0.m1"},
    {"action": "join", "member": "z", "machine": 9, "group": "g1"},
    {"action": "mark"},
])
def test_spec_refuses_churn_among_its_faults(churn):
    # Churn goes through the engine's rosters (``trace``); a fault
    # schedule that joined or left members behind them went unchecked.
    allowed = "['crash', 'heal', 'link', 'link-clear', 'partition', 'restart']"
    with pytest.raises(ValueError, match=re.escape(allowed)):
        WorkloadSpec(protocol="TGDH", faults=({"at_ms": 10.0, **churn},))


def test_spec_rejects_unknown_churn_action():
    with pytest.raises(ValueError, match="unknown churn action"):
        WorkloadSpec(
            protocol="TGDH",
            arrival="trace",
            trace=({"at_ms": 1.0, "group": 0, "action": "defect"},),
        )


@pytest.mark.parametrize("at_ms", [float("nan"), float("inf"), -1.0])
def test_churn_event_rejects_non_finite_or_negative_time(at_ms):
    with pytest.raises(ValueError, match="finite and non-negative"):
        ChurnEvent(at_ms, 0, "join")


def test_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown workload spec keys"):
        WorkloadSpec.from_spec({"protocol": "TGDH", "colour": "red"})


def test_spec_rejects_trace_beyond_group_count():
    with pytest.raises(ValueError, match="has only 2 groups"):
        WorkloadSpec(
            protocol="TGDH",
            groups=2,
            arrival="trace",
            trace=({"at_ms": 1.0, "group": 5, "action": "join"},),
        )


# -- arrival processes ------------------------------------------------------


ARRIVAL_ARGS = dict(
    groups=4, group_size=4, rate_hz=50.0, duration_ms=1000.0, seed=7
)


@pytest.mark.parametrize(
    "stream", [poisson_stream, flash_stream, diurnal_stream]
)
def test_streams_are_seed_deterministic(stream):
    first = stream(**ARRIVAL_ARGS)
    second = stream(**ARRIVAL_ARGS)
    assert first == second
    assert first  # the parameters produce a non-empty stream
    other = stream(**{**ARRIVAL_ARGS, "seed": 8})
    assert first != other


@pytest.mark.parametrize(
    "stream", [poisson_stream, flash_stream, diurnal_stream]
)
def test_streams_are_time_ordered_and_in_range(stream):
    events = stream(**ARRIVAL_ARGS)
    times = [event.at_ms for event in events]
    assert times == sorted(times)
    assert all(0 <= t < ARRIVAL_ARGS["duration_ms"] for t in times)
    assert all(0 <= e.group < ARRIVAL_ARGS["groups"] for e in events)


@pytest.mark.parametrize(
    "stream", [poisson_stream, flash_stream, diurnal_stream]
)
def test_streams_never_drain_a_group_below_minimum(stream):
    """The feasibility invariant: replaying the population arithmetic
    never dips below min_members at any prefix of the stream."""
    events = stream(**ARRIVAL_ARGS, min_members=2)
    populations = [ARRIVAL_ARGS["group_size"]] * ARRIVAL_ARGS["groups"]
    for event in events:
        populations[event.group] += 1 if event.action == "join" else -1
        assert populations[event.group] >= 2
    assert populations == stream_populations(
        events, ARRIVAL_ARGS["groups"], ARRIVAL_ARGS["group_size"]
    )


def test_flash_burst_lands_at_the_requested_instant():
    events = flash_stream(**ARRIVAL_ARGS, burst_at_ms=400.0, burst_joins=6)
    background = poisson_stream(**ARRIVAL_ARGS)
    burst = [e for e in events if e not in background]
    assert len(burst) >= 6
    joins = [e for e in burst if e.action == "join" and e.at_ms >= 400.0]
    assert len(joins) >= 6
    assert min(e.at_ms for e in joins) == 400.0


def test_trace_stream_orders_and_validates():
    events = trace_stream(
        [
            {"at_ms": 30.0, "group": 1, "action": "leave"},
            {"at_ms": 10.0, "group": 0, "action": "join"},
            ChurnEvent(20.0, 0, "leave"),
        ],
        groups=2,
    )
    assert [e.at_ms for e in events] == [10.0, 20.0, 30.0]
    with pytest.raises(ValueError, match="missing 'at_ms'"):
        trace_stream([{"group": 0, "action": "join"}])


# -- the engine -------------------------------------------------------------


def _small_spec(**overrides):
    base = dict(
        protocol="TGDH",
        arrival="poisson",
        groups=2,
        group_size=3,
        rate_hz=10.0,
        duration_ms=400.0,
        seed=7,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def test_run_workload_converges_and_counts():
    result = run_workload(_small_spec())
    assert result.converged
    assert result.converged_groups == result.groups == 2
    assert result.events == result.joins + result.leaves
    assert result.skipped == 0
    assert result.member_epochs > 0
    assert result.throughput_eps > 0
    assert result.rekey_p50_ms > 0
    assert result.rekey_p50_ms <= result.rekey_p95_ms <= result.rekey_p99_ms
    assert result.makespan_ms >= result.last_injection_ms


def test_run_workload_is_deterministic():
    first = run_workload(_small_spec())
    second = run_workload(_small_spec())
    assert first.to_dict() == second.to_dict()


def test_result_roundtrips_through_dict():
    result = run_workload(_small_spec())
    data = result.to_dict()
    assert data["converged"] is True
    rebuilt = type(result).from_dict(json.loads(json.dumps(data)))
    assert rebuilt.to_dict() == data


def test_groups_keep_distinct_keys():
    """Multi-group isolation: concurrent groups on the same daemons end
    converged on *different* group keys."""
    engine = WorkloadEngine(_small_spec(groups=3))
    engine.run()
    keys = []
    for group, driver in engine.drivers.items():
        converged = driver.converged_key()
        assert converged is not None, f"group {group} did not converge"
        assert driver.members is engine.rosters[group]
        keys.append(converged[1])
    assert len(set(keys)) == len(keys)


def test_unkeyed_names_the_installed_view_after_a_restart_rollback():
    """A coordinated restart rolls back an epoch every member installed:
    the group holds no key, and each member still reports the view it
    last keyed."""
    engine = WorkloadEngine(_small_spec(groups=1))
    assert engine.run().converged
    (driver,) = engine.drivers.values()
    view_id = driver.members[0].protocol.view.view_id
    for member in driver.members:
        member._handle_rekey_restart(view_id, member._attempt + 1)
    members = [
        {"name": member.name, "epoch": str(view_id), "key": None}
        for member in driver.members
    ]
    assert engine.unkeyed() == [
        {"group": engine.group_name(0), "view": str(view_id), "members": members}
    ]


def test_load_cell_records_only_what_it_reports():
    """Rekey latency is a timeline measurement: the flight recorder stays
    off, and the timeline holds one sustained-phase histogram per group."""
    grown = WorkloadEngine(_small_spec(groups=3))
    grown.populate()
    # Growth-phase installs are not part of the sustained distribution.
    assert sum(h.count for h in grown.framework.timeline.rekey_latencies()) == 0

    engine = WorkloadEngine(_small_spec(groups=3))
    result = engine.run()
    obs = engine.framework.obs
    assert obs.enabled is False
    assert len(obs.spans) == 0
    assert list(obs.metrics.iter_instruments()) == []
    latencies = engine.framework.timeline.rekey_latencies()
    assert [h.labels for h in latencies] == [
        (("group", f"g{group}"), ("protocol", "TGDH")) for group in range(3)
    ]
    assert all(h.name == "member.rekey_ms" for h in latencies)
    assert sum(h.count for h in latencies) == result.member_epochs > 0


def test_faults_compose_with_churn():
    spec = _small_spec(
        protocol="GDH",
        faults=(
            {
                "at_ms": 150.0,
                "action": "partition",
                "components": [[0, 1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]],
            },
            {"at_ms": 300.0, "action": "heal"},
        ),
    )
    result = run_workload(spec)
    assert result.converged
    assert result.last_injection_ms >= 300.0


def test_trace_replay_drives_exact_events():
    spec = _small_spec(
        arrival="trace",
        trace=(
            {"at_ms": 50.0, "group": 0, "action": "join"},
            {"at_ms": 120.0, "group": 1, "action": "leave"},
            {"at_ms": 200.0, "group": 0, "action": "leave"},
        ),
    )
    engine = WorkloadEngine(spec)
    result = engine.run()
    assert result.converged
    assert result.events == 3
    assert result.joins == 1 and result.leaves == 2
    assert len(engine.rosters[0]) == 3  # 3 + 1 join - 1 leave
    assert len(engine.rosters[1]) == 2


def test_engine_rejects_unknown_topology():
    with pytest.raises(ValueError, match="unknown topology"):
        WorkloadEngine(_small_spec(), topology="metro")
