"""The one GroupDriver: same scenario body on both transports, the merged
convergence predicate, pinned placement conventions, CKD weighting."""

import asyncio
import dataclasses

import pytest

from repro.bench import run_chaos_cell, run_figure_cell, run_scale_cell
from repro.bench.harness import averaged, check_sizes
from repro.bench.live import simulate_prediction
from repro.bench.scale import _ops_dict
from repro.core import SecureSpreadFramework
from repro.core.driver import GroupDriver, Sample
from repro.crypto.ledger import OpCounts
from repro.gcs.topology import lan_testbed
from repro.net import AsyncioTransport, NetDaemon
from repro.obs import MetricsRegistry


def _sim_driver(protocol="TGDH", size=0, observe=True, **kwargs):
    framework = SecureSpreadFramework(
        lan_testbed(), default_protocol=protocol, dh_group="dh-test",
        observe=observe,
    )
    driver = GroupDriver(framework, **kwargs)
    driver.run(driver.grow(size))
    return driver


# -- (a) one scenario body, two transports ---------------------------------


def _observed(driver, steps, epochs):
    """Pass the scenario's wait points through, logging the epoch the
    group stands on after each settle."""
    try:
        while True:
            point = next(steps)
            yield point
            if point is None:
                view = driver.members[0].protocol.view
                epochs.append((
                    view.event.name,
                    sorted(view.members),
                    driver.converged_key() is not None,
                ))
    except StopIteration as stop:
        return stop.value


def test_scenario_runs_identically_on_simulator_and_live_daemon():
    sim_epochs, live_epochs = [], []
    sim = _sim_driver()
    sim_result = sim.run(_observed(sim, sim.join_leave_scenario(3), sim_epochs))

    async def live():
        daemon = NetDaemon(host="127.0.0.1", port=0)
        transport = AsyncioTransport(port=await daemon.start())
        try:
            framework = SecureSpreadFramework(
                transport, default_protocol="TGDH", dh_group="dh-test",
                observe=True,
            )
            driver = GroupDriver(framework, timeout_s=20.0)
            with pytest.raises(RuntimeError, match="arun"):
                driver.run(driver.grow(1))
            return await driver.arun(
                _observed(driver, driver.join_leave_scenario(3), live_epochs)
            )
        finally:
            await transport.aclose()
            await daemon.stop()

    live_result = asyncio.run(live())
    assert sim_epochs == live_epochs == [
        ("JOIN", ["m0"], True),
        ("JOIN", ["m0", "m1"], True),
        ("JOIN", ["m0", "m1", "m2"], True),
        ("JOIN", ["m0", "m1", "m2", "x1"], True),
        ("LEAVE", ["m0", "m1", "m2"], True),
        ("LEAVE", ["m0", "m2"], True),
    ]
    assert set(sim_result) == set(live_result) == {"join", "leave", "rekey_ms"}
    for result in (sim_result, live_result):
        assert result["join"]["members"] == 4
        assert result["leave"]["members"] == 2
        assert result["rekey_ms"]["count"] == 1 + 2 + 3 + 4 + 3 + 2


def test_scenario_needs_no_flight_recorder():
    """The scenario reads the timeline's always-on latency histogram, so
    an unobserved framework reports exactly what an observed one does."""
    observed, plain = _sim_driver(), _sim_driver(observe=False)
    expected = observed.run(observed.join_leave_scenario(3))
    result = plain.run(plain.join_leave_scenario(3))
    assert not plain.framework.obs.enabled and len(plain.framework.obs.spans) == 0
    assert result == expected
    assert result["join"]["members"] == 4 and result["leave"]["members"] == 2
    assert result["rekey_ms"]["count"] == 1 + 2 + 3 + 4 + 3 + 2


# -- (b) the merged convergence predicate ------------------------------------


def test_converged_key_names_the_shared_view_and_key():
    driver = _sim_driver(size=3)
    view = driver.members[0].protocol.view
    assert driver.converged_key() == (view.view_id, driver.members[0].protocol.key)
    assert GroupDriver(driver.framework, "empty-group").converged_key() is None


def _differing_view_ids(member):
    view = member.protocol.view
    member.protocol.view = dataclasses.replace(
        view, view_id=(view.view_id[0], view.view_id[1] + 1)
    )


def _not_done_for_its_view(member):
    member.protocol.key_epoch = None


def _unequal_keys(member):
    member.protocol.key += 1


@pytest.mark.parametrize(
    "breakage", [_differing_view_ids, _not_done_for_its_view, _unequal_keys]
)
def test_converged_key_is_none_when(breakage):
    driver = _sim_driver(size=3)
    assert driver.converged_key() is not None
    breakage(driver.members[1])
    assert driver.converged_key() is None


def test_livelock_is_counted_when_guarded_and_raised_otherwise():
    registry = MetricsRegistry(enabled=True)
    guarded = _sim_driver(max_events=5, metrics=registry, kind="chaos")
    guarded.run(guarded.grow(2))  # does not raise
    assert guarded.settle() is False
    assert registry.counter_total(
        "bench.cell.livelock", kind="chaos", protocol="TGDH"
    ) >= 1
    with pytest.raises(RuntimeError, match="livelock"):
        _sim_driver(size=2, max_events=5)


# -- (c) names, creation order and machine slots -----------------------------


@pytest.fixture
def created(monkeypatch):
    """Every ``framework.member(name, machine)`` call, in order."""
    calls = []
    original = SecureSpreadFramework.member

    def recording(self, name, machine_index, group_name="secure-group"):
        calls.append((name, machine_index))
        return original(self, name, machine_index, group_name)

    monkeypatch.setattr(SecureSpreadFramework, "member", recording)
    return calls


def _figure(protocol, event, repeats):
    run_figure_cell({
        "topology": "lan", "protocol": protocol, "event": event,
        "dh_group": "dh-test", "sizes": [2, 3], "repeats": repeats,
    })


def test_figure_cell_join_placement(created):
    _figure("TGDH", "join", repeats=2)
    assert created == [
        ("m0", 0), ("m1", 1), ("x1", 3), ("x2", 4),
        ("m2", 2), ("x3", 6), ("x4", 7),
    ]


def test_figure_cell_ckd_leave_placement(created):
    # n=2: victim m1 -> m1' in place; controller m0 -> m0' goes last.
    # n=3 on [m1', m0', m2]: victim m0' -> m0'' in place; controller m1'
    # leaves last.  That leave is the cell's last measurement, so m1' is
    # never re-admitted and no m1'' is created.
    _figure("CKD", "leave", repeats=1)
    assert created == [
        ("m0", 0), ("m1", 1), ("m1'", 1), ("m0'", 0),
        ("m2", 2), ("m0''", 0),
    ]


def test_scale_chaos_and_live_prediction_placement(created):
    grown = [("m0", 0), ("m1", 1), ("m2", 2)]
    common = {"protocol": "STR", "group_size": 3, "dh_group": "dh-test"}
    run_scale_cell(dict(common))
    # The leave is the cell's last measurement: its victim m1 is never
    # re-admitted, so no m1' is created.
    assert created == grown + [("x1", 4)]
    del created[:]
    run_scale_cell(dict(common, repeats=2))
    assert created == grown + [("x1", 4), ("m1'", 1), ("x2", 5)]
    del created[:]
    run_chaos_cell(dict(common, drop_rate=0.0, repeats=1))
    assert created == grown + [("x1", 3)]
    del created[:]
    simulate_prediction("STR", 3, dh_group="dh-test")
    assert created == grown + [("x1", 3)]


def test_scale_cell_restores_between_measurements_only():
    """A repeats=2 cell equals the hand-driven sequence grow, join,
    restore, leave, restore, join, restore, leave — a restore before every
    measurement but the first, none after the last."""
    cell = run_scale_cell(
        {"protocol": "TGDH", "group_size": 5, "dh_group": "dh-test", "repeats": 2}
    )
    framework = SecureSpreadFramework(
        lan_testbed(), default_protocol="TGDH", dh_group="dh-test",
        engine="symbolic",
    )
    driver = GroupDriver(framework)
    driver.grow_batched(5)
    samples = {"join": [], "leave": []}
    ops = {"join": OpCounts(), "leave": OpCounts()}
    for index, event in enumerate(("join", "leave", "join", "leave")):
        if index:
            driver.run(driver.restore())
        before = driver.ledger_totals()
        record = driver.run(driver.join() if event == "join" else driver.leave())
        ops[event] = ops[event] + (driver.ledger_totals() - before)
        samples[event].append(
            Sample(record.total_elapsed(), record.membership_elapsed())
        )
    # m2 left and came back as m2', who was the second leave's victim.
    assert [m.name for m in driver.members] == ["m0", "m1", "m3", "m4"]
    assert {event: cell[event] for event in ("join", "leave")} == {
        event: averaged(
            driver, event, 5, samples[event], _ops_dict(ops[event])
        ).to_dict()
        for event in ("join", "leave")
    }


def test_a_leave_never_empties_the_group():
    """The last member's leave has no epoch of its own to report, so every
    cell type refuses it up front instead of reporting another epoch."""
    with pytest.raises(ValueError, match="last member"):
        run_scale_cell({"protocol": "BD", "group_size": 1, "dh_group": "dh-test"})
    with pytest.raises(ValueError, match="at least 2"):
        run_figure_cell({
            "topology": "lan", "protocol": "BD", "event": "leave",
            "dh_group": "dh-test", "sizes": [1], "repeats": 1,
        })
    with pytest.raises(ValueError, match="last member"):
        run_figure_cell({
            "topology": "lan", "protocol": "BD", "event": "leave",
            "dh_group": "dh-test", "sizes": [1, 2], "repeats": 1,
        })
    with pytest.raises(ValueError, match="at least 2"):
        check_sizes("leave", [1])
    driver = _sim_driver("BD", 1, observe=False)
    with pytest.raises(ValueError, match="last member"):
        driver.run(driver.leave())
    assert [m.name for m in driver.members] == ["m0"]


# -- (d) CKD's 1/n controller-leave weighting --------------------------------


def test_ckd_leave_is_the_weighted_sum_of_two_raw_leaves():
    n = 4
    weighted = _sim_driver("CKD", n)
    sample = weighted.run(weighted.measured("leave"))
    raw = _sim_driver("CKD", n)
    middle = raw.sample(raw.run(raw.leave()))
    raw.run(raw.restore())
    controller = raw.sample(raw.run(raw.leave(0)))
    for field in ("total_ms", "membership_ms"):
        expected = (1 - 1 / n) * getattr(middle, field) + (1 / n) * getattr(
            controller, field
        )
        assert getattr(sample, field) == expected
    assert controller.total_ms > middle.total_ms  # full channel re-establishment
    cell = run_figure_cell({
        "protocol": "CKD", "event": "leave", "sizes": [n],
        "dh_group": "dh-test", "repeats": 1,
    })["measurements"][0]
    assert cell["total_ms"] == sample.total_ms
