"""The experiment-spec surface, serialization, and the scale benchmark."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.harness import EventMeasurement, ExperimentSpec, run_experiment
from repro.bench.report import write_json
from repro.bench.scale import render_scale_table, run_scale, scale_payload
from repro.core.driver import GroupDriver


def _driver(protocol):
    spec = ExperimentSpec(protocol, "join", 1, dh_group="dh-test")
    return GroupDriver(spec.build_framework())


# -- ExperimentSpec -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(protocol="TGDH", event="rekey", group_size=4)
    with pytest.raises(ValueError):
        ExperimentSpec(protocol="TGDH", event="join", group_size=0)
    with pytest.raises(ValueError):
        ExperimentSpec(protocol="TGDH", event="join", group_size=4, repeats=0)
    with pytest.raises(ValueError):
        ExperimentSpec(
            protocol="TGDH", event="join", group_size=4, topology="mars"
        )


def test_spec_accepts_topology_names():
    spec = ExperimentSpec(
        protocol="BD", event="join", group_size=3, topology="lan",
        dh_group="dh-test", repeats=1,
    )
    measurement = run_experiment(spec)
    assert measurement.topology == "lan"
    assert measurement.engine == "real"


# -- serialization ------------------------------------------------------------


def test_measurement_round_trips_through_dict():
    m = run_experiment(
        ExperimentSpec(
            "BD", "join", 3, dh_group="dh-test", repeats=1, engine="symbolic"
        )
    )
    data = m.to_dict()
    assert data["engine"] == "symbolic"
    assert EventMeasurement.from_dict(data) == m
    # JSON round trip too, and unknown keys are ignored.
    data = json.loads(json.dumps(data))
    data["future_field"] = 42
    assert EventMeasurement.from_dict(data) == m


# -- batched growth -----------------------------------------------------------


@pytest.mark.parametrize("protocol", ["BD", "CKD", "GDH", "STR", "TGDH"])
def test_batched_growth_matches_sequential_membership(protocol):
    sequential = _driver(protocol)
    sequential.run(sequential.grow(7))
    batched = _driver(protocol)
    batched.grow_batched(4)
    batched.grow_batched(7)
    members = batched.members
    seq_view = sequential.members[0].protocol.view
    bat_view = members[0].protocol.view
    assert set(seq_view.members) == set(bat_view.members)
    # Everyone holds the same key after the batched rekey.
    keys = {member.protocol.key for member in members}
    assert len(keys) == 1 and None not in keys


def test_batched_growth_cuts_event_churn():
    """One rekey per batch instead of one per join: an order of magnitude
    fewer simulator events for the broadcast-heavy protocols, where the
    sequential path's every-join rekey is cubic overall."""
    sequential = _driver("BD")
    sequential.run(sequential.grow(24))
    batched = _driver("BD")
    batched.grow_batched(24)
    assert (
        batched.framework.world.sim.events_processed
        < sequential.framework.world.sim.events_processed / 3
    )


def test_batched_growth_noop_and_bookkeeping():
    driver = _driver("TGDH")
    driver.grow_batched(3)
    assert [m.name for m in driver.members] == ["m0", "m1", "m2"]
    epochs = len(driver.framework.timeline.epochs)
    driver.grow_batched(3)  # already there: no joiners, no rekey
    assert len(driver.members) == 3
    assert len(driver.framework.timeline.epochs) == epochs


# -- the scale benchmark ------------------------------------------------------


def test_run_scale_tiny(tmp_path):
    measurements = run_scale(
        protocols=("TGDH",),
        sizes=(6,),
        dh_group="dh-test",
        engine="symbolic",
    )
    assert [(m.event, m.group_size) for m in measurements] == [
        ("join", 6),
        ("leave", 6),
    ]
    for m in measurements:
        assert m.engine == "symbolic"
        assert m.total_ms > m.membership_ms > 0
    payload = write_json(
        str(tmp_path / "BENCH_scale.json"),
        scale_payload(measurements, engine="symbolic"),
    )
    loaded = json.loads((tmp_path / "BENCH_scale.json").read_text())
    assert loaded == payload
    restored = [
        EventMeasurement.from_dict(cell) for cell in loaded["measurements"]
    ]
    assert restored == list(measurements)
    table = render_scale_table(measurements)
    assert "join total elapsed (ms)" in table
    assert "TGDH" in table


def test_observed_sweep_is_bit_identical_to_unobserved():
    """The obs-overhead contract: tracing changes no measured number."""
    def sweep(observe):
        return run_scale(
            protocols=("BD", "TGDH"),
            sizes=(6,),
            dh_group="dh-test",
            engine="symbolic",
            observe=observe,
            use_cache=False,
        )

    plain = [m.to_dict() for m in sweep(observe=False)]
    observed = [m.to_dict() for m in sweep(observe=True)]
    assert plain == observed  # simulated times AND ledger charges


def test_scale_cli_writes_json(tmp_path, capsys):
    out = tmp_path / "BENCH_scale.json"
    code = main(
        [
            "scale",
            "--sizes", "5",
            "--protocols", "STR",
            "--dh-group", "dh-test",
            "--cache-dir", str(tmp_path / "cache"),
            "-o", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["benchmark"] == "scale"
    assert payload["engine"] == "symbolic"
    assert {m["protocol"] for m in payload["measurements"]} == {"STR"}
    assert f"wrote {out}" in capsys.readouterr().out
