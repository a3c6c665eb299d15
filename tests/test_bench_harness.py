"""Tests for the experiment harness (repro.bench)."""

import pytest

from repro.bench.harness import EventMeasurement, ExperimentSpec, run_experiment
from repro.bench.report import render_series, series_to_csv
from repro.bench.series import FigureSeries, sweep_group_sizes
from repro.core import SecureSpreadFramework
from repro.core.driver import GroupDriver
from repro.gcs.topology import lan_testbed


def _measure(protocol, size, event, repeats=1):
    return run_experiment(
        ExperimentSpec(protocol, event, size, dh_group="dh-test", repeats=repeats)
    )


class TestMeasureEvent:
    def test_join_measurement(self):
        result = _measure("STR", 4, "join")
        assert isinstance(result, EventMeasurement)
        assert result.protocol == "STR"
        assert result.group_size == 4
        assert result.total_ms > result.membership_ms > 0
        assert result.key_agreement_ms == pytest.approx(
            result.total_ms - result.membership_ms
        )

    def test_leave_measurement(self):
        result = _measure("TGDH", 5, "leave")
        assert result.event == "leave"
        assert result.total_ms > 0

    def test_ckd_leave_includes_controller_weighting(self):
        result = _measure("CKD", 6, "leave")
        assert result.total_ms > 0

    def test_size_restored_between_repeats(self):
        result = _measure("BD", 3, "join", repeats=3)
        assert result.samples == 3

    def test_invalid_event_rejected(self):
        with pytest.raises(ValueError):
            _measure("BD", 3, "banana")

    def test_grow_group_distributes_members(self):
        framework = SecureSpreadFramework(
            lan_testbed(), default_protocol="BD", dh_group="dh-test"
        )
        driver = GroupDriver(framework)
        driver.run(driver.grow(15))
        members = driver.members
        machines = {m.machine.name for m in members}
        assert len(members) == 15
        assert len(machines) == 13  # uniform distribution wraps around


class TestSweep:
    @pytest.fixture(scope="class")
    def series(self):
        return sweep_group_sizes(
            lan_testbed, ("BD", "STR"), "join", dh_group="dh-test",
            sizes=(3, 5), repeats=1, name="unit-sweep",
        )

    def test_series_structure(self, series):
        assert isinstance(series, FigureSeries)
        assert series.sizes == [3, 5]
        assert set(series.curves) == {"BD", "STR"}
        assert len(series.membership) == 2

    def test_accessors(self, series):
        assert series.at("BD", 3) == series.curves["BD"][0]
        assert series.membership_at(5) == series.membership[1]
        winner = series.winner(5)
        loser = series.loser(5)
        assert series.at(winner, 5) <= series.at(loser, 5)

    def test_render(self, series):
        text = render_series(series)
        assert "BD" in text and "STR" in text
        assert "   3" in text and "   5" in text

    def test_csv(self, series, tmp_path):
        path = str(tmp_path / "out.csv")
        series_to_csv(series, path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "group_size,BD,STR,membership"
        assert len(lines) == 3

    def test_invalid_event_rejected(self):
        with pytest.raises(ValueError):
            sweep_group_sizes(
                lan_testbed, ("BD",), "banana", sizes=(3,), repeats=1
            )


class TestCrossover:
    def test_crossover_detected(self):
        series = FigureSeries(
            name="t", event="join", dh_group="dh-512", topology="lan",
            sizes=[2, 10, 20, 40],
            curves={"BD": [1.0, 5.0, 20.0, 80.0], "GDH": [3.0, 8.0, 15.0, 30.0]},
            membership=[0, 0, 0, 0],
        )
        assert series.crossover("BD", "GDH") == (10, 20)

    def test_no_crossover_returns_none(self):
        series = FigureSeries(
            name="t", event="join", dh_group="dh-512", topology="lan",
            sizes=[2, 10],
            curves={"A": [1.0, 2.0], "B": [3.0, 4.0]},
            membership=[0, 0],
        )
        assert series.crossover("A", "B") is None
