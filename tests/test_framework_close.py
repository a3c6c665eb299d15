"""A one-shot runner frees its world: members, channels, daemons, key
trees and queued events are reclaimed by reference counting when the
runner returns, so sequential cells peak at their largest world rather
than at the sum of the finished ones."""

import gc
import tracemalloc
from collections import Counter

import pytest

from repro.bench.chaos import run_chaos_cell
from repro.bench.harness import ExperimentSpec, run_experiment
from repro.bench.live import simulate_prediction
from repro.bench.load import run_load_cell, storm_faults
from repro.bench.scale import run_scale_cell
from repro.bench.series import run_figure_cell
from repro.core.driver import GroupDriver
from repro.workload.engine import run_workload
from repro.workload.spec import WorkloadSpec

_WORKLOAD = WorkloadSpec(
    protocol="TGDH", arrival="poisson", groups=2, group_size=3,
    rate_hz=20.0, duration_ms=400.0, seed=1, faults=tuple(storm_faults(400.0)),
)

RUNNERS = {
    "scale": lambda: run_scale_cell(
        {"protocol": "TGDH", "group_size": 8, "dh_group": "dh-test"}
    ),
    "scale-observed": lambda: run_scale_cell(
        {"protocol": "TGDH", "group_size": 8, "dh_group": "dh-test",
         "observe": True}
    ),
    "scale-str": lambda: run_scale_cell(
        {"protocol": "STR", "group_size": 8, "dh_group": "dh-test"}
    ),
    "figure": lambda: run_figure_cell(
        {"topology": "lan", "protocol": "GDH", "event": "join",
         "sizes": [2, 4], "repeats": 1, "dh_group": "dh-test",
         "engine": "symbolic"}
    ),
    "chaos-traced-drops": lambda: run_chaos_cell(
        {"protocol": "BD", "drop_rate": 0.2, "group_size": 4, "repeats": 2,
         "trace": True, "dh_group": "dh-test"}
    ),
    # A tripped event budget leaves events queued on the simulator.
    "chaos-livelocked": lambda: run_chaos_cell(
        {"protocol": "GDH", "drop_rate": 0.3, "group_size": 4, "repeats": 1,
         "dh_group": "dh-test", "max_events": 300}
    ),
    "load-storm": lambda: run_load_cell(
        {"workload": _WORKLOAD.to_spec(), "dh_group": "dh-test"}
    ),
    "workload": lambda: run_workload(
        _WORKLOAD, dh_group="dh-test", engine="symbolic"
    ),
    "experiment": lambda: run_experiment(
        ExperimentSpec("CKD", "leave", 4, dh_group="dh-test", repeats=1,
                       engine="symbolic")
    ),
    "live-simulated": lambda: simulate_prediction(
        "TGDH", 4, dh_group="dh-test", engine="symbolic"
    ),
}


def _cyclic_garbage(run):
    """Run with the collector off; return what a full pass then finds."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()
    return found


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_one_shot_runner_leaves_no_cyclic_garbage(name):
    found = _cyclic_garbage(RUNNERS[name])
    assert not found, (
        f"{name} left {sum(found.values())} objects in reference cycles; "
        f"top types: {found.most_common(6)}"
    )


def test_close_twice_is_a_no_op():
    spec = ExperimentSpec("TGDH", "join", 3, dh_group="dh-test", engine="symbolic")
    framework = spec.build_framework()
    driver = GroupDriver(framework)
    driver.run(driver.grow(3))
    framework.close()
    framework.close()
    assert framework.members_of() == []
    assert framework.world.daemons == {}
    assert framework.world.sim.pending == 0


def test_memory_does_not_accumulate_across_cells():
    """tracemalloc, not RSS: the same n=32 TGDH cell three times in a
    row ends within 64 KiB of where the first one ended."""
    spec = {"protocol": "TGDH", "group_size": 32, "dh_group": "dh-test"}
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        run_scale_cell(spec)
        after_first = tracemalloc.get_traced_memory()[0]
        run_scale_cell(spec)
        run_scale_cell(spec)
        after_third = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert abs(after_third - after_first) <= 64 * 1024, (
        f"{after_third - after_first} bytes more after three cells than one"
    )
