"""Golden regression guard: the simulation is deterministic, so these
exact numbers must not drift silently.

If a change to the cost model, the token ring, the membership protocol or
a key agreement protocol moves these values, that is a *modelling change*:
re-derive the figures, update EXPERIMENTS.md, and refresh the constants
here deliberately.
"""

import pytest

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.gcs.topology import lan_testbed, wan_testbed

#: (testbed, protocol) -> (total_ms, membership_ms) for a join at n=6,
#: dh-512, seed 0, one repeat.
GOLDEN = {
    ("lan", "TGDH"): (44.530000, 2.790000),
    ("lan", "BD"): (44.943333, 2.700853),
    ("lan", "GDH"): (76.350000, 2.680000),
    ("wan", "TGDH"): (806.150000, 319.450000),
    ("wan", "BD"): (969.073333, 317.370853),
    ("wan", "GDH"): (1128.890000, 319.340000),
}

_TESTBEDS = {"lan": lan_testbed, "wan": wan_testbed}


@pytest.mark.parametrize("testbed,protocol", sorted(GOLDEN))
def test_join_timing_matches_golden_value(testbed, protocol):
    measurement = run_experiment(
        ExperimentSpec(
            protocol, "join", 6, topology=_TESTBEDS[testbed],
            dh_group="dh-512", repeats=1, seed=0,
        )
    )
    expected_total, expected_membership = GOLDEN[(testbed, protocol)]
    assert measurement.total_ms == pytest.approx(expected_total, abs=1e-3)
    assert measurement.membership_ms == pytest.approx(
        expected_membership, abs=1e-3
    )
