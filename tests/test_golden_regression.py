"""Golden regression guard: the simulation is deterministic, so these
exact numbers must not drift silently.

If a change to the cost model, the token ring, the membership protocol or
a key agreement protocol moves these values, that is a *modelling change*:
re-derive the figures, update EXPERIMENTS.md, and refresh the constants
here deliberately.
"""

import pytest

from repro.bench.pool import run_sweep
from repro.bench.load import run_load_cell, storm_faults
from repro.workload import WorkloadSpec

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

@pytest.mark.parametrize("testbed,protocol", sorted(GOLDEN))
def test_join_timing_matches_golden_value(testbed, protocol):
    (measurement,) = run_sweep(
        "figure", protocols=[protocol], event="join", sizes=[6],
        topology=testbed, dh_group="dh-512", repeats=1, seed=0,
    ).rows
    expected_total, expected_membership = GOLDEN[(testbed, protocol)]
    assert measurement.total_ms == pytest.approx(expected_total, abs=1e-3)
    assert measurement.membership_ms == pytest.approx(
        expected_membership, abs=1e-3
    )


# -- sustained-load cells ---------------------------------------------------
#
# The full ``WorkloadResult.to_dict()`` of two small ``run_load_cell``
# cells: the exact gate on the churned, faulted, restarted path (the
# storm cell stalls and restarts).  The values were written out from a
# run with the flight recorder on, so they also pin recorder-off cells
# to what a recorded run reports.

_QUIET = WorkloadSpec(
    protocol="CKD", arrival="poisson", groups=3, group_size=4,
    rate_hz=20.0, duration_ms=600.0, seed=5,
)
_STORM = WorkloadSpec(
    protocol="TGDH", arrival="flash", groups=4, group_size=3,
    rate_hz=15.0, duration_ms=1000.0, seed=7,
    faults=tuple(storm_faults(1000.0)),
)

GOLDEN_LOAD = {
    "quiet": (_QUIET, {
        "protocol": "CKD",
        "arrival": "poisson",
        "groups": 3,
        "group_size": 4,
        "seed": 5,
        "topology": "lan",
        "engine": "symbolic",
        "events": 12,
        "joins": 6,
        "leaves": 6,
        "skipped": 0,
        "member_epochs": 34,
        "duration_ms": 600.0,
        "last_injection_ms": 588.0756812450056,
        "makespan_ms": 990.3399999999349,
        "converge_ms": 402.26431875492926,
        "throughput_eps": 34.33164367793105,
        "rekey_p50_ms": 47.258436670064036,
        "rekey_p95_ms": 51.5356906223762,
        "rekey_p99_ms": 51.5356906223762,
        "rekey_mean_ms": 42.67669720741001,
        "rekey_max_ms": 53.28313380207828,
        "stalls": 0,
        "restarts": 0,
        "converged_groups": 3,
        "converged": True,
    }),
    "storm": (_STORM, {
        "protocol": "TGDH",
        "arrival": "flash",
        "groups": 4,
        "group_size": 3,
        "seed": 7,
        "topology": "lan",
        "engine": "symbolic",
        "events": 24,
        "joins": 18,
        "leaves": 6,
        "skipped": 0,
        "member_epochs": 105,
        "duration_ms": 1000.0,
        "last_injection_ms": 907.8285078070256,
        "makespan_ms": 1711.7600000000348,
        "converge_ms": 803.931492193009,
        "throughput_eps": 61.340374818898596,
        "rekey_p50_ms": 30.64330498235439,
        "rekey_p95_ms": 449.60055305556557,
        "rekey_p99_ms": 449.60055305556557,
        "rekey_mean_ms": 64.99832380953463,
        "rekey_max_ms": 460.690000000051,
        "stalls": 6,
        "restarts": 8,
        "converged_groups": 4,
        "converged": True,
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LOAD))
def test_load_cell_matches_golden_result(name):
    workload, expected = GOLDEN_LOAD[name]
    cell = run_load_cell({"workload": workload.to_spec()})["cell"]
    assert set(cell) == set(expected)
    for field, want in expected.items():
        if isinstance(want, float):
            # percentiles go through libm pow/log: not == across platforms
            assert cell[field] == pytest.approx(want, rel=1e-12), field
        else:
            assert cell[field] == want, field
