"""The flight recorder stays passive when links drop frames.

Observed runs take the same code as unobserved ones, with the recorder
bound in at construction (the member's observed subclass, the
network's frame span and the cause each arrival event carries).
Fault-free scale cells already pin obs on ≡ off; these tests extend that
to retried, duplicated and restarted traffic, and pin what the recorder
itself records for one faulted epoch.
"""

import collections

import pytest

from repro.bench import run_chaos_cell
from repro.bench.chaos import CHAOS_STALL_TIMEOUT_MS
from repro.core import SecureSpreadFramework
from repro.core.driver import GroupDriver
from repro.faults import LinkFaults
from repro.gcs import lan_testbed
from repro.obs import critical_path
from repro.protocols import available


@pytest.mark.parametrize("drop_rate", [0.0, 0.15])
@pytest.mark.parametrize("protocol", available())
def test_chaos_cell_is_identical_with_the_recorder_on(protocol, drop_rate):
    spec = {
        "protocol": protocol, "drop_rate": drop_rate,
        "group_size": 8, "repeats": 2, "seed": 0,
    }
    plain = run_chaos_cell(spec)
    traced = run_chaos_cell({**spec, "trace": True})
    assert traced["trace_events"], "the traced cell recorded nothing"
    assert plain["cell"] == traced["cell"]


# One traced TGDH join of the 9th member under 15 % uniform drops: spans
# per category, counter totals, and the blocking chain of the last key
# install as (member, phase, name, duration).  Any change to where the
# recorder attaches must leave every one of these as it is.
_SPANS_BY_CATEGORY = {
    "crypto": 158, "epoch": 90, "gcs": 494, "membership": 1, "net": 383,
}
_COUNTER_TOTALS = {
    "protocol.messages": 20,
    "crypto.exponentiations": 166,
    "crypto.small_exp_multiplications": 0,
    "crypto.multiplications": 0,
    "crypto.signatures": 20,
    "crypto.verifications": 93,
}
_CHAIN_MEMBER = "m6"
_CHAIN_TOTAL = 39.922160000020995
_CHAIN = [
    ("m6", "wait", "wait", 0.5700000000142609),
    ("d8", "communication", "frame d8->d7", 0.1876800000000003),
    ("m6", "wait", "wait", 1.1823200000003453),
    ("m6", "wait", "wait", 0.1999999999998181),
    ("m7", "computation", "TGDH.start", 14.0),
    ("m7", "sign", "sign TGDH.tgdh-tree", 9.300000000000182),
    ("m6", "wait", "wait", 0.8600000000069485),
    ("m6", "wait", "wait", 4.0),
    ("d7", "communication", "frame d7->d6", 0.2221599999998034),
    ("m6", "wait", "wait", 0.1999999999998181),
    ("m6", "tree-sync", "TGDH.tgdh-tree", 9.199999999999818),
]


def test_flight_recorder_records_a_faulted_join_as_before():
    framework = SecureSpreadFramework(
        lan_testbed(), default_protocol="TGDH", engine="symbolic",
        stall_timeout_ms=CHAOS_STALL_TIMEOUT_MS, observe=True,
    )
    driver = GroupDriver(framework)
    driver.run(driver.grow(8))
    framework.world.install_link_faults(LinkFaults.uniform(seed=0, drop=0.15))
    driver.run(driver.join(8 % driver.machines))
    network = framework.world.network
    assert network.fault_drops == network.fault_retries == 6

    obs = framework.obs
    categories = collections.Counter(s.category for s in obs.spans.spans)
    assert dict(categories) == _SPANS_BY_CATEGORY
    assert {
        name: obs.metrics.counter_total(name) for name in _COUNTER_TOTALS
    } == _COUNTER_TOTALS
    path = critical_path(framework.timeline.latest_complete(), obs.spans)
    assert (path.member, path.total, path.exact) == (
        _CHAIN_MEMBER, _CHAIN_TOTAL, True,
    )
    assert [
        (s.member, s.phase, s.name, s.duration) for s in path.segments
    ] == _CHAIN
