"""Determinism: DESIGN.md invariant 5 — same seed, identical results."""

import pytest

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.core import SecureSpreadFramework
from repro.gcs.topology import lan_testbed, wan_testbed
from repro.protocols import available, get_protocol
from repro.protocols.loopback import build_group


@pytest.mark.parametrize("protocol", available())
def test_loopback_runs_are_reproducible(protocol):
    a = build_group(get_protocol(protocol), 5, seed=3)
    b = build_group(get_protocol(protocol), 5, seed=3)
    assert a.shared_key() == b.shared_key()
    assert a.join("x").key == b.join("x").key


def test_simulated_measurements_are_reproducible():
    spec = ExperimentSpec("TGDH", "join", 6, dh_group="dh-test", repeats=1, seed=42)
    first = run_experiment(spec)
    second = run_experiment(spec)
    assert first.total_ms == second.total_ms
    assert first.membership_ms == second.membership_ms


def test_different_seeds_change_key_material():
    fw1 = SecureSpreadFramework(lan_testbed(), dh_group="dh-test", seed=1)
    fw2 = SecureSpreadFramework(lan_testbed(), dh_group="dh-test", seed=2)
    keys = []
    for fw in (fw1, fw2):
        a = fw.member("a", 0)
        b = fw.member("b", 1)
        a.join()
        b.join()
        fw.run_until_idle()
        keys.append(a.key_bytes)
    assert keys[0] != keys[1]


def test_full_wan_simulation_is_bit_reproducible():
    def run():
        fw = SecureSpreadFramework(
            wan_testbed(), default_protocol="GDH", dh_group="dh-test", seed=9
        )
        members = fw.spawn_members(5)
        for member in members:
            member.join()
            fw.run_until_idle()
        members[2].leave()
        fw.run_until_idle()
        return (fw.now, members[0].key_bytes)

    assert run() == run()


def test_concurrent_groups_with_different_protocols():
    """Spread's design point: many collaboration sessions at once — five
    groups, five protocols, overlapping rekeys, no interference."""
    fw = SecureSpreadFramework(lan_testbed(), dh_group="dh-test")
    groups = {}
    for index, protocol in enumerate(available()):
        group_name = f"grp-{protocol}"
        fw.set_group_protocol(group_name, protocol)
        groups[group_name] = [
            fw.member(f"{protocol}-{i}", (index * 2 + i) % 13, group_name)
            for i in range(3)
        ]
    # Interleave the joins so the agreements overlap in time.
    for i in range(3):
        for members in groups.values():
            members[i].join()
    fw.run_until_idle()
    keys = {}
    for group_name, members in groups.items():
        group_keys = {m.key_bytes for m in members}
        assert len(group_keys) == 1, f"{group_name} diverged"
        keys[group_name] = group_keys.pop()
    # Every group has a distinct key.
    assert len(set(keys.values())) == len(keys)
