"""Agreement failures once found under churn, kept as regression cells.

Each ``regressions/*.json`` file is a :meth:`WorkloadSpec.to_spec` dict
for a small cell in which one group used to end without a confirmed
shared key.  The cells share one shape: 6 groups of 4 members replaying
the 30 Hz Poisson churn trace ``poisson_stream(6, 4, 30.0, 800.0,
20020923)`` over 800 ms, on the symbolic LAN testbed with dh-512 and the
default epoch watchdog; the seed picks the leave victims.
``run_load_cell`` runs them as the ``bench load`` pool would.

Every pin must now key every group.  A fixed pin keeps its JSON: it stays
an ordinary cell, so the bug it caught cannot come back unnoticed.  The
unkeyed-group reporting and the sweep's install-time agreement monitor are
checked on the STR pin with STR's old sponsor rule put back, which also
shows that these cells find that bug.
"""

import json
import os
import re

import pytest

from repro.bench.cli import main
from repro.bench.load import describe_unkeyed, run_load_cell
from repro.protocols import StrProtocol
from tests.test_seed_sweep import describe_failure, watch_installs

REGRESSIONS = os.path.join(os.path.dirname(__file__), "regressions")

#: pin -> what the cell did when it was pinned, before its fix
PINNED = {
    "str_seed4_faultfree": "STR, no faults: 5/6 groups keyed, 12 stalls",
    "gdh_seed2_storm": "GDH, partition storm: 5/6 keyed, silent (0 stalls)",
    "tgdh_seed4_storm": "TGDH, partition storm: 5/6 keyed, silent (0 stalls)",
}


def _path(name):
    return os.path.join(REGRESSIONS, f"{name}.json")


def _spec(name):
    with open(_path(name), encoding="utf-8") as handle:
        return json.load(handle)


def _control():
    """GDH with the same storm and seed 4: every group keys."""
    return {**_spec("gdh_seed2_storm"), "seed": 4}


_apply_removal = StrProtocol._apply_removal


def _old_apply_removal(self, doomed):
    """STR's sponsor rule before its fix: a member with no leaver in its
    stack sponsored from the bottom, beside the top that did have one."""
    return 1 if not doomed else _apply_removal(self, doomed)


@pytest.fixture(scope="module")
def results():
    cells = {name: _spec(name) for name in PINNED}
    cells["gdh_seed4_storm_control"] = _control()
    return {name: run_load_cell({"workload": spec}) for name, spec in cells.items()}


@pytest.fixture(scope="module")
def reverted_run():
    """The STR pin under the old sponsor rule, with the install-time
    agreement monitor on: one group ends unkeyed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StrProtocol, "_apply_removal", _old_apply_removal)
        with watch_installs() as installs:
            result = run_load_cell({"workload": _spec("str_seed4_faultfree")})
    return result, installs


@pytest.fixture(scope="module")
def reverted(reverted_run):
    return reverted_run[0]


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_cell_keys_every_group(name, results):
    result = results[name]
    assert not result["unkeyed"], describe_unkeyed(result["unkeyed"])


def test_unkeyed_is_empty_exactly_when_every_group_converged(results, reverted):
    assert not results["gdh_seed4_storm_control"]["unkeyed"]
    for result in [*results.values(), reverted]:
        cell = result["cell"]
        converged = cell["converged_groups"] == cell["groups"]
        assert (not result["unkeyed"]) == converged
        assert len(result["unkeyed"]) == cell["groups"] - cell["converged_groups"]


def test_unkeyed_detail_names_group_members_epochs_and_fingerprints(reverted):
    (group,) = reverted["unkeyed"]
    assert re.fullmatch(r"g[0-5]", group["group"])
    assert group["view"]
    assert len(group["members"]) >= 2
    for member in group["members"]:
        assert member["name"].startswith(group["group"] + ".")
        # a short fingerprint, never the key material itself
        assert member["key"] is None or re.fullmatch(r"[0-9a-f]{8}", member["key"])
    json.dumps(group)  # JSON-ready: crosses the pool's process and cache boundaries
    assert group["group"] in describe_unkeyed([group])


def test_first_divergent_install_names_the_two_sponsor_view(reverted_run):
    """Two sponsors drew two session randoms in view 106 of ``g0``: the
    install-time monitor names that view, the unkeyed group's newest."""
    result, installs = reverted_run
    (group,) = result["unkeyed"]
    assert group["view"] == "((1, 0), 106)"
    divergence = installs.first_divergence(group["group"])
    assert divergence.startswith(f"g0 at view {group['view']} attempt 0: ")
    keys = {member["key"] for member in group["members"]}
    assert len(keys) == 2 and all(key in divergence for key in keys)
    assert f"first divergent install in g0: {divergence}" in describe_failure(
        result, installs
    )
    assert installs.first_divergence("g1") is None  # a group that keyed


def test_bench_load_names_the_unkeyed_group(tmp_path, capsys, monkeypatch):
    """The STR pin through the CLI, under the old sponsor rule:
    ``--replay`` reads the spec file's ``trace`` list, and the other
    flags rebuild the rest of the spec."""
    monkeypatch.setattr(StrProtocol, "_apply_removal", _old_apply_removal)
    code = main([
        "load", "--replay", _path("str_seed4_faultfree"), "--protocols", "STR",
        "--groups", "6", "--group-size", "4", "--rate", "30",
        "--duration-ms", "800", "--seed", "4", "--no-storm",
        "--no-cache", "--jobs", "1", "-o", str(tmp_path / "load.json"),
    ])
    assert code == 1
    out, err = capsys.readouterr()
    (progress,) = [line for line in out.splitlines() if "STR trace:" in line]
    assert "5/6 converged" in progress and "; unkeyed g0 at view" in progress
    assert "did not converge every group on a shared key: unkeyed STR trace g0" in err
