"""Critical-path extraction: the causal chain behind every rekey.

The acceptance bar from the issue: for every epoch of a full
five-protocol join/leave sweep, the critical-path segment durations sum
*float-exactly* (``==``, not approximately) to the epoch's measured
total elapsed time, the chain is fully traced (no dropped ancestors),
and the path survives fault injection.
"""

import pytest

from repro.core import SecureSpreadFramework
from repro.core.driver import GroupDriver
from repro.faults import LinkFaults
from repro.gcs.topology import lan_testbed
from repro.obs import (
    critical_path,
    render_critical_paths,
    timeline_critical_paths,
)
from repro.protocols import available

EVENTS = ("join", "leave")


def _framework(protocol, observe=True, **kwargs):
    options = dict(dh_group="dh-test", observe=observe)
    options.update(kwargs)
    return SecureSpreadFramework(
        lan_testbed(), default_protocol=protocol, **options
    )


def _settled_group(framework, count):
    members = []
    machines = len(framework.world.topology.machines)
    for index in range(count):
        member = framework.member(f"m{index}", index % machines)
        member.join()
        framework.run_until_idle()
        members.append(member)
    return members


def _run_event(framework, members, event):
    if event == "join":
        joiner = framework.member("x1", 1)
        framework.mark_event()
        joiner.join()
    else:
        framework.mark_event()
        members[len(members) // 2].leave()
    framework.run_until_idle()


@pytest.mark.parametrize("event", EVENTS)
@pytest.mark.parametrize("protocol", available())
def test_sum_is_float_exact_for_every_protocol_and_event(protocol, event):
    framework = _framework(protocol)
    members = _settled_group(framework, 4)
    _run_event(framework, members, event)
    paths = timeline_critical_paths(framework.timeline, framework.obs.spans)
    assert paths, "the measured event must yield at least one epoch"
    for path in paths:
        assert path.exact
        assert not path.truncated
        assert path.plain_sum() == path.total  # ==, not approx
        assert all(s.duration >= 0.0 for s in path.segments)


@pytest.mark.parametrize("event", EVENTS)
@pytest.mark.parametrize("protocol", available())
def test_chain_is_recorded_not_inferred(protocol, event):
    """Every epoch's chain carries real traced spans, not the untraced
    fallback, and ends in causally linked work at the critical member."""
    framework = _framework(protocol)
    members = _settled_group(framework, 4)
    _run_event(framework, members, event)
    for path in timeline_critical_paths(
        framework.timeline, framework.obs.spans
    ):
        assert path.trace_id is not None
        traced = [s for s in path.segments if s.category != "wait"]
        assert traced, "chain must contain at least one traced span"
        assert all(s.span_id is not None for s in traced)
        assert {"untraced"} != {s.name for s in path.segments}


@pytest.mark.parametrize("event", EVENTS)
@pytest.mark.parametrize("protocol", available())
def test_chain_instants_separate_every_wait(protocol, event):
    """Each instant on the chain (a delivery, a view change) is a
    zero-duration segment of its own actor, so no wait segment directly
    follows another: a wait always ends at something shown."""
    framework = SecureSpreadFramework(
        lan_testbed(), default_protocol=protocol, engine="symbolic",
        observe=True,
    )
    driver = GroupDriver(framework)
    driver.run(driver.grow(8))
    driver.run(driver.join() if event == "join" else driver.leave())
    paths = timeline_critical_paths(framework.timeline, framework.obs.spans)
    assert paths
    for path in paths:
        assert path.exact
        waits = [s.category == "wait" for s in path.segments]
        assert not any(a and b for a, b in zip(waits, waits[1:])), [
            (s.member, s.name, s.start) for s in path.segments
        ]


@pytest.mark.parametrize("protocol", ("BD", "TGDH"))
def test_exactness_survives_link_faults(protocol):
    framework = _framework(protocol, stall_timeout_ms=400.0)
    members = _settled_group(framework, 4)
    framework.world.install_link_faults(
        LinkFaults.uniform(seed=11, drop=0.12, duplicate=0.2)
    )
    _run_event(framework, members, "join")
    paths = timeline_critical_paths(framework.timeline, framework.obs.spans)
    assert paths
    for path in paths:
        assert path.exact
        assert path.plain_sum() == path.total


def test_untraced_epoch_falls_back_to_single_wait_segment():
    framework = _framework("GDH", observe=False)
    members = _settled_group(framework, 3)
    _run_event(framework, members, "leave")
    record = framework.timeline.latest_complete()
    path = critical_path(record, framework.obs.spans)
    assert path.exact and not path.truncated
    assert [s.name for s in path.segments] == ["untraced"]
    assert path.plain_sum() == path.total


def test_critical_member_matches_last_key_install():
    framework = _framework("STR")
    members = _settled_group(framework, 4)
    _run_event(framework, members, "join")
    record = framework.timeline.latest_complete()
    path = critical_path(record, framework.obs.spans)
    last = max(record.key_ready.items(), key=lambda kv: (kv[1], kv[0]))[0]
    assert path.member == last


def test_segments_partition_the_measured_window():
    """The tiles are contiguous and cover event start -> last key ready."""
    framework = _framework("CKD")
    members = _settled_group(framework, 4)
    _run_event(framework, members, "join")
    record = framework.timeline.latest_complete()
    path = critical_path(record, framework.obs.spans)
    window_start = record.event_started_at
    window_end = record.key_ready[path.member]
    assert path.segments[0].start == pytest.approx(window_start)
    assert path.segments[-1].end == pytest.approx(window_end)
    for before, after in zip(path.segments, path.segments[1:]):
        assert after.start == pytest.approx(before.end)


def test_render_shows_exact_chains_and_phases():
    framework = _framework("TGDH")
    members = _settled_group(framework, 4)
    _run_event(framework, members, "join")
    paths = timeline_critical_paths(framework.timeline, framework.obs.spans)
    text = render_critical_paths(paths)
    assert "critical member" in text
    assert "exact" in text and "INEXACT" not in text
    assert "truncated" not in text
    assert "sum" in text and "segments)" in text


def test_render_empty_timeline():
    assert "No complete rekey epochs" in render_critical_paths([])


def test_rejects_unstarted_epoch():
    framework = _framework("BD")
    _settled_group(framework, 2)  # growth epochs are never event-marked
    record = next(iter(framework.timeline.epochs.values()))
    assert record.event_started_at is None
    with pytest.raises(ValueError):
        critical_path(record, framework.obs.spans)
