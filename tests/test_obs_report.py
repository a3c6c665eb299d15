"""Acceptance tests: the critical-path phase report reconciles exactly.

The paper's §6 decomposes total rekey latency into membership,
communication and computation.  These tests assert the report's
computation is the crypto on the epoch's causal critical path, that it
reproduces ``RekeyTimeline`` totals to 1e-6 ms, and that observability is
passive — the timing numbers with it enabled are bit-identical to the
seed's (golden) values.
"""

import pytest

from repro.bench.pool import run_sweep
from repro.core.driver import GroupDriver
from repro.core.framework import SecureSpreadFramework
from repro.gcs.topology import lan_testbed, wan_testbed
from repro.obs import (
    critical_path,
    epoch_phases,
    render_report,
    timeline_phases,
)
from repro.protocols import available


def _observed_join(protocol, testbed, size=6):
    framework = SecureSpreadFramework(
        testbed(), default_protocol=protocol, observe=True
    )
    for i in range(size):
        member = framework.member(f"m{i}", i % len(framework.world.topology.machines))
        member.join()
        framework.run_until_idle()
    framework.mark_event()
    joiner = framework.member("x1", size % len(framework.world.topology.machines))
    joiner.join()
    framework.run_until_idle()
    return framework


@pytest.mark.parametrize("protocol", ["TGDH", "BD", "GDH", "STR", "CKD"])
def test_phases_sum_to_timeline_total_lan(protocol):
    framework = _observed_join(protocol, lan_testbed)
    record = framework.timeline.latest_complete()
    phases = epoch_phases(record, framework.obs.spans)
    assert phases.phase_sum() == pytest.approx(
        record.total_elapsed(), abs=1e-6
    )
    assert phases.membership_ms == pytest.approx(
        record.membership_elapsed(), abs=1e-9
    )
    assert phases.communication_ms >= 0
    assert phases.computation_ms >= 0
    assert phases.reconciles()


def test_phases_sum_to_timeline_total_wan():
    framework = _observed_join("TGDH", wan_testbed)
    record = framework.timeline.latest_complete()
    phases = epoch_phases(record, framework.obs.spans)
    assert phases.reconciles()
    # On the WAN, communication dominates computation (paper §6.2.2).
    assert phases.communication_ms > phases.computation_ms


def test_bd_is_computation_heavy_on_lan():
    """BD serializes many exponentiations; on a LAN the computation phase
    dominates communication (the effect behind the paper's Fig. 11)."""
    framework = _observed_join("BD", lan_testbed)
    record = framework.timeline.latest_complete()
    phases = epoch_phases(record, framework.obs.spans)
    assert phases.computation_ms > phases.communication_ms


def _driven_event(protocol, event, size=13):
    """Grow ``size`` members on the LAN, then one observed event (what
    ``bench report`` runs)."""
    framework = SecureSpreadFramework(
        lan_testbed(), default_protocol=protocol, observe=True,
        engine="symbolic",
    )
    driver = GroupDriver(framework)
    driver.run(driver.grow(size))
    record = driver.run(driver.join() if event == "join" else driver.leave())
    return framework, record


def test_gdh_leave_on_lan_is_computation_bound():
    """A GDH leave's serial exponentiations run at a member other than the
    last to install the key; the report still counts them as computation
    (paper §6.1: the LAN cost is computation)."""
    framework, record = _driven_event("GDH", "leave")
    phases = epoch_phases(record, framework.obs.spans)
    assert phases.computation_ms >= 0.8 * phases.total_ms


@pytest.mark.parametrize("event", ["join", "leave"])
@pytest.mark.parametrize("protocol", available())
def test_computation_is_chain_crypto_in_key_agreement_window(protocol, event):
    framework, record = _driven_event(protocol, event)
    phases = epoch_phases(record, framework.obs.spans)
    window_start = max(record.view_delivered.values())
    window_end = max(record.key_ready.values())
    chain_crypto = sum(
        max(0.0, min(s.end, window_end) - max(s.start, window_start))
        for s in critical_path(record, framework.obs.spans).segments
        if s.category == "crypto"
    )
    assert phases.computation_ms == pytest.approx(chain_crypto, abs=1e-9)
    assert abs(phases.phase_sum() - record.total_elapsed()) <= 1e-6
    assert phases.communication_ms >= 0


def test_timeline_breakdowns_skips_unmarked_epochs():
    framework = _observed_join("TGDH", lan_testbed)
    breakdowns = timeline_phases(framework.timeline, framework.obs.spans)
    # growth-phase epochs were never event-marked: only the measured join
    assert len(breakdowns) == 1
    assert breakdowns[0].reconciles()


def test_render_report_reconciles_and_names_phases():
    framework = _observed_join("TGDH", lan_testbed)
    text = render_report(framework.timeline, framework.obs.spans)
    assert "membship" in text and "comms" in text and "comput" in text
    assert " yes " in text or text.rstrip().endswith("ms")
    assert "NO" not in text
    assert "WARNING" not in text  # nothing dropped at this scale


def test_render_report_warns_loudly_about_dropped_spans():
    framework = SecureSpreadFramework(
        lan_testbed(), default_protocol="TGDH", observe=True
    )
    framework.obs.spans.capacity = 8
    for i in range(3):
        member = framework.member(f"m{i}", i)
        member.join()
        framework.run_until_idle()
    assert framework.obs.spans.dropped > 0
    text = render_report(framework.timeline, framework.obs.spans)
    assert "!! WARNING" in text
    assert f"dropped {framework.obs.spans.dropped} span(s)" in text
    assert "fixed capacity 8" in text
    assert "smaller --size" in text


def _observed_sample(protocol, event, size):
    """One measured event on a grown group, as a figure cell measures it,
    with the driver's span-based phase attribution when observed."""
    with SecureSpreadFramework(
        lan_testbed(), default_protocol=protocol, observe=True
    ) as framework:
        driver = GroupDriver(framework)
        driver.run(driver.grow(size))
        return driver.run(driver.measured(event))


def _figure_point(protocol, event, size):
    (measurement,) = run_sweep(
        "figure", protocols=[protocol], event=event, sizes=[size], repeats=1
    ).rows
    return measurement


def test_measure_event_without_breakdown_leaves_fields_none():
    measurement = _figure_point("TGDH", "join", 4)
    assert measurement.communication_ms is None
    assert measurement.computation_ms is None


def test_observability_is_passive_bit_identical_timings():
    """Enabling the flight recorder must not move any measured time."""
    plain = _figure_point("BD", "join", 5)
    observed = _observed_sample("BD", "join", 5)
    assert observed.total_ms == plain.total_ms  # exact, not approx
    assert observed.membership_ms == plain.membership_ms
