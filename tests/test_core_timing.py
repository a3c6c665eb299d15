"""Tests for the rekey measurement timeline."""

import pytest

from repro.core.timing import EpochRecord, RekeyTimeline


def test_elapsed_decomposition():
    timeline = RekeyTimeline()
    timeline.mark_event(100.0)
    timeline.record_view((1, 1), "a", 102.0, ("a", "b"))
    timeline.record_view((1, 1), "b", 103.0, ("a", "b"))
    timeline.record_key((1, 1), "a", 110.0)
    timeline.record_key((1, 1), "b", 112.0)
    record = timeline.latest_complete()
    assert record.membership_elapsed() == pytest.approx(3.0)
    assert record.total_elapsed() == pytest.approx(12.0)
    assert record.key_agreement_elapsed() == pytest.approx(9.0)


def test_incomplete_epoch_not_reported():
    timeline = RekeyTimeline()
    timeline.mark_event(0.0)
    timeline.record_view((1, 1), "a", 1.0, ("a", "b"))
    timeline.record_key((1, 1), "a", 2.0)  # b never finishes
    with pytest.raises(LookupError):
        timeline.latest_complete()


def test_latest_complete_picks_newest():
    timeline = RekeyTimeline()
    for seq in (1, 2):
        timeline.mark_event(float(seq * 10))
        timeline.record_view((1, seq), "a", seq * 10 + 1.0, ("a",))
        timeline.record_key((1, seq), "a", seq * 10 + 2.0)
    assert timeline.latest_complete().epoch == (1, 2)


def test_duplicate_records_keep_first():
    timeline = RekeyTimeline()
    timeline.mark_event(0.0)
    timeline.record_view((1, 1), "a", 1.0, ("a",))
    timeline.record_view((1, 1), "a", 5.0, ("a",))
    timeline.record_key((1, 1), "a", 2.0)
    timeline.record_key((1, 1), "a", 9.0)
    record = timeline.latest_complete()
    assert record.view_delivered["a"] == 1.0
    assert record.key_ready["a"] == 2.0


def test_unmarked_event_raises():
    record = EpochRecord(epoch=(1, 1))
    record.view_delivered["a"] = 1.0
    with pytest.raises(ValueError):
        record.membership_elapsed()


def test_latest_complete_with_zero_epochs():
    with pytest.raises(LookupError):
        RekeyTimeline().latest_complete()


def test_latest_complete_with_only_partial_epochs():
    timeline = RekeyTimeline()
    timeline.mark_event(0.0)
    timeline.record_view((1, 1), "a", 1.0, ("a", "b"))
    timeline.record_view((1, 1), "b", 1.5, ("a", "b"))
    # neither member ever reports its key
    with pytest.raises(LookupError):
        timeline.latest_complete()


def test_key_recorded_before_view():
    """A key report may race ahead of the view report for another member;
    the epoch record must survive the inverted arrival order."""
    timeline = RekeyTimeline()
    timeline.mark_event(0.0)
    timeline.record_key((1, 1), "a", 9.0)  # before any record_view
    timeline.record_view((1, 1), "a", 2.0, ("a",))
    record = timeline.latest_complete()
    assert record.event_started_at == 0.0
    assert record.total_elapsed() == pytest.approx(9.0)
    assert record.membership_elapsed() == pytest.approx(2.0)
    assert record.key_agreement_elapsed() == pytest.approx(7.0)


def test_key_agreement_elapsed_reconciles_with_span_breakdown():
    """The decomposition splits ``key_agreement_elapsed`` exactly into
    communication + computation, reading computation off the parent-linked
    chain that ends in the last finisher's ``key-install``."""
    from repro.obs import epoch_breakdown
    from repro.obs.spans import SpanRecorder

    timeline = RekeyTimeline()
    timeline.mark_event(100.0)
    timeline.record_view((1, 1), "a", 102.0, ("a", "b"))
    timeline.record_view((1, 1), "b", 103.0, ("a", "b"))
    timeline.record_key((1, 1), "a", 110.0)
    timeline.record_key((1, 1), "b", 112.0)
    record = timeline.latest_complete()
    spans = SpanRecorder()
    # the chain: a computes before the last view (membership), a frame,
    # a's exponentiations (a is not the last finisher), a frame, then b's
    spans.record("crypto", "pre", "a", "p0", 100.5, 102.5, span_id=1)
    spans.record("net", "a->b", "d0", "p0", 102.5, 104.0, span_id=2, parent_id=1)
    spans.record("crypto", "a-exp", "a", "p0", 104.0, 108.0, span_id=3, parent_id=2)
    spans.record("net", "a->b", "d0", "p0", 108.0, 109.0, span_id=4, parent_id=3)
    spans.record("crypto", "b-exp", "b", "p1", 109.0, 111.0, span_id=5, parent_id=4)
    spans.instant(
        "epoch", "key-install", "b", "p1", 112.0,
        span_id=6, parent_id=5, epoch=(1, 1),
    )
    # b's own crypto that nothing on the chain waited on
    spans.record("crypto", "b-idle", "b", "p1", 104.0, 107.0, span_id=7)
    phases = epoch_breakdown(record, spans)
    assert phases.last_member == "b"
    assert phases.membership_ms == pytest.approx(3.0)
    assert phases.computation_ms == pytest.approx(4.0 + 2.0)
    assert phases.communication_ms == pytest.approx(
        record.key_agreement_elapsed() - 6.0
    )
    assert phases.phase_sum() == pytest.approx(
        record.total_elapsed(), abs=1e-12
    )


def test_rekey_latency_is_one_histogram_per_group_in_label_order():
    timeline = RekeyTimeline()
    timeline.rekey_latency("g1", "TGDH").observe(4.0)
    timeline.rekey_latency("g0", "BD").observe(2.0)
    timeline.rekey_latency("g1", "TGDH").observe(6.0)
    first, second = timeline.rekey_latencies()
    assert (first.name, first.labels, first.count) == (
        "member.rekey_ms", (("group", "g0"), ("protocol", "BD")), 1
    )
    assert second.labels == (("group", "g1"), ("protocol", "TGDH"))
    assert (second.count, second.total, second.max) == (2, 10.0, 6.0)
    timeline.clear_rekey_latencies()
    assert timeline.rekey_latencies() == []
    assert timeline.rekey_latency("g1", "TGDH").count == 0
