"""Tests for the span recorder."""

import pytest

from repro.obs.spans import SpanRecorder


def test_record_keeps_order_and_attrs():
    rec = SpanRecorder()
    rec.record("crypto", "TGDH.start", "m0", "lan0", 1.0, 3.0, epoch="e1")
    rec.record("net", "frame d0->d1", "d0", "lan0", 2.0, 4.0)
    rec.record("crypto", "sign", "m1", "lan1", 5.0, 6.0)
    assert len(rec) == 3
    assert [s.actor for s in rec.spans] == ["m0", "d0", "m1"]
    assert rec.spans[0].attrs == {"epoch": "e1"}
    assert [s.duration for s in rec.spans] == [2.0, 2.0, 1.0]


def test_instants_have_zero_duration():
    rec = SpanRecorder()
    rec.instant("membership", "event", "world", "world", 7.5)
    (span,) = rec.spans
    assert span.is_instant
    assert span.duration == 0.0


def test_capacity_bound_counts_drops():
    rec = SpanRecorder(capacity=2)
    for i in range(5):
        rec.record("net", f"s{i}", "d0", "p0", float(i), float(i) + 1)
    assert len(rec) == 2
    assert rec.dropped == 3


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        SpanRecorder(capacity=0)
