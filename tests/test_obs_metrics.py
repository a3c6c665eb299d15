"""Tests for the metrics registry and the ledger bridge."""

import json
import random

import pytest

from repro.crypto.ledger import OperationLedger
from repro.obs.metrics import MetricsRegistry, record_op_counts


def test_counter_get_or_create_and_inc():
    reg = MetricsRegistry()
    reg.counter("net.frames", src="d0", dst="d1").inc()
    reg.counter("net.frames", dst="d1", src="d0").inc(2)  # label order-free
    assert reg.counter("net.frames", src="d0", dst="d1").value == 3


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("x").inc(-1)


def test_gauge_moves_both_ways():
    reg = MetricsRegistry()
    g = reg.gauge("queue", daemon="d0")
    g.set(5)
    assert g.value == 5
    g.set(3)
    assert g.value == 3


def test_disabled_registry_hands_out_noops():
    reg = MetricsRegistry(enabled=False)
    reg.counter("x").inc()
    reg.gauge("y").set(9)
    reg.log_histogram("z").observe(1.0)
    assert reg.snapshot() == []


def test_counter_total_aggregates_over_labels():
    reg = MetricsRegistry()
    reg.counter("net.bytes", src="d0", dst="d1").inc(10)
    reg.counter("net.bytes", src="d0", dst="d2").inc(5)
    reg.counter("net.bytes", src="d1", dst="d0").inc(1)
    assert reg.counter_total("net.bytes") == 16
    assert reg.counter_total("net.bytes", src="d0") == 15


def test_snapshot_is_json_ready():
    reg = MetricsRegistry()
    reg.counter("a", k="v").inc()
    reg.gauge("b").set(2)
    reg.log_histogram("c").observe(1.5)
    rows = reg.snapshot()
    kinds = [row["kind"] for row in rows]
    assert kinds == ["counter", "gauge", "log_histogram"]
    assert rows[0]["labels"] == {"k": "v"}
    assert rows[2]["total"] / rows[2]["count"] == 1.5


def _worker_shard(seed):
    """One simulated cell's log-histogram rows."""
    rng = random.Random(seed)
    reg = MetricsRegistry()
    for _ in range(rng.randrange(5, 40)):
        reg.log_histogram(
            "net.latency_ms", src="d0"
        ).observe(rng.uniform(0.1, 50))
        reg.log_histogram(
            "member.rekey_ms", protocol="BD"
        ).observe(rng.expovariate(0.05))
    return reg.snapshot()


@pytest.mark.parametrize("seed", range(3))
def test_merge_snapshot_is_order_independent(seed):
    """Shards folded in any completion order yield bit-identical state.

    This is the property a sweep's percentile table leans on: log-histogram
    totals are fsum partials and buckets are integers.
    """
    rng = random.Random(1000 + seed)
    shards = [_worker_shard(s) for s in range(6)]

    def fold(order):
        reg = MetricsRegistry()
        for index in order:
            reg.merge_snapshot(shards[index])
        return reg.snapshot()

    forward = fold(range(len(shards)))
    shuffled = list(range(len(shards)))
    rng.shuffle(shuffled)
    assert fold(shuffled) == forward  # bit-identical, not approx
    reversed_fold = fold(reversed(range(len(shards))))
    assert reversed_fold == forward


def test_merge_snapshot_round_trips_through_json():
    """A snapshot that crossed a process pipe (string bucket keys) merges
    identically to the in-process original."""
    reg = MetricsRegistry()
    reg.log_histogram("h").observe(3.0)
    reg.log_histogram("h", member="m1").observe(0.0)
    rows = json.loads(json.dumps(reg.snapshot()))
    direct = MetricsRegistry()
    direct.merge_snapshot(reg.snapshot())
    piped = MetricsRegistry()
    piped.merge_snapshot(rows)
    assert piped.snapshot() == direct.snapshot()
    assert piped.log_histogram("h").quantile(0.5) > 0.0


def test_merge_snapshot_preserves_percentiles():
    samples = [float(v) for v in range(1, 201)]
    whole = MetricsRegistry()
    for v in samples:
        whole.log_histogram("lat").observe(v)
    merged = MetricsRegistry()
    for lo in range(0, 200, 50):  # four shards of 50 samples each
        shard = MetricsRegistry()
        for v in samples[lo:lo + 50]:
            shard.log_histogram("lat").observe(v)
        merged.merge_snapshot(shard.snapshot())
    assert (
        merged.log_histogram("lat").percentiles()
        == whole.log_histogram("lat").percentiles()
    )


def test_merge_snapshot_ignored_when_disabled():
    reg = MetricsRegistry(enabled=False)
    reg.merge_snapshot(_worker_shard(0))
    assert reg.snapshot() == []


def test_ledger_bridge_labels_by_modulus_bits():
    ledger = OperationLedger()
    ledger.record_exponentiation(512, 4)
    ledger.record_exponentiation(1024, 2)
    ledger.record_small_exponentiation(512, 5)  # 2 squarings + 1 multiply
    ledger.record_multiplication(512, 7)
    ledger.record_signature(3)
    ledger.record_verification(1)
    reg = MetricsRegistry()
    record_op_counts(reg, ledger.snapshot(), member="m0", epoch="e1")
    assert reg.counter_total("crypto.exponentiations", member="m0") == 6
    assert reg.counter_total("crypto.exponentiations", bits=1024) == 2
    assert reg.counter_total("crypto.small_exp_multiplications") == 3
    assert reg.counter_total("crypto.multiplications") == 7
    assert reg.counter_total("crypto.signatures", epoch="e1") == 3
    assert reg.counter_total("crypto.verifications") == 1


def test_ledger_bridge_noop_when_disabled():
    ledger = OperationLedger()
    ledger.record_signature()
    reg = MetricsRegistry(enabled=False)
    record_op_counts(reg, ledger.snapshot(), member="m0")
    assert reg.snapshot() == []
