"""Log-bucketed histograms.

Accuracy bar: any reported p50/p95/p99 is within one geometric bucket
of the exact sorted-sample percentile, and never outside the observed
``[min, max]``.  Merge bar: folding shard snapshots is exact and
order-independent.
"""

import math
import random

import pytest

from repro.obs.histo import (
    GROWTH,
    LogHistogram,
    bucket_bounds,
    bucket_index,
    bucket_midpoint,
    render_percentiles,
)


def _exact_quantile(samples, q):
    """Nearest-rank quantile over the raw samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _within_one_bucket(reported, exact):
    if exact <= 0.0:
        return reported == 0.0
    index = bucket_index(exact)
    low, _ = bucket_bounds(index - 1)
    _, high = bucket_bounds(index + 1)
    return low <= reported <= high


# ---------------------------------------------------------------------------
# buckets


def test_bucket_index_boundaries_are_half_open():
    for i in (-3, 0, 1, 17):
        low, high = bucket_bounds(i)
        assert bucket_index(low) == i
        assert bucket_index(high) == i + 1
        assert low < bucket_midpoint(i) < high


def test_bucket_width_is_one_eighth_octave():
    assert GROWTH ** 8 == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# histogram accuracy


@pytest.mark.parametrize("seed", range(5))
def test_percentiles_within_one_bucket_of_sorted_samples(seed):
    rng = random.Random(seed)
    samples = [rng.lognormvariate(2.0, 1.5) for _ in range(2000)]
    hist = LogHistogram("lat")
    for value in samples:
        hist.observe(value)
    for q in (0.5, 0.95, 0.99):
        assert _within_one_bucket(hist.quantile(q), _exact_quantile(samples, q))


def test_a_single_observation_is_every_quantile():
    hist = LogHistogram("lat")
    hist.observe(1.0)  # its bucket's midpoint is 1.044
    assert hist.quantile(0.99) == 1.0
    assert hist.percentiles() == {"p50": 1.0, "p95": 1.0, "p99": 1.0}


def test_quantiles_stay_inside_the_observed_range():
    for seed in range(20):
        rng = random.Random(200 + seed)
        hist = LogHistogram("lat")
        for _ in range(rng.randrange(1, 60)):
            hist.observe(rng.lognormvariate(3.0, 0.4))
        for q in [i / 100 for i in range(101)]:
            assert hist.min <= hist.quantile(q) <= hist.max, (seed, q)


def test_zero_values_counted_not_discarded():
    hist = LogHistogram("lat")
    for value in (0.0, 0.0, 0.0, 5.0):
        hist.observe(value)
    assert hist.count == 4 and hist.zero_count == 3
    assert hist.quantile(0.5) == 0.0
    assert hist.quantile(0.99) > 0.0


def test_empty_and_invalid_quantiles():
    hist = LogHistogram()
    assert hist.quantile(0.5) == 0.0
    hist.observe(1.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_percentiles_reporting_set():
    hist = LogHistogram()
    for v in range(1, 101):
        hist.observe(float(v))
    assert (hist.count, hist.min, hist.max, hist.mean) == (100, 1.0, 100.0, 50.5)
    p = hist.percentiles()
    assert set(p) == {"p50", "p95", "p99"}
    assert p["p50"] <= p["p95"] <= p["p99"]


# ---------------------------------------------------------------------------
# merging


def _snapshot(hist):
    return (
        dict(hist.buckets), hist.zero_count, hist.count,
        hist.total, hist.min, hist.max,
    )


@pytest.mark.parametrize("seed", range(3))
def test_merge_is_exact_and_order_independent(seed):
    rng = random.Random(100 + seed)
    shards = []
    for _ in range(6):
        shard = LogHistogram("lat")
        for _ in range(rng.randrange(1, 300)):
            shard.observe(rng.expovariate(0.01))
        shards.append(_snapshot(shard))

    def fold(order):
        merged = LogHistogram("lat")
        for i in order:
            merged.merge(*shards[i])
        return merged

    forward = fold(range(len(shards)))
    shuffled_order = list(range(len(shards)))
    rng.shuffle(shuffled_order)
    shuffled = fold(shuffled_order)
    assert forward.total == shuffled.total  # fsum: bit-identical
    assert forward.buckets == shuffled.buckets
    assert forward.count == shuffled.count
    assert forward.min == shuffled.min and forward.max == shuffled.max
    assert forward.percentiles() == shuffled.percentiles()


def test_merge_coerces_json_string_bucket_keys():
    source = LogHistogram()
    source.observe(7.0)
    merged = LogHistogram()
    merged.merge(
        {str(k): v for k, v in source.buckets.items()},
        source.zero_count, source.count, source.total, source.min, source.max,
    )
    assert merged.buckets == source.buckets
    assert merged.quantile(0.5) == source.quantile(0.5)


def test_fold_merges_an_in_process_histogram():
    source = LogHistogram("member.rekey_ms")
    for value in (0.0, 3.0, 40.0):
        source.observe(value)
    folded = LogHistogram("member.rekey_ms")
    folded.fold(source)
    assert _snapshot(folded) == _snapshot(source)


# ---------------------------------------------------------------------------
# rendering


def test_render_percentiles_table():
    hist = LogHistogram("member.rekey_ms", (("protocol", "BD"),))
    for v in (10.0, 20.0, 30.0):
        hist.observe(v)
    text = render_percentiles([hist], "Rekey latency percentiles (ms)")
    assert "member.rekey_ms{protocol=BD}" in text
    assert "p50" in text and "p99" in text
    assert "      3" in text  # count column


def test_render_percentiles_empty():
    assert "no log histograms" in render_percentiles([])
