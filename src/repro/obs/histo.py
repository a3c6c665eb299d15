"""HDR-style log-bucketed histograms: the one distribution instrument.

The percentile substrate for every latency the package reports: a
:class:`LogHistogram` answers p50/p95/p99 questions about rekey or link
latency without storing every sample, and keeps the count, total, min
and max beside its buckets.

Buckets are geometric with growth factor ``2**(1/8)`` (≈ 9.05 % wide), so
any reported quantile is within one bucket — under ±4.4 % relative error
— of the exact sorted-sample quantile, which is the accuracy bound the
tests assert, and is clamped to the observed ``[min, max]``.  Merging
is *exact and order-independent*: bucket counts are integers (addition
commutes) and float totals are folded with :func:`math.fsum` over the
multiset of shard totals, which is correctly rounded and therefore
independent of merge order — so folding a sweep's per-cell snapshots
gives the same histogram whichever cells ran where.

Like every ``repro.obs`` module this is passive: observing a value never
schedules a simulator event.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

#: Bucket growth factor: 8 buckets per octave (2**(1/8)).
GROWTH = 2.0 ** 0.125
_LOG_GROWTH = math.log(GROWTH)


def bucket_index(value: float) -> int:
    """The geometric bucket a positive value falls into.

    Bucket ``i`` covers ``[GROWTH**i, GROWTH**(i+1))``; values are mapped
    through ``floor(log(v) / log(GROWTH))`` with an exact-power fixup so
    boundary values land in the bucket they open.
    """
    index = math.floor(math.log(value) / _LOG_GROWTH)
    # Float log can land an exact power a hair low/high; nudge into the
    # bucket whose bounds actually contain the value.
    if GROWTH ** (index + 1) <= value:
        index += 1
    elif GROWTH ** index > value:
        index -= 1
    return index


def bucket_bounds(index: int) -> Tuple[float, float]:
    """The ``[low, high)`` value range of bucket ``index``."""
    return (GROWTH ** index, GROWTH ** (index + 1))


def bucket_midpoint(index: int) -> float:
    """The geometric midpoint used as the bucket's representative value."""
    low, high = bucket_bounds(index)
    return math.sqrt(low * high)


class LogHistogram:
    """Log-bucketed histogram with exact, order-independent merging.

    Values ``<= 0`` (a zero-cost rekey under the symbolic engine, say)
    are counted in a dedicated zero bucket rather than discarded, so
    ``count`` always equals the number of ``observe`` calls.
    """

    __slots__ = (
        "name", "labels", "buckets", "zero_count", "count",
        "_total", "_merged_totals", "min", "max",
    )

    def __init__(self, name: str = "", labels: Tuple = ()):
        self.name = name
        self.labels = labels
        self.buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self._total = 0.0
        self._merged_totals: List[float] = []
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self._total += value
        if value > 0.0:
            index = bucket_index(value)
            self.buckets[index] = self.buckets.get(index, 0) + 1
        else:
            self.zero_count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def total(self) -> float:
        """Sum of observed values; exact-rounded across merged shards."""
        if not self._merged_totals:
            return self._total
        return math.fsum(self._merged_totals) + self._total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, reported as the bucket's representative.

        The zero bucket reads 0.0 and any other bucket its geometric
        midpoint, clamped to the observed ``[min, max]``: within one
        bucket of the true sample quantile, and never outside the range
        of what was observed (a midpoint can lie above the largest
        sample of the top bucket).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        value = 0.0
        if rank > self.zero_count:
            seen = self.zero_count
            value = self.max
            for index in sorted(self.buckets):
                seen += self.buckets[index]
                if seen >= rank:
                    value = bucket_midpoint(index)
                    break
        return min(max(value, self.min), self.max)

    def percentiles(self) -> Dict[str, float]:
        """The standard reporting set: p50/p95/p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def merge(
        self,
        buckets: Dict[Any, int],
        zero_count: int,
        count: int,
        total: float,
        minimum: Optional[float],
        maximum: Optional[float],
    ) -> None:
        """Fold another histogram's snapshot in (a shard merge).

        Bucket keys are coerced with ``int()`` because a snapshot that
        crossed a JSON boundary (the result cache, a worker pipe) comes
        back with string keys.
        """
        for key, bucket_count in buckets.items():
            index = int(key)
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count
        self.zero_count += zero_count
        self.count += count
        self._merged_totals.append(total)
        if minimum is not None:
            self.min = minimum if self.min is None else min(self.min, minimum)
        if maximum is not None:
            self.max = maximum if self.max is None else max(self.max, maximum)

    def fold(self, other: "LogHistogram") -> None:
        """:meth:`merge` another in-process histogram in."""
        self.merge(
            other.buckets, other.zero_count, other.count,
            other.total, other.min, other.max,
        )


def render_percentiles(instruments: List[LogHistogram], title: str = "") -> str:
    """Aligned percentile table: one row per labelled log histogram."""
    header = (
        f"{'series':<44s} {'count':>7s} {'p50':>10s} {'p95':>10s} "
        f"{'p99':>10s} {'max':>10s}"
    )
    lines = [title or "Latency percentiles (ms)", header, "-" * len(header)]
    for histogram in instruments:
        label_text = ",".join(f"{k}={v}" for k, v in histogram.labels)
        name = histogram.name + (f"{{{label_text}}}" if label_text else "")
        p = histogram.percentiles()
        maximum = histogram.max if histogram.max is not None else 0.0
        lines.append(
            f"{name:<44s} {histogram.count:7d} {p['p50']:10.3f} "
            f"{p['p95']:10.3f} {p['p99']:10.3f} {maximum:10.3f}"
        )
    if not instruments:
        lines.append("(no log histograms recorded)")
    return "\n".join(lines)
