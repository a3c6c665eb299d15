"""Metrics registry: counters, gauges and log-bucketed histograms.

The paper's Table 1 reasons in *counts* — exponentiations, signatures,
messages, rounds — and §6 in *per-link traffic*.  The registry collects
exactly those: every instrument is identified by a name plus a frozen
label set (``counter("net.frames", src="m0", dst="m4")``), mirroring the
Prometheus data model so the JSONL export is mechanically convertible.
Distributions (``net.latency_ms`` per link, say) are
:class:`~repro.obs.histo.LogHistogram` instruments, the package's one
distribution type.

The :func:`record_op_counts` bridge turns an
:class:`~repro.crypto.ledger.OpCounts` delta into labelled counters, which
is how "exponentiations per epoch per member" becomes queryable without
touching the crypto layer.

Like the span recorder, the registry is passive: it never schedules
simulator events, so metrics collection cannot change any measured time.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.obs.histo import LogHistogram

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value set to its latest reading (queue depth, clock readings)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class _Noop:
    """Shared sink handed out when the registry is disabled."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NOOP = _Noop()


class MetricsRegistry:
    """Get-or-create registry of named, labelled instruments."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._log_histograms: Dict[Tuple[str, LabelSet], LogHistogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        key = (name, _labelset(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        key = (name, _labelset(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def log_histogram(self, name: str, **labels: Any) -> LogHistogram:
        """Get-or-create a :class:`~repro.obs.histo.LogHistogram`."""
        if not self.enabled:
            return _NOOP  # type: ignore[return-value]
        key = (name, _labelset(labels))
        instrument = self._log_histograms.get(key)
        if instrument is None:
            instrument = self._log_histograms[key] = LogHistogram(name, key[1])
        return instrument

    def log_histograms(self) -> List[LogHistogram]:
        """Every log histogram held, in sorted (name, labels) order."""
        return [h for _, h in sorted(self._log_histograms.items())]

    # -- aggregation ------------------------------------------------------

    def counter_total(self, name: str, **labels: Any) -> float:
        """Sum of all counters with ``name`` whose labels include ``labels``."""
        want = set(_labelset(labels))
        return sum(
            c.value
            for (n, ls), c in self._counters.items()
            if n == name and want <= set(ls)
        )

    def iter_instruments(self) -> Iterator[Tuple[str, str, LabelSet, Any]]:
        """Yield ``(kind, name, labels, instrument)`` for everything held."""
        for (name, labels), c in sorted(self._counters.items()):
            yield "counter", name, labels, c
        for (name, labels), g in sorted(self._gauges.items()):
            yield "gauge", name, labels, g
        for (name, labels), lh in sorted(self._log_histograms.items()):
            yield "log_histogram", name, labels, lh

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-ready dump of every instrument."""
        rows: List[Dict[str, Any]] = []
        for kind, name, labels, instrument in self.iter_instruments():
            row: Dict[str, Any] = {
                "kind": kind, "name": name, "labels": dict(labels),
            }
            if kind == "log_histogram":
                row.update(
                    buckets=dict(instrument.buckets),
                    zero_count=instrument.zero_count,
                    count=instrument.count,
                    total=instrument.total,
                    min=instrument.min,
                    max=instrument.max,
                )
            else:
                row["value"] = instrument.value
            rows.append(row)
        return rows

    def merge_snapshot(self, rows: List[Dict[str, Any]]) -> None:
        """Fold the log-histogram rows of a :meth:`snapshot` in.

        This is how a benchmark cell's latency distribution reaches its
        reporter: a scale cell ships its ``member.rekey_ms`` rows in its
        result (cached or fresh), and the CLI merges every cell's rows
        here.  The merge is *order-independent* — bucket counts are
        integers and float totals are folded as fsum partials — so cells
        merged in any order produce bit-identical snapshots.  Rows of
        other kinds are skipped, and a disabled registry ignores merges,
        like every other recording path.
        """
        if not self.enabled:
            return
        for row in rows:
            if row.get("kind") == "log_histogram":
                self.log_histogram(row["name"], **row.get("labels", {})).merge(
                    row["buckets"], row["zero_count"], row["count"],
                    row["total"], row["min"], row["max"],
                )


def record_op_counts(
    metrics: MetricsRegistry, delta, **labels: Any
) -> None:
    """Bridge an :class:`~repro.crypto.ledger.OpCounts` delta into counters.

    Emits ``crypto.exponentiations`` / ``crypto.small_exp_multiplications``
    / ``crypto.multiplications`` (labelled by modulus ``bits``) plus
    ``crypto.signatures`` and ``crypto.verifications``, all carrying the
    caller's labels (typically ``member=...`` and ``epoch=...``).
    """
    if not metrics.enabled:
        return
    for bits, count in delta.exponentiations:
        metrics.counter("crypto.exponentiations", bits=bits, **labels).inc(count)
    for bits, count in delta.small_exp_multiplications:
        metrics.counter(
            "crypto.small_exp_multiplications", bits=bits, **labels
        ).inc(count)
    for bits, count in delta.multiplications:
        metrics.counter("crypto.multiplications", bits=bits, **labels).inc(count)
    if delta.signatures:
        metrics.counter("crypto.signatures", **labels).inc(delta.signatures)
    if delta.verifications:
        metrics.counter("crypto.verifications", **labels).inc(delta.verifications)
