"""``repro.obs`` — the flight recorder for the whole stack.

One :class:`Observability` object per simulated deployment bundles a
:class:`~repro.obs.spans.SpanRecorder` and a
:class:`~repro.obs.metrics.MetricsRegistry`.  Every layer — the CPU model,
the network, the daemons, the key agreement protocols and the Secure
Spread members — holds a reference and records into it; exporters turn
the result into JSONL, Chrome trace-event JSON, or the per-epoch phase
report that reconciles against :class:`~repro.core.timing.RekeyTimeline`.

:attr:`Observability.enabled` is the one switch, tested at every
recording site; the recorder and registry record what they are handed.
Disabled (the default) it costs one attribute test per site, and even
when enabled it is *passive*: it never schedules simulator events, so observed runs are
bit-identical to unobserved ones.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.causality import Causality, Cause
from repro.obs.critpath import (
    CriticalPath,
    CriticalSegment,
    critical_path,
    render_critical_paths,
    timeline_critical_paths,
)
from repro.obs.export import (
    JSONL_SCHEMA_VERSION,
    spans_to_jsonl,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.histo import LogHistogram, render_percentiles
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    record_op_counts,
)
from repro.obs.report import (
    EpochPhases,
    epoch_phases,
    render_phases,
    render_report,
    timeline_phases,
)
from repro.obs.spans import Span, SpanRecorder

__all__ = [
    "Causality",
    "Cause",
    "Counter",
    "CriticalPath",
    "CriticalSegment",
    "EpochPhases",
    "Gauge",
    "JSONL_SCHEMA_VERSION",
    "LogHistogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanRecorder",
    "critical_path",
    "epoch_phases",
    "record_op_counts",
    "render_critical_paths",
    "render_percentiles",
    "render_phases",
    "render_report",
    "spans_to_jsonl",
    "timeline_critical_paths",
    "timeline_phases",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]


class Observability:
    """Spans + metrics for one deployment, behind a single enable switch."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans = SpanRecorder()
        self.metrics = MetricsRegistry()
        #: causal context (span/trace ids); install as
        #: :attr:`repro.sim.engine.Simulator.cause_hook` to thread causes
        #: through the event graph.
        self.causality = Causality()

    # Convenience pass-throughs so call-sites read naturally.

    def span(
        self,
        category: str,
        name: str,
        actor: str,
        proc: str,
        start: float,
        end: float,
        **attrs: Any,
    ) -> None:
        self.spans.record(category, name, actor, proc, start, end, **attrs)

    def instant(
        self, category: str, name: str, actor: str, proc: str, time: float,
        **attrs: Any,
    ) -> None:
        self.spans.instant(category, name, actor, proc, time, **attrs)

    def caused_span(
        self,
        category: str,
        name: str,
        actor: str,
        proc: str,
        start: float,
        end: float,
        **attrs: Any,
    ):
        """Record a span parented under the ambient cause and return its
        own cause (None outside a trace); callers adopt the returned
        cause when subsequent activity waits on this span."""
        causality = self.causality
        parent = causality.current
        cause = causality.sprout()
        self.spans.record(
            category, name, actor, proc, start, end,
            span_id=cause[0] if cause else None,
            parent_id=parent[0] if parent else None,
            trace_id=cause[1] if cause else None,
            **attrs,
        )
        return cause

    def caused_instant(
        self, category: str, name: str, actor: str, proc: str, time: float,
        **attrs: Any,
    ):
        """Instant-marker variant of :meth:`caused_span`."""
        return self.caused_span(
            category, name, actor, proc, time, time, **attrs
        )

    def counter(self, name: str, **labels: Any):
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any):
        return self.metrics.gauge(name, **labels)

    def log_histogram(self, name: str, **labels: Any):
        return self.metrics.log_histogram(name, **labels)

    # -- export -----------------------------------------------------------

    def to_jsonl(self, path: str) -> int:
        """Dump spans then a metrics snapshot as JSON lines; returns the
        total line count."""
        count = spans_to_jsonl(self.spans.spans, path)
        with open(path, "a") as handle:
            for row in self.metrics.snapshot():
                handle.write(json.dumps({"metric": row}, sort_keys=True) + "\n")
                count += 1
        return count

    def write_chrome_trace(self, path: str):
        """Write the span set as Chrome trace-event JSON; returns the dict."""
        return write_chrome_trace(self.spans.spans, path)


#: The shared disabled instance a layer holds until it is handed its
#: deployment's recorder; nothing records into it.
NULL_OBS = Observability(enabled=False)
