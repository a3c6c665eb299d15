"""Exporters: JSONL event dumps and Chrome trace-event JSON.

The Chrome trace format (loadable in ``chrome://tracing`` and Perfetto)
maps naturally onto the simulation: one *process* per simulated machine,
one *thread* per member/daemon on it, complete (``"ph": "X"``) events for
spans and instant (``"ph": "i"``) events for markers.  Virtual
milliseconds become the format's microsecond ``ts``.

Causal parent edges (:mod:`repro.obs.causality`) are exported as flow
events — an ``"s"`` arrow tail at the parent's end, an ``"f"`` head at
the child's start — so the viewer draws the recorded rekey DAG across
machines and threads.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from repro.obs.spans import Span

#: JSONL export schema version; bumped whenever record shapes change.
#: Version 2 added the leading schema header line and the causal id
#: fields (``span_id``/``parent_id``/``trace_id``) on span records.
#: See DESIGN.md ("Observability record formats") for the full schema.
JSONL_SCHEMA_VERSION = 2


def span_record(span: Span) -> Dict[str, Any]:
    """The JSONL record of one span (the shape DESIGN.md documents)."""
    return {
        "category": span.category,
        "name": span.name,
        "actor": span.actor,
        "proc": span.proc,
        "start": span.start,
        "end": span.end,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "trace_id": span.trace_id,
        "attrs": span.attrs,
    }


def spans_to_jsonl(spans: Iterable[Span], path: str) -> int:
    """Write a schema header then one JSON object per span.

    Returns the number of lines written (header included).
    """
    count = 1
    with open(path, "w") as handle:
        handle.write(json.dumps({
            "schema": {"kind": "repro.obs", "version": JSONL_SCHEMA_VERSION},
        }, sort_keys=True) + "\n")
        for span in spans:
            handle.write(
                json.dumps(span_record(span), sort_keys=True, default=str)
                + "\n"
            )
            count += 1
    return count


def to_chrome_trace(spans: Iterable[Span]) -> Dict[str, Any]:
    """Convert spans to a Chrome trace-event JSON object.

    Processes (``pid``) are simulated machines, threads (``tid``) are
    actors (members/daemons); both get ``"M"`` metadata records for their
    names plus sort indices so the viewer lists them in a stable
    registration order instead of alphabetically.  Parent edges become
    ``"s"``/``"f"`` flow-event pairs keyed by the child's span id.
    """
    spans = list(spans)
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    events: List[Dict[str, Any]] = []
    #: (pid, tid, span) by span_id, for the flow-event pass
    placed: Dict[int, Tuple[int, int, Span]] = {}
    for span in spans:
        if span.proc not in pids:
            pids[span.proc] = len(pids) + 1
            pid = pids[span.proc]
            events.append({
                "ph": "M", "name": "process_name", "pid": pid,
                "tid": 0, "ts": 0, "args": {"name": span.proc},
            })
            events.append({
                "ph": "M", "name": "process_sort_index", "pid": pid,
                "tid": 0, "ts": 0, "args": {"sort_index": pid},
            })
        pid = pids[span.proc]
        tkey = (span.proc, span.actor)
        if tkey not in tids:
            tids[tkey] = len(tids) + 1
            tid = tids[tkey]
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tid, "ts": 0, "args": {"name": span.actor},
            })
            events.append({
                "ph": "M", "name": "thread_sort_index", "pid": pid,
                "tid": tid, "ts": 0, "args": {"sort_index": tid},
            })
        tid = tids[tkey]
        args = {str(k): v for k, v in span.attrs.items()}
        if span.trace_id is not None:
            args["trace_id"] = span.trace_id
        common = {
            "name": span.name, "cat": span.category, "pid": pid, "tid": tid,
            "ts": span.start * 1000.0,  # virtual ms -> trace µs
            "args": args,
        }
        if span.is_instant:
            events.append({**common, "ph": "i", "s": "t"})
        else:
            events.append({**common, "ph": "X", "dur": span.duration * 1000.0})
        if span.span_id is not None:
            placed[span.span_id] = (pid, tid, span)
    # Flow events: one arrow per recorded parent edge whose both ends
    # survived in the span set, keyed by the *child* span id.
    for span in spans:
        if span.parent_id is None or span.span_id is None:
            continue
        parent_entry = placed.get(span.parent_id)
        if parent_entry is None:
            continue
        parent_pid, parent_tid, parent = parent_entry
        child_pid, child_tid, _ = placed[span.span_id]
        events.append({
            "ph": "s", "id": span.span_id, "name": "cause", "cat": "flow",
            "pid": parent_pid, "tid": parent_tid,
            "ts": parent.end * 1000.0, "args": {},
        })
        events.append({
            "ph": "f", "bp": "e", "id": span.span_id, "name": "cause",
            "cat": "flow", "pid": child_pid, "tid": child_tid,
            "ts": span.start * 1000.0, "args": {},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span], path: str) -> Dict[str, Any]:
    """Serialize :func:`to_chrome_trace` output to ``path``; returns it."""
    trace = to_chrome_trace(spans)
    with open(path, "w") as handle:
        json.dump(trace, handle, default=str)
    return trace


def validate_chrome_trace(trace: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``trace`` is well-formed.

    Checks the shape the smoke CI job relies on: a ``traceEvents`` list
    whose entries all carry ``ph``/``ts``/``pid``/``tid``/``name``;
    complete events additionally carry a non-negative ``dur``, and flow
    events (``"s"``/``"f"``) carry an ``id`` binding the arrow's two
    halves together.
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be an object with a traceEvents list")
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    for index, event in enumerate(events):
        for field in ("ph", "ts", "pid", "tid", "name"):
            if field not in event:
                raise ValueError(f"event {index} missing {field!r}")
        if event["ph"] not in ("X", "i", "M", "s", "f"):
            raise ValueError(f"event {index} has unknown phase {event['ph']!r}")
        if event["ph"] == "X":
            if "dur" not in event or event["dur"] < 0:
                raise ValueError(f"event {index} needs a non-negative dur")
        if event["ph"] in ("s", "f") and "id" not in event:
            raise ValueError(f"flow event {index} needs an id")
