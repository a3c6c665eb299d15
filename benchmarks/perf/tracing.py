"""Benchmark-side tracing: spans around every public call the driver
makes, and a ``cProfile`` fold into exclusive self time per ``repro``
package.

Spans are kept in memory and written as JSONL when the run ends.  The
fold charges builtin and stdlib time (``pow``, ``pickle``, ``heapq``,
``select`` ...) to its nearest ``repro.*`` caller through the pstats
caller edges, so the packages' self times add up to the profiled time.
"""

from __future__ import annotations

import contextlib
import json
import os
import pstats
import time

#: fold buckets; a ``repro`` sub-package not listed lands in ``other``
#: together with the benchmark's own frames and event-loop idle
PACKAGES = (
    "sim", "gcs", "core", "protocols", "crypto", "obs", "faults",
    "workload", "net", "transport", "bench",
)
OTHER = "other"


class SpanRecorder:
    """Nested wall-clock spans: name, start, end, parent."""

    def __init__(self, workload, run_id):
        self.workload = workload
        self.run_id = run_id
        self.records = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


def package_of(filename, repro_root):
    """The fold bucket of a profiled function, or ``None`` for code
    outside the ``repro`` package directory (charged to its callers
    instead)."""
    if not filename.startswith(repro_root + os.sep):
        return None
    first = filename[len(repro_root) + 1:].split(os.sep)[0]
    return first if first in PACKAGES else OTHER


def fold_profile(profile, repro_root):
    """Exclusive self seconds per package from a ``cProfile.Profile``.

    A ``repro`` function's self time belongs to its package.  Any other
    function's self time is split over its callers in proportion to the
    time spent under each caller edge, recursively, until a ``repro``
    frame is reached; time with no ``repro`` ancestor is ``other``.
    Returns ``(fold, total)`` with ``sum(fold.values()) == total`` up to
    float rounding.
    """
    stats = pstats.Stats(profile).stats
    owner = {}
    for func in stats:
        owner[func] = package_of(func[0], repro_root)
    # share[f]: how a foreign function's self time divides over packages
    share = {
        func: {OTHER: 1.0} for func, package in owner.items() if package is None
    }
    for _ in range(20):  # caller chains through stdlib are short
        updated = {}
        for func in share:
            callers = stats[func][4]
            weight = sum(edge[2] for edge in callers.values())
            if weight <= 0.0:
                updated[func] = {OTHER: 1.0}
                continue
            mix = {}
            for caller, edge in callers.items():
                part = edge[2] / weight
                if part <= 0.0:
                    continue
                package = owner.get(caller)
                if package is not None:
                    mix[package] = mix.get(package, 0.0) + part
                else:
                    for name, value in share.get(caller, {OTHER: 1.0}).items():
                        mix[name] = mix.get(name, 0.0) + part * value
            updated[func] = mix or {OTHER: 1.0}
        share = updated
    fold = {name: 0.0 for name in PACKAGES + (OTHER,)}
    total = 0.0
    for func, (_cc, _nc, self_time, _ct, _callers) in stats.items():
        total += self_time
        package = owner[func]
        if package is not None:
            fold[package] += self_time
        else:
            for name, value in share[func].items():
                fold[name] += self_time * value
    return fold, total
