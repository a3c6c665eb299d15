"""Parallel experiment pool with a content-addressed result cache.

The paper's evaluation (§6) is a grid of independent experiment cells —
protocol × event × group size × topology.  The simulator is fully
deterministic (same seed + spec ⇒ bit-identical simulated times and
ledger charges, pinned by ``tests/test_determinism.py`` and the engine
crosscheck), which makes the grid embarrassingly parallel *and* perfectly
cacheable:

* :func:`run_cells` shards :class:`Cell`\\ s across worker processes
  (``jobs`` workers, default every CPU) and merges the results in cell
  order, independent of completion order — so ``--jobs 4`` output is
  byte-identical to ``--jobs 1``.
* Each cell's result is stored on disk under a key derived from the
  cell's spec dict and a fingerprint of the ``src/repro`` tree
  (:func:`source_fingerprint`); re-running a sweep only executes cells
  whose inputs changed.  Any source edit invalidates every entry, which
  is the conservative and always-correct choice.

Cell *kinds* map to runner functions registered with
:func:`register_runner`; the scale, chaos and figure sweeps each register
one.  Runners take ``(spec, metrics)`` — a JSON-ready spec dict and a
:class:`~repro.obs.metrics.MetricsRegistry` — and return a JSON-ready
result dict, so results can cross process boundaries and live in the
cache without bespoke serialization.  Worker-side metrics snapshots are
merged back into the caller's registry
(:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`), and the pool
itself counts ``bench.pool.cache_hits`` / ``bench.pool.cache_misses`` /
``bench.pool.cells_executed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".bench-cache"

#: Bumping this invalidates every existing cache entry (use when the
#: meaning of a cached payload changes without a source change).
CACHE_FORMAT = 1

#: kind -> runner(spec, metrics) -> JSON-ready result dict.
CELL_RUNNERS: Dict[str, Callable[[dict, MetricsRegistry], dict]] = {}


def register_runner(
    kind: str,
) -> Callable[[Callable[[dict, MetricsRegistry], dict]], Callable]:
    """Register the runner function for a cell kind (decorator)."""

    def decorate(fn: Callable[[dict, MetricsRegistry], dict]) -> Callable:
        CELL_RUNNERS[kind] = fn
        return fn

    return decorate


def _ensure_runners() -> None:
    """Import every module that registers a cell runner.

    Needed in spawn-started workers, which begin with a fresh interpreter
    and only ever import :mod:`repro.bench.pool` itself.
    """
    import repro.bench.chaos  # noqa: F401
    import repro.bench.load  # noqa: F401
    import repro.bench.scale  # noqa: F401
    import repro.bench.series  # noqa: F401


@dataclass(frozen=True)
class Cell:
    """One unit of schedulable, cacheable work.

    ``spec`` must be a JSON-ready dict: it is the cache key (together
    with ``kind`` and the source fingerprint) and the only thing shipped
    to worker processes.  ``summarize`` optionally renders a finished
    result as a one-line progress message; it stays in the parent
    process and never affects the key.
    """

    kind: str
    spec: Dict[str, Any]
    summarize: Optional[Callable[[dict], str]] = field(
        default=None, compare=False
    )

    def label(self) -> str:
        parts = [self.kind]
        for name in ("protocol", "event", "group_size", "drop_rate"):
            if name in self.spec:
                parts.append(f"{name.split('_')[-1]}={self.spec[name]}")
        return " ".join(parts)


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def source_fingerprint(root: Optional[str] = None) -> str:
    """SHA-256 over every ``.py`` file in the ``repro`` package tree.

    Paths are hashed relative to the package root with ``/`` separators,
    in sorted order, so the fingerprint is stable across machines and
    checkout locations and changes whenever any source file changes.
    """
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    paths: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                paths.append(os.path.join(dirpath, name))
    paths.sort(key=lambda p: os.path.relpath(p, root).replace(os.sep, "/"))
    for path in paths:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\x00")
    return digest.hexdigest()


def cell_key(cell: Cell, fingerprint: str) -> str:
    """The content address of one cell's result."""
    blob = canonical_json(
        {
            "format": CACHE_FORMAT,
            "kind": cell.kind,
            "spec": cell.spec,
            "fingerprint": fingerprint,
        }
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed result store: one JSON file per cell key.

    Writes are atomic (temp file + ``os.replace``) so concurrent sweeps
    sharing a cache directory never observe torn entries; unreadable or
    corrupt entries are treated as misses.
    """

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".json")

    def load(self, key: str) -> Optional[dict]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        result = payload.get("result")
        return result if isinstance(result, dict) else None

    def store(self, key: str, cell: Cell, result: dict) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "format": CACHE_FORMAT,
            "kind": cell.kind,
            "spec": cell.spec,
            "result": result,
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # No sort_keys: result dict ordering must survive the
                # round trip, or cached and fresh cells would serialize
                # differently in the merged artifact.
                json.dump(payload, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def execute_cell(
    cell: Cell, metrics: Optional[MetricsRegistry] = None
) -> Tuple[dict, List[dict]]:
    """Run one cell in-process; returns ``(result, metrics snapshot)``."""
    _ensure_runners()
    runner = CELL_RUNNERS.get(cell.kind)
    if runner is None:
        raise KeyError(
            f"no runner registered for cell kind {cell.kind!r}; "
            f"known kinds: {sorted(CELL_RUNNERS)}"
        )
    registry = metrics if metrics is not None else MetricsRegistry(enabled=True)
    result = runner(cell.spec, registry)
    if not isinstance(result, dict):
        raise TypeError(
            f"runner for {cell.kind!r} must return a dict, "
            f"got {type(result).__name__}"
        )
    return result, registry.snapshot()


def _worker(payload: Tuple[str, Dict[str, Any]]) -> Tuple[dict, List[dict]]:
    """Process-pool entry point: rebuild the cell and execute it."""
    kind, spec = payload
    return execute_cell(Cell(kind, spec))


def _mp_context():
    """Prefer fork (inherits the loaded package and runner registry);
    fall back to the platform default (spawn) elsewhere."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None`` or ``<= 0`` means every CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_cells(
    cells: Sequence[Cell],
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[str], None]] = None,
    fingerprint: Optional[str] = None,
) -> List[dict]:
    """Execute every cell, in parallel, through the cache.

    Returns one result dict per cell **in input order** — completion
    order never leaks into the output, so a sweep's merged artifact is
    identical for any ``jobs``.  ``jobs=1`` runs the misses inline in
    the calling process (the sequential path); ``jobs=None`` uses every
    CPU.  Cache misses are executed and then stored; pass
    ``use_cache=False`` (or ``cache_dir=None``) to always execute.  A spec
    that is not JSON-ready — it carries an engine *instance* or a testbed
    factory — can be neither hashed nor shipped to a worker, so such a
    grid runs inline and uncached.

    A runner failure propagates: the pool is torn down and the first
    worker exception re-raised, so a sweep never silently drops cells.
    """
    cells = list(cells)
    say = progress or (lambda _line: None)
    registry = metrics if metrics is not None else MetricsRegistry(enabled=False)
    jobs = resolve_jobs(jobs)
    try:
        for cell in cells:
            canonical_json(cell.spec)
    except TypeError:
        jobs, use_cache = 1, False
    cache = ResultCache(cache_dir) if (use_cache and cache_dir) else None
    total = len(cells)
    results: List[Optional[dict]] = [None] * total
    keys: List[Optional[str]] = [None] * total
    pending: List[int] = []

    if cache is not None and fingerprint is None:
        fingerprint = source_fingerprint()

    registry.gauge("bench.pool.jobs").set(jobs)
    registry.counter("bench.pool.cells").inc(total or 0)
    for index, cell in enumerate(cells):
        if cache is not None:
            keys[index] = cell_key(cell, fingerprint or "")
            cached = cache.load(keys[index])
            if cached is not None:
                results[index] = cached
                registry.counter("bench.pool.cache_hits", kind=cell.kind).inc()
                say(f"[{index + 1}/{total}] {cell.label()}: cache hit")
                continue
            registry.counter("bench.pool.cache_misses", kind=cell.kind).inc()
        pending.append(index)

    def finish(index: int, result: dict, rows: List[dict]) -> None:
        results[index] = result
        if cache is not None:
            cache.store(keys[index], cells[index], result)
        registry.merge_snapshot(rows)
        registry.counter(
            "bench.pool.cells_executed", kind=cells[index].kind
        ).inc()
        cell = cells[index]
        line = f"[{index + 1}/{total}] {cell.label()}: done"
        if cell.summarize is not None:
            line = f"[{index + 1}/{total}] {cell.summarize(result)}"
        say(line)

    if jobs == 1 or len(pending) <= 1:
        for index in pending:
            result, rows = execute_cell(cells[index])
            finish(index, result, rows)
    elif pending:
        # Imported here: only a pooled sweep pays for loading them.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_mp_context()
        ) as pool:
            futures = {
                pool.submit(
                    _worker, (cells[index].kind, cells[index].spec)
                ): index
                for index in pending
            }
            for future in as_completed(futures):
                result, rows = future.result()
                finish(futures[future], result, rows)
    return results  # type: ignore[return-value]


def pool_stats(metrics: MetricsRegistry) -> Dict[str, int]:
    """Hit/miss/executed totals the CLI prints after a pooled sweep."""
    return {
        "cells": int(metrics.counter_total("bench.pool.cells")),
        "cache_hits": int(metrics.counter_total("bench.pool.cache_hits")),
        "cache_misses": int(metrics.counter_total("bench.pool.cache_misses")),
        "executed": int(metrics.counter_total("bench.pool.cells_executed")),
    }
