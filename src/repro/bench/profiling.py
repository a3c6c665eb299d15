"""Self-profiling benchmark: ``python -m repro.bench profile``.

The cross-layer hot-path optimizations (CHANGES.md PR 5) promise real
wall-clock speedups that *cannot* change simulated results — ledger
charges and the virtual clock are independent of host time.  This
subcommand is the proof and the tripwire:

* it runs a **fixed micro-sweep** (one real-engine join+leave cell per
  protocol at one group size) twice — once plain, timed with
  ``time.perf_counter`` and phase-attributed (grow / measured join /
  measured leave) through a :class:`~repro.obs.MetricsRegistry`, and
  once under :mod:`cProfile` for a hot-function table;
* it emits ``BENCH_profile.json`` (hot-function tables + wall-clock
  phase attribution per protocol) and ``BENCH_wallclock.json`` (the
  micro-sweep's wall-clock totals against the committed pre-optimization
  baseline, with a speedup factor and a simulated-time identity check);
* future PRs re-run it against the same committed baseline, so a
  wall-clock regression — or worse, a simulated-time drift — fails
  loudly instead of rotting silently.

The committed baseline (``benchmarks/results/wallclock_baseline.json``)
records the sweep measured at the pre-optimization tree; its
``sim``-field values double as the identity oracle, because simulated
times are deterministic and engine-independent by construction.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import ExperimentSpec
from repro.bench.scale import SCALE_PROTOCOLS
from repro.core.driver import LARGE_RUN_MAX_EVENTS, GroupDriver
from repro.obs.metrics import MetricsRegistry

#: The fixed micro-sweep: one cell per protocol, real engine, LAN, DH-512.
PROFILE_SIZE = 256
PROFILE_PROTOCOLS = SCALE_PROTOCOLS
PROFILE_ENGINE = "real"

#: Default committed baseline the wall-clock artifact compares against.
DEFAULT_BASELINE = "benchmarks/results/wallclock_baseline.json"


def _timed_cell(
    spec: dict, metrics: Optional[MetricsRegistry] = None
) -> dict:
    """One (protocol, size) join+leave cell with wall-clock attribution.

    Mirrors :func:`repro.bench.scale.run_scale_cell`'s measurement
    protocol exactly (same seed, same growth, same victim) so the
    simulated times are comparable with any scale sweep, but brackets
    each phase with ``perf_counter`` and records the host milliseconds
    into ``metrics`` as ``bench.profile.wall_ms`` histograms.
    """
    size = int(spec["group_size"])
    max_events = int(spec.get("max_events", LARGE_RUN_MAX_EVENTS))
    espec = ExperimentSpec(
        protocol=spec["protocol"],
        event="join",
        group_size=size,
        dh_group=spec.get("dh_group", "dh-512"),
        topology=spec.get("topology", "lan"),
        repeats=1,
        seed=int(spec.get("seed", 0)),
        engine=spec.get("engine", PROFILE_ENGINE),
    )
    phases: Dict[str, float] = {}

    def clock(phase: str, started: float) -> float:
        elapsed = time.perf_counter() - started
        phases[phase] = phases.get(phase, 0.0) + elapsed
        if metrics is not None:
            metrics.histogram(
                "bench.profile.wall_ms",
                phase=phase, protocol=espec.protocol,
            ).observe(elapsed * 1000.0)
        return time.perf_counter()

    t = time.perf_counter()
    framework = espec.build_framework(observe=False)
    driver = GroupDriver(framework, max_events=max_events)
    driver.grow_batched(size)
    t = clock("grow", t)
    sim = {}
    for event, inject in (("join", driver.join), ("leave", driver.leave)):
        sim[f"{event}_total_ms"] = driver.run(inject()).total_elapsed()
        driver.run(driver.restore())  # unmeasured
        t = clock(event, t)
    return {
        "protocol": espec.protocol,
        "group_size": size,
        "engine": framework.engine.name,
        "wall_s": round(sum(phases.values()), 4),
        "phases_wall_s": {k: round(v, 4) for k, v in phases.items()},
        "sim": sim,
    }


def _hot_functions(stats: pstats.Stats, top: int) -> List[dict]:
    """The ``top`` hottest rows of a profile, by internal time."""
    rows = []
    entries = sorted(
        stats.stats.items(), key=lambda item: item[1][2], reverse=True
    )
    for (filename, lineno, name), (cc, nc, tottime, cumtime, _) in entries[:top]:
        where = f"{filename}:{lineno}" if lineno else filename
        rows.append(
            {
                "function": name,
                "where": where,
                "ncalls": nc,
                "tottime_s": round(tottime, 4),
                "cumtime_s": round(cumtime, 4),
            }
        )
    return rows


def profile_micro_sweep(
    protocols: Sequence[str] = PROFILE_PROTOCOLS,
    size: int = PROFILE_SIZE,
    engine: str = PROFILE_ENGINE,
    topology: str = "lan",
    dh_group: str = "dh-512",
    seed: int = 0,
    top: int = 15,
    with_profiler: bool = True,
    metrics: Optional[MetricsRegistry] = None,
    progress=None,
) -> dict:
    """Run the fixed micro-sweep; return the profile document.

    The timed pass always runs (it is what ``BENCH_wallclock.json`` is
    built from); the cProfile pass is optional because the profiler
    roughly doubles the sweep's wall-clock.
    """
    cells: Dict[str, dict] = {}
    total = 0.0
    for protocol in protocols:
        spec = {
            "protocol": protocol,
            "group_size": size,
            "engine": engine,
            "topology": topology,
            "dh_group": dh_group,
            "seed": seed,
        }
        cell = _timed_cell(spec, metrics=metrics)
        total += cell["wall_s"]
        if with_profiler:
            profiler = cProfile.Profile()
            profiler.enable()
            _timed_cell(spec)
            profiler.disable()
            stats = pstats.Stats(profiler, stream=io.StringIO())
            cell["hot_functions"] = _hot_functions(stats, top)
        cells[protocol] = cell
        if progress is not None:
            progress(f"{protocol} n={size}: {cell['wall_s']:.2f}s wall")
    return {
        "schema": "repro.bench.profile/1",
        "spec": {
            "protocols": list(protocols),
            "group_size": size,
            "engine": engine,
            "topology": topology,
            "dh_group": dh_group,
            "seed": seed,
        },
        "total_wall_s": round(total, 4),
        "cells": cells,
    }


def wallclock_document(
    profile_doc: dict,
    baseline: Optional[dict],
    max_wall_regression: Optional[float] = None,
) -> dict:
    """The wall-clock artifact: current sweep vs the committed baseline.

    ``sim_identical`` is the load-bearing field: wall-clock numbers vary
    with the host, but the simulated join/leave times of the same spec
    are deterministic — any mismatch means an optimization changed
    behaviour, which the whole PR-5 contract forbids.

    ``max_wall_regression`` optionally turns the wall-clock comparison
    into a (tolerant) gate: ``wall_ok`` is False when the current total
    exceeds ``baseline_total * max_wall_regression``.  The tolerance
    absorbs host variance; values below 1.0 *require* a speedup over
    the committed baseline (the CI trajectory gate runs at 0.6 against
    the pre-optimization baseline).
    """
    current = {
        "total_wall_s": profile_doc["total_wall_s"],
        "per_protocol": {
            name: {
                "wall_s": cell["wall_s"],
                "sim": cell["sim"],
            }
            for name, cell in profile_doc["cells"].items()
        },
    }
    document = {
        "schema": "repro.bench.wallclock/1",
        "spec": profile_doc["spec"],
        "current": current,
    }
    if baseline is not None:
        base_cells = baseline.get("per_protocol", {})
        comparable = [
            name for name in current["per_protocol"] if name in base_cells
        ]
        base_total = sum(base_cells[n]["wall_s"] for n in comparable)
        cur_total = sum(
            current["per_protocol"][n]["wall_s"] for n in comparable
        )
        identical = all(
            base_cells[n]["sim"] == current["per_protocol"][n]["sim"]
            for n in comparable
        )
        document["baseline"] = {
            "source": baseline.get("source", "?"),
            "total_wall_s": round(base_total, 4),
            "per_protocol": {n: base_cells[n] for n in comparable},
        }
        document["speedup"] = (
            round(base_total / cur_total, 2) if cur_total else None
        )
        document["sim_identical"] = identical
        if max_wall_regression is not None:
            ratio = (cur_total / base_total) if base_total else None
            document["wall_ratio"] = (
                round(ratio, 3) if ratio is not None else None
            )
            document["max_wall_regression"] = max_wall_regression
            document["wall_ok"] = (
                ratio is not None and ratio <= max_wall_regression
            )
    return document


def render_profile_table(profile_doc: dict, rows: int = 8) -> str:
    """A terminal summary: wall clock per cell plus its hottest functions."""
    lines = []
    spec = profile_doc["spec"]
    lines.append(
        f"micro-sweep: n={spec['group_size']} {spec['engine']} engine, "
        f"{spec['topology']}, {spec['dh_group']}, seed {spec['seed']}"
    )
    for name, cell in profile_doc["cells"].items():
        phases = cell["phases_wall_s"]
        attributed = ", ".join(
            f"{phase} {phases[phase]:.2f}s" for phase in ("grow", "join", "leave")
            if phase in phases
        )
        lines.append(f"  {name:<5} {cell['wall_s']:7.2f}s  ({attributed})")
        for row in cell.get("hot_functions", [])[:rows]:
            lines.append(
                f"      {row['tottime_s']:8.3f}s {row['ncalls']:>9}x  "
                f"{row['function']}  [{row['where']}]"
            )
    lines.append(f"total: {profile_doc['total_wall_s']:.2f}s")
    return "\n".join(lines)
