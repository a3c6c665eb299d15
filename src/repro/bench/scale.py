"""Large-n scaling benchmark: ``python -m repro.bench scale``.

The paper stops at 50 members (its testbed's practical limit); this
benchmark extends the same measurement — total elapsed time of a join and
a leave on a settled group — to groups of up to 1024 members on the
simulated testbeds, which is exactly the regime the paper's conclusion
speculates about.

Three things make large n tractable:

* groups are grown with :meth:`~repro.core.driver.GroupDriver.grow_batched`
  (one rekey per cell instead of one per join),
* the default crypto engine is ``"symbolic"``, which skips the bignum
  arithmetic while charging the identical operation ledger — the
  simulated times are the same as the real engine's by construction (see
  DESIGN.md, "Crypto engines"), and
* every (protocol, size) pair is an independent *cell* — a fresh
  framework grown batched straight to the target size — so the sweep
  shards across worker processes and caches per cell
  (:mod:`repro.bench.pool`).

Per-protocol conventions at scale follow the figure sweeps, except CKD's
1/n-weighted controller-leave term is dropped: at n ≥ 32 the weight is
≤ 3% while the controller leave costs a second full rekey epoch, so the
term is noise that would double CKD's simulation cost.

Each cell also records the exact operation-ledger charges of its
measured events (``EventMeasurement.ops``): integer counts that the
``bench compare`` regression gate can diff bit-for-bit, and the
snapshot of its ``member.rekey_ms`` log-histograms, from which
``scale --observe`` prints its percentile table — cached or fresh.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bench.harness import EventMeasurement, averaged, check_sizes
from repro.bench.pool import SWEEPS, Cell, Sweep
from repro.core.driver import LARGE_RUN_MAX_EVENTS, GroupDriver, Sample
from repro.core.framework import SecureSpreadFramework
from repro.crypto.ledger import OpCounts
from repro.gcs.topology import resolve_testbed
from repro.protocols import available

#: Group sizes sampled by default — powers of two from 32 to 1024.
SCALE_SIZES = (32, 64, 128, 256, 512, 1024)

#: Every registered protocol (the paper's five, plus any plug-ins
#: registered before this module is imported).
SCALE_PROTOCOLS = available()


def _ops_dict(counts: OpCounts) -> dict:
    """JSON-ready integer totals for one measured event."""
    return {
        "exponentiations": counts.exp_count(),
        "small_exp_multiplications": counts.small_mult_count(),
        "multiplications": counts.mult_count(),
        "signatures": counts.signatures,
        "verifications": counts.verifications,
    }


def run_scale_cell(spec: dict) -> dict:
    """One (protocol, group size) cell: measured join and leave.

    A fresh framework is grown batched straight to ``group_size``, then
    a join and a leave are measured ``repeats`` times each, alternating
    join first.  An unmeasured restore puts the size back before every
    measurement but the first; nothing reads the group after the last
    one, so it is not restored.  The size rule is the leave's: a cell
    below two members is refused before it grows.  Returns
    ``{"join": EventMeasurement dict, "leave": EventMeasurement dict}``
    — JSON-ready, so the cell can cross process boundaries and live in
    the result cache — plus ``"rekey_ms"``, the snapshot rows of the
    timeline's ``member.rekey_ms`` log-histograms.

    With ``spec["observe"]`` set the cell runs fully traced;
    observability is passive, so the measured times are identical
    either way.
    """
    size = int(spec["group_size"])
    repeats = int(spec.get("repeats", 1))
    check_sizes("leave", [size], repeats)
    with SecureSpreadFramework(
        resolve_testbed(spec.get("topology", "lan")),
        default_protocol=spec["protocol"],
        dh_group=spec.get("dh_group", "dh-512"),
        seed=int(spec.get("seed", 0)),
        observe=bool(spec.get("observe", False)),
        engine=spec.get("engine", "symbolic"),
    ) as framework:
        max_events = int(spec.get("max_events", LARGE_RUN_MAX_EVENTS))
        driver = GroupDriver(framework, max_events=max_events)
        driver.grow_batched(size)
        samples = {"join": [], "leave": []}
        ops = {"join": OpCounts(), "leave": OpCounts()}
        for index in range(2 * repeats):
            event = ("join", "leave")[index % 2]
            if index:
                driver.run(driver.restore())  # unmeasured
            before = driver.ledger_totals()
            record = driver.run(driver.join() if event == "join" else driver.leave())
            ops[event] = ops[event] + (driver.ledger_totals() - before)
            # No phase attribution (driver.sample): a cell averages only
            # the total and membership times.
            samples[event].append(
                Sample(record.total_elapsed(), record.membership_elapsed())
            )
        result = {
            event: averaged(
                driver, event, size, samples[event], _ops_dict(ops[event])
            ).to_dict()
            for event in ("join", "leave")
        }
        result["rekey_ms"] = framework.timeline.metrics.snapshot()
        return result


def scale_cells(
    protocols: Sequence[str] = SCALE_PROTOCOLS,
    sizes: Sequence[int] = SCALE_SIZES,
    topology: str = "lan",
    dh_group: str = "dh-512",
    engine="symbolic",
    repeats: int = 1,
    seed: int = 0,
    observe: bool = False,
    max_events: int = LARGE_RUN_MAX_EVENTS,
) -> List[Cell]:
    """The sweep's cell grid, protocol-major with sizes ascending."""
    return [
        Cell("scale", {
            "protocol": protocol,
            "group_size": size,
            "dh_group": dh_group,
            "topology": topology,
            "repeats": repeats,
            "seed": seed,
            "engine": engine,
            "observe": observe,
            "max_events": max_events,
        })
        for protocol in protocols
        for size in sorted(set(sizes))
    ]


def _scale_rows(results: List[dict]) -> List[EventMeasurement]:
    """Per size: the join, then the leave."""
    return [
        EventMeasurement.from_dict(result[event])
        for result in results
        for event in ("join", "leave")
    ]


def _scale_summary(result: dict) -> str:
    join, leave = result["join"], result["leave"]
    return (
        f"{join['protocol']} n={join['group_size']}: join "
        f"{join['total_ms']:.1f} ms, leave {leave['total_ms']:.1f} ms"
    )


def render_scale_table(measurements: Sequence[EventMeasurement]) -> str:
    """A compact per-event table: one row per size, one column per protocol."""
    protocols = sorted({m.protocol for m in measurements})
    sizes = sorted({m.group_size for m in measurements})
    cells = {(m.protocol, m.event, m.group_size): m for m in measurements}
    lines = []
    for event in ("join", "leave"):
        if not any(m.event == event for m in measurements):
            continue
        lines.append(f"{event} total elapsed (ms)")
        header = ["    n"] + [f"{p:>12s}" for p in protocols]
        lines.append("".join(header))
        for size in sizes:
            row = [f"{size:5d}"]
            for protocol in protocols:
                m = cells.get((protocol, event, size))
                row.append(f"{m.total_ms:12.1f}" if m else " " * 12)
            lines.append("".join(row))
        lines.append("")
    return "\n".join(lines).rstrip()


SWEEPS["scale"] = Sweep(run_scale_cell, scale_cells, _scale_rows, _scale_summary)
