"""Group-size sweeps: the series behind Figures 11, 12 and 14.

A :class:`FigureSeries` holds, for each protocol, the elapsed-time curve
over group sizes, plus the membership-service baseline the paper plots
alongside.  Growth is incremental — the group is grown once per protocol
and measured at each sampled size — matching the paper's measurement loop
and keeping simulation time manageable.

Each measured cell is an :class:`~repro.bench.harness.EventMeasurement`,
so figure sweeps and the scale benchmark share one serialization path;
one protocol's curve is one ``figure`` pool cell, and the curves are
assembled from the measurements by :meth:`FigureSeries.from_measurements`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.bench.harness import EventMeasurement, averaged, check_sizes
from repro.bench.pool import SWEEPS, Cell, Sweep
from repro.core.driver import GroupDriver
from repro.core.framework import SecureSpreadFramework
from repro.gcs.topology import resolve_testbed

#: The default group sizes sampled along the paper's 0-50 member x-axis.
DEFAULT_SIZES = (2, 4, 8, 13, 20, 26, 33, 40, 50)


@dataclass
class FigureSeries:
    """Elapsed-time curves for one (figure, DH size, event) combination."""

    name: str
    event: str
    dh_group: str
    topology: str
    sizes: List[int]
    #: protocol -> elapsed milliseconds per size
    curves: Dict[str, List[float]]
    #: membership-service baseline per size
    membership: List[float]
    #: the per-cell measurements the curves were assembled from (empty for
    #: hand-constructed series)
    measurements: List[EventMeasurement] = field(default_factory=list)

    @classmethod
    def from_measurements(
        cls,
        name: str,
        measurements: Sequence[EventMeasurement],
        sizes: Sequence[int],
    ) -> "FigureSeries":
        """Assemble curves from per-cell measurements.

        Measurements are expected in sweep order (protocol-major, sizes
        ascending within each protocol); the membership baseline takes the
        last measurement per size, matching the sweep's last-protocol-wins
        convention.
        """
        sizes = list(sizes)
        index_of = {size: position for position, size in enumerate(sizes)}
        curves: Dict[str, List[float]] = {}
        membership: List[float] = [0.0] * len(sizes)
        for m in measurements:
            position = index_of[m.group_size]
            curves.setdefault(m.protocol, [0.0] * len(sizes))[
                position
            ] = m.total_ms
            membership[position] = m.membership_ms
        first = measurements[0]
        return cls(
            name=name,
            event=first.event,
            dh_group=first.dh_group,
            topology=first.topology,
            sizes=sizes,
            curves=curves,
            membership=membership,
            measurements=list(measurements),
        )

    def at(self, protocol: str, size: int) -> float:
        """The measured time of ``protocol`` at group size ``size``."""
        return self.curves[protocol][self.sizes.index(size)]

    def membership_at(self, size: int) -> float:
        return self.membership[self.sizes.index(size)]

    def winner(self, size: int) -> str:
        """The fastest protocol at a group size."""
        index = self.sizes.index(size)
        return min(self.curves, key=lambda proto: self.curves[proto][index])

    def loser(self, size: int) -> str:
        """The slowest protocol at a group size."""
        index = self.sizes.index(size)
        return max(self.curves, key=lambda proto: self.curves[proto][index])

    def crossover(self, cheap_small: str, cheap_large: str):
        """The sampled size interval where two curves swap order.

        Returns ``(last size where cheap_small wins, first size where
        cheap_large wins)`` — e.g. the paper's BD-vs-GDH crossover "around
        thirty members" — or None when the ordering never flips.
        """
        last_small_win = None
        for index, size in enumerate(self.sizes):
            a = self.curves[cheap_small][index]
            b = self.curves[cheap_large][index]
            if a < b:
                last_small_win = size
            elif last_small_win is not None:
                return (last_small_win, size)
        return None


def run_figure_cell(spec: dict) -> dict:
    """One figure cell: a single protocol's elapsed-time curve.

    The group is grown incrementally on a single framework; at each
    sampled size the event is applied ``repeats`` times (the size is
    restored between samples and before the next size, never after the
    last sample) and the total elapsed times averaged — exactly the
    paper's measurement loop.  Curves for different protocols are
    independent cells, but the sizes within one curve share framework
    state and stay sequential.  Every size is checked against the size
    rule before the group grows.  Returns ``{"measurements":
    [EventMeasurement dict, ...]}`` in size order.
    """
    sizes = sorted(set(spec.get("sizes", DEFAULT_SIZES)))
    event = spec["event"]
    repeats = int(spec.get("repeats", 2))
    check_sizes(event, sizes, repeats)
    with SecureSpreadFramework(
        resolve_testbed(spec.get("topology", "lan")),
        default_protocol=spec["protocol"],
        dh_group=spec.get("dh_group", "dh-512"),
        seed=int(spec.get("seed", 0)),
        engine=spec.get("engine"),
    ) as framework:
        driver = GroupDriver(framework)
        measurements = []
        for size in sizes:
            if measurements:
                driver.run(driver.restore())  # unmeasured
            driver.run(driver.grow(size))
            samples = []
            for index in range(repeats):
                if index:
                    driver.run(driver.restore())  # unmeasured
                samples.append(driver.run(driver.measured(event)))
            measurements.append(averaged(driver, event, size, samples).to_dict())
        return {"measurements": measurements}


def figure_cells(
    protocols: Sequence[str],
    event: str,
    topology: str = "lan",
    dh_group: str = "dh-512",
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 2,
    seed: int = 0,
    engine=None,
) -> List[Cell]:
    """The sweep's cell grid: one curve per protocol, in given order."""
    return [
        Cell("figure", {
            "topology": topology,
            "protocol": protocol,
            "event": event,
            "dh_group": dh_group,
            "sizes": sorted(set(sizes)),
            "repeats": repeats,
            "seed": seed,
            "engine": engine,
        })
        for protocol in protocols
    ]


def _figure_rows(results: List[dict]) -> List[EventMeasurement]:
    return [
        EventMeasurement.from_dict(measurement)
        for result in results
        for measurement in result["measurements"]
    ]


def _figure_summary(result: dict) -> str:
    largest = result["measurements"][-1]
    return (
        f"{largest['protocol']} {largest['event']} curve done "
        f"(n={largest['group_size']}: {largest['total_ms']:.1f} ms)"
    )


SWEEPS["figure"] = Sweep(
    run_figure_cell, figure_cells, _figure_rows, _figure_summary
)
