"""Group-size sweeps: the series behind Figures 11, 12 and 14.

A :class:`FigureSeries` holds, for each protocol, the elapsed-time curve
over group sizes, plus the membership-service baseline the paper plots
alongside.  Growth is incremental — the group is grown once per protocol
and measured at each sampled size — matching the paper's measurement loop
and keeping simulation time manageable.

Each measured cell is an :class:`~repro.bench.harness.EventMeasurement`,
so figure sweeps and the scale benchmark share one serialization path;
the curves are assembled from the measurements by
:meth:`FigureSeries.from_measurements`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.bench.harness import (
    EventMeasurement,
    ExperimentSpec,
    measure_settled,
)
from repro.bench.pool import Cell, register_runner, run_cells
from repro.core.driver import GroupDriver
from repro.gcs.topology import Topology
from repro.obs.metrics import MetricsRegistry

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

    def to_dict(self) -> dict:
        """JSON-ready payload, cells serialized via ``EventMeasurement``."""
        return {
            "name": self.name,
            "event": self.event,
            "dh_group": self.dh_group,
            "topology": self.topology,
            "sizes": list(self.sizes),
            "measurements": [m.to_dict() for m in self.measurements],
        }

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


def measure_protocol_curve(
    topology_factory: Union[str, Callable[[], Topology]],
    protocol: str,
    event: str,
    dh_group: str = "dh-512",
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 2,
    seed: int = 0,
    engine=None,
) -> List[EventMeasurement]:
    """One protocol's elapsed-time curve over group sizes.

    The group is grown incrementally on a single framework; at each
    sampled size the event is applied ``repeats`` times (the size is
    restored between samples and before the next size, never after the
    last sample) and the total elapsed times averaged — exactly the paper's
    measurement loop.  This is the figure sweeps' unit of parallel work:
    curves for different protocols are independent, but the sizes within
    one curve share framework state and must stay sequential.
    """
    sizes = sorted(set(sizes))
    spec = ExperimentSpec(
        protocol=protocol,
        event=event,
        group_size=max(sizes, default=1),
        dh_group=dh_group,
        topology=topology_factory,
        repeats=repeats,
        seed=seed,
        engine=engine,
    )
    with spec.build_framework() as framework:
        driver = GroupDriver(framework)
        curve = []
        for index, size in enumerate(sizes):
            if index:
                driver.run(driver.restore())  # unmeasured
            curve.append(measure_settled(spec, driver, size))
        return curve


@register_runner("figure")
def run_figure_cell(
    spec: dict, metrics: Optional[MetricsRegistry] = None
) -> dict:
    """One figure cell: a single protocol's full size sweep.

    ``spec["topology"]`` is a testbed *name* whenever the cell is hashed
    or shipped to worker processes.  Returns
    ``{"measurements": [EventMeasurement dict, ...]}`` in size order.
    """
    measurements = measure_protocol_curve(
        spec["topology"],
        spec["protocol"],
        spec["event"],
        dh_group=spec.get("dh_group", "dh-512"),
        sizes=list(spec.get("sizes", DEFAULT_SIZES)),
        repeats=int(spec.get("repeats", 2)),
        seed=int(spec.get("seed", 0)),
        engine=spec.get("engine"),
    )
    return {"measurements": [m.to_dict() for m in measurements]}


def sweep_group_sizes(
    topology: Union[str, Callable[[], Topology]],
    protocols: Sequence[str],
    event: str,
    dh_group: str = "dh-512",
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 2,
    seed: int = 0,
    name: str = "",
    engine=None,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FigureSeries:
    """Measure ``event`` for every protocol across group sizes.

    Each protocol curve is one pool cell, so the assembled series is
    identical for any ``jobs``.  ``topology`` is a testbed name or a
    zero-argument factory; a factory — like an engine *instance* — makes
    the sweep run inline and uncached (see :func:`run_cells`).
    """
    sizes = sorted(set(sizes))

    def summarize(result):
        largest = result["measurements"][-1]
        return (
            f"{largest['protocol']} {event} curve done "
            f"(n={largest['group_size']}: {largest['total_ms']:.1f} ms)"
        )

    cells = [
        Cell(
            "figure",
            {
                "topology": topology,
                "protocol": protocol,
                "event": event,
                "dh_group": dh_group,
                "sizes": sizes,
                "repeats": repeats,
                "seed": seed,
                "engine": engine,
            },
            summarize=summarize,
        )
        for protocol in protocols
    ]
    results = run_cells(
        cells,
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        metrics=metrics,
        progress=progress,
    )
    measurements = [
        EventMeasurement.from_dict(cell_dict)
        for result in results
        for cell_dict in result["measurements"]
    ]
    return FigureSeries.from_measurements(
        name or f"{event}-{dh_group}", measurements, sizes
    )
