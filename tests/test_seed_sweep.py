"""The seed sweep: every protocol must key every group on a contiguous
range of churn seeds.

A cell replays one arrival trace — Poisson or flash crowd, generated from
the fixed stream seed the ``churn-faults`` benchmark uses — over several
concurrent groups, with or without the half/half partition storm of
``bench load``, on the symbolic LAN testbed.  The cell's seed picks the
leave victims.  A cell passes when :func:`run_load_cell` reports no
unkeyed group; a failing cell prints each unkeyed group's view and every
member's installed epoch and key fingerprint.

Tier-1 runs one shape over a short seed range (a few seconds).  The full
scan — four shapes, 3,200 cells, a few minutes — runs with ``-m slow``.
"""

import functools

import pytest

from repro.bench.load import describe_unkeyed, run_load_cell, storm_faults
from repro.protocols import available
from repro.workload import WorkloadSpec
from repro.workload.arrivals import flash_stream, poisson_stream

#: the arrival-stream seed of the ``churn-faults`` benchmark scenario
STREAM_SEED = 20020923

ARRIVALS = {"poisson": poisson_stream, "flash": flash_stream}

#: a cell's event budget: beyond it the cell reports its groups unkeyed
#: instead of looping
MAX_EVENTS = 300_000

#: (groups, group size, rate Hz, duration ms) -> seeds scanned
TIER1 = {(6, 4, 30.0, 800.0): range(0, 4)}
FULL = {
    (4, 6, 20.0, 1000.0): range(0, 80),
    (4, 6, 30.0, 1000.0): range(0, 20),
    (6, 4, 30.0, 800.0): range(0, 40),
    (8, 4, 40.0, 800.0): range(0, 20),
}


@functools.lru_cache(maxsize=None)
def _trace(arrival, shape):
    return ARRIVALS[arrival](*shape, STREAM_SEED)


def _cells(scan):
    cells = [
        (shape, seed, protocol, arrival, storm)
        for shape, seeds in scan.items()
        for seed in seeds
        for protocol in available()
        for arrival in ARRIVALS
        for storm in (False, True)
    ]
    return [pytest.param(*cell, id=_cell_id(*cell)) for cell in cells]


def _cell_id(shape, seed, protocol, arrival, storm):
    groups, group_size, rate_hz, duration_ms = shape
    return (
        f"{groups}x{group_size}@{rate_hz:g}Hz-{duration_ms:g}ms"
        f"-s{seed}-{protocol}-{arrival}-{'storm' if storm else 'calm'}"
    )


def run_cell(shape, seed, protocol, arrival, storm):
    """One sweep cell through :func:`run_load_cell`, as ``bench load``'s
    pool runs it."""
    groups, group_size, rate_hz, duration_ms = shape
    workload = WorkloadSpec(
        protocol=protocol,
        arrival="trace",
        groups=groups,
        group_size=group_size,
        rate_hz=rate_hz,
        duration_ms=duration_ms,
        seed=seed,
        trace=_trace(arrival, shape),
        faults=tuple(storm_faults(duration_ms)) if storm else (),
    )
    return run_load_cell({"workload": workload.to_spec(), "max_events": MAX_EVENTS})


@pytest.mark.parametrize("shape, seed, protocol, arrival, storm", _cells(TIER1))
def test_cell_keys_every_group(shape, seed, protocol, arrival, storm):
    result = run_cell(shape, seed, protocol, arrival, storm)
    assert not result["unkeyed"], describe_unkeyed(result["unkeyed"])


@pytest.mark.slow
@pytest.mark.parametrize("shape, seed, protocol, arrival, storm", _cells(FULL))
def test_full_scan_cell_keys_every_group(shape, seed, protocol, arrival, storm):
    result = run_cell(shape, seed, protocol, arrival, storm)
    assert not result["unkeyed"], describe_unkeyed(result["unkeyed"])
