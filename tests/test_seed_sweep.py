"""The seed sweep: every protocol must key every group on a contiguous
range of churn seeds.

A cell replays one arrival trace — Poisson or flash crowd, generated from
the fixed stream seed the ``churn-faults`` benchmark uses — over several
concurrent groups, with or without the half/half partition storm of
``bench load``, on the symbolic LAN testbed.  The cell's seed picks the
leave victims.  A cell passes when :func:`run_load_cell` reports no
unkeyed group; a failing cell prints each unkeyed group's view and every
member's installed epoch and key fingerprint, and the install-time
agreement monitor's first view at which two members installed different
keys.

Tier-1 runs one shape over a short seed range (a few seconds).  The full
scan — four shapes, 3,200 cells, a few minutes — runs with ``-m slow``.
"""

import contextlib
import functools
import hashlib

import pytest

from repro.bench.load import describe_unkeyed, run_load_cell, storm_faults
from repro.core.framework import SecureSpreadFramework
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


class InstallLog:
    """The install-time agreement monitor: every key install of a run as
    (group, view id, restart attempt, member, key fingerprint, instant),
    in the order they happened.  It listens on ``on_secure_view``, so it
    adds nothing to the wire or the schedule."""

    def __init__(self):
        self.installs = []

    def record(self, member, view, key):
        fingerprint = hashlib.sha256(key).hexdigest()[:8]
        self.installs.append((
            member.group_name, view.view_id, member._attempt, member.name,
            fingerprint, member.framework.now,
        ))

    def first_divergence(self, group):
        """The first view of ``group`` at which two members installed
        different keys in the same attempt (a restart re-keys a view under
        a new attempt), or None."""
        first = {}
        for in_group, view_id, attempt, name, key, now in self.installs:
            if in_group != group:
                continue
            seen = first.setdefault((view_id, attempt), (name, key, now))
            if seen[1] != key:
                return (
                    f"{group} at view {view_id} attempt {attempt}: {seen[0]} key "
                    f"{seen[1]} at {seen[2]:.3f} ms, {name} key {key} at {now:.3f} ms"
                )
        return None


@contextlib.contextmanager
def watch_installs():
    """An :class:`InstallLog` on every member created inside the block."""
    log = InstallLog()
    member = SecureSpreadFramework.member

    def watched(self, *args, **kwargs):
        created = member(self, *args, **kwargs)
        created.on_secure_view = log.record
        return created

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SecureSpreadFramework, "member", watched)
        yield log


def describe_failure(result, installs):
    """A failing cell: each unkeyed group, then its first divergent install."""
    return "; ".join(
        [describe_unkeyed(result["unkeyed"])]
        + [
            f"first divergent install in {group['group']}: "
            f"{installs.first_divergence(group['group']) or 'none'}"
            for group in result["unkeyed"]
        ]
    )


def check_cell(shape, seed, protocol, arrival, storm):
    with watch_installs() as installs:
        result = run_cell(shape, seed, protocol, arrival, storm)
    assert not result["unkeyed"], describe_failure(result, installs)


@pytest.mark.parametrize("shape, seed, protocol, arrival, storm", _cells(TIER1))
def test_cell_keys_every_group(shape, seed, protocol, arrival, storm):
    check_cell(shape, seed, protocol, arrival, storm)


@pytest.mark.slow
@pytest.mark.parametrize("shape, seed, protocol, arrival, storm", _cells(FULL))
def test_full_scan_cell_keys_every_group(shape, seed, protocol, arrival, storm):
    check_cell(shape, seed, protocol, arrival, storm)
