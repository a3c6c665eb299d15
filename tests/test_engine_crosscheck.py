"""Symbolic-vs-real cross-check (the engine abstraction's core guarantee).

The symbolic engine must be *indistinguishable in cost* from the real
one: every protocol run charges the identical operation ledger, so every
simulated time is identical.  And in both engines all members must agree
on the group key after every membership event — the symbolic dlog
representation preserves the algebra, not just the costs.
"""

import pytest

from repro.bench.pool import run_sweep
from repro.crypto.engine import RealEngine
from repro.protocols import available, get_protocol
from repro.protocols.loopback import LoopbackGroup

ALL_PROTOCOLS = available()


def _churn(protocol, engine):
    """Joins to n=8, a leave, a partition and a merge; returns per-event
    (op_counts, rounds), every member's key after every event, and the
    final group for key checks."""
    loop = LoopbackGroup(get_protocol(protocol), engine=engine)
    trail, keys = [], []

    def record(*sides):
        for side in sides:
            stats = side.last_stats
            trail.append((stats.op_counts, stats.rounds))
            keys.append({m: proto.key for m, proto in side.protocols.items()})

    for i in range(8):
        loop.join(f"m{i}")
        record(loop)
    loop.leave("m3")
    record(loop)
    other = loop.partition(["m5", "m6"])
    record(loop, other)
    loop.merge(other)
    record(loop)
    return trail, keys, loop


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_ledgers_identical_and_keys_agree_across_churn(protocol):
    real_trail, _, real_loop = _churn(protocol, "real")
    symbolic_trail, _, symbolic_loop = _churn(protocol, "symbolic")
    assert len(real_trail) == len(symbolic_trail)
    for (real_counts, real_rounds), (sym_counts, sym_rounds) in zip(
        real_trail, symbolic_trail
    ):
        assert real_rounds == sym_rounds
        assert real_counts == sym_counts
    # Key agreement in both engines (shared_key asserts all members match).
    assert real_loop.shared_key() is not None
    assert symbolic_loop.shared_key() is not None
    assert real_loop.members() == symbolic_loop.members()


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_discrete_log_path_is_bit_identical_to_plain_pow(protocol):
    """The real engine's table-served exponentiations change nothing: the
    same ops, rounds and every member's key after every event as the
    plain-``pow`` reference engine (no tables, no cache, no map)."""
    plain = RealEngine(precompute=False, power_cache_size=0)
    real_trail, real_keys, _ = _churn(protocol, "real")
    plain_trail, plain_keys, _ = _churn(protocol, plain)
    assert real_trail == plain_trail
    assert real_keys == plain_keys


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_full_stack_times_identical(protocol):
    """End-to-end on the simulated testbed: join and leave at n ≤ 8 produce
    bit-identical total and membership times under both engines."""
    results = {}
    for engine in ("real", "symbolic"):
        join, leave = (
            run_sweep(
                "figure", protocols=[protocol], event=event, sizes=[5],
                repeats=1, engine=engine,
            ).rows[0]
            for event in ("join", "leave")
        )
        results[engine] = (
            join.total_ms,
            join.membership_ms,
            leave.total_ms,
            leave.membership_ms,
        )
        assert join.engine == engine
    assert results["real"] == results["symbolic"]
