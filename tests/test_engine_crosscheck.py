"""Symbolic-vs-real cross-check (the engine abstraction's core guarantee).

The symbolic engine must be *indistinguishable in cost* from the real
one: every protocol run charges the identical operation ledger, so every
simulated time is identical.  And in both engines all members must agree
on the group key after every membership event — the symbolic dlog
representation preserves the algebra, not just the costs.
"""

import pytest

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.protocols import available, get_protocol
from repro.protocols.loopback import LoopbackGroup

ALL_PROTOCOLS = available()


def _churn(protocol, engine):
    """Joins to n=8, a leave, a partition and a merge; returns per-event
    (op_counts, rounds) plus the final group for key checks."""
    loop = LoopbackGroup(get_protocol(protocol), engine=engine)
    trail = []
    for i in range(8):
        stats = loop.join(f"m{i}")
        trail.append((stats.op_counts, stats.rounds))
    stats = loop.leave("m3")
    trail.append((stats.op_counts, stats.rounds))
    other = loop.partition(["m5", "m6"])
    trail.append((loop.last_stats.op_counts, loop.last_stats.rounds))
    trail.append((other.last_stats.op_counts, other.last_stats.rounds))
    stats = loop.merge(other)
    trail.append((stats.op_counts, stats.rounds))
    return trail, loop


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_ledgers_identical_and_keys_agree_across_churn(protocol):
    real_trail, real_loop = _churn(protocol, "real")
    symbolic_trail, symbolic_loop = _churn(protocol, "symbolic")
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
def test_full_stack_times_identical(protocol):
    """End-to-end on the simulated testbed: join and leave at n ≤ 8 produce
    bit-identical total and membership times under both engines."""
    results = {}
    for engine in ("real", "symbolic"):
        join, leave = (
            run_experiment(
                ExperimentSpec(protocol, event, 5, repeats=1, engine=engine)
            )
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
