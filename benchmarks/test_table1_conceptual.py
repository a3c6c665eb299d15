"""Table 1: conceptual communication and computation costs.

Prints the symbolic grid and an evaluated instance, and validates the
formulas against instrumented protocol runs (the same cross-check the
unit-test suite performs, here at the table's presentation sizes).
"""


from conftest import run_once
from repro.analysis.costs import conceptual_cost
from repro.analysis.table1 import render_table1
from repro.gcs.messages import ViewEvent
from repro.protocols import available, get_protocol
from repro.protocols.loopback import build_group


def _measure_all(n=10):
    measurements = {}
    for name in available():
        loop = build_group(get_protocol(name), n)
        stats = loop.join("x")
        loop.leave("x")
        leave_stats = loop.leave(f"m{n // 2}")
        measurements[name] = (stats, leave_stats)
    return measurements


def test_table1(benchmark, results_dir):
    measurements = run_once(benchmark, _measure_all)
    print()
    print(render_table1())
    print()
    print(render_table1(n=10, m=4, p=4))
    with open(f"{results_dir}/table1.txt", "w") as handle:
        handle.write(render_table1() + "\n\n" + render_table1(n=10, m=4, p=4))
    # Validate the exact formulas against the instrumented runs.
    for name, (join_stats, leave_stats) in measurements.items():
        join_cost = conceptual_cost(name, ViewEvent.JOIN, n=10)
        if join_cost.exact:
            assert join_stats.rounds == join_cost.rounds, name
            assert join_stats.total_messages == join_cost.messages, name
            assert (
                join_stats.max_exponentiations()
                == join_cost.serial_exponentiations
            ), name
        leave_cost = conceptual_cost(name, ViewEvent.LEAVE, n=10)
        assert leave_stats.rounds <= leave_cost.rounds, name
        assert leave_stats.total_messages <= leave_cost.messages, name


def test_table1_orderings():
    """The qualitative conclusions the paper draws from Table 1."""
    n = 20
    join = {p: conceptual_cost(p, ViewEvent.JOIN, n=n) for p in available()}
    leave = {p: conceptual_cost(p, ViewEvent.LEAVE, n=n) for p in available()}
    # BD minimizes exponentiations but explodes in messages.
    assert join["BD"].serial_exponentiations == 3
    assert join["BD"].messages == max(c.messages for c in join.values())
    # GDH and CKD scale linearly in computation.
    assert join["GDH"].serial_exponentiations >= n
    assert join["CKD"].serial_exponentiations >= n
    # TGDH scales logarithmically (the bound is 2h+1 with h <= 2 log2 n):
    # asymptotically it beats the linear protocols clearly.
    big_tgdh = conceptual_cost("TGDH", ViewEvent.JOIN, n=100)
    big_gdh = conceptual_cost("GDH", ViewEvent.JOIN, n=100)
    assert big_tgdh.serial_exponentiations < big_gdh.serial_exponentiations / 3
    # STR join is constant.
    assert join["STR"].serial_exponentiations == 5
    # Leave: TGDH's logarithmic bound beats the linear protocols clearly
    # once n outgrows the bound's 2x slack on the tree height.
    big_leave_tgdh = conceptual_cost("TGDH", ViewEvent.LEAVE, n=100)
    big_leave_gdh = conceptual_cost("GDH", ViewEvent.LEAVE, n=100)
    big_leave_str = conceptual_cost("STR", ViewEvent.LEAVE, n=100)
    assert big_leave_tgdh.serial_exponentiations < big_leave_gdh.serial_exponentiations
    assert big_leave_tgdh.serial_exponentiations < big_leave_str.serial_exponentiations
    # GDH merge needs m+3 rounds; everyone else is constant-round.
    merge = {p: conceptual_cost(p, ViewEvent.MERGE, n=n, m=6) for p in available()}
    assert merge["GDH"].rounds == 9
    assert all(merge[p].rounds <= 8 for p in ("BD", "CKD", "STR"))
