"""Figure 14: average join and leave time vs group size on the WAN
testbed (512-bit Diffie-Hellman).

Shape claims reproduced (§6.2.2-6.2.3):

* **join** — GDH performs significantly worse than the others: it needs
  more rounds, and its factor-out round is n Agreed-ordered messages, not
  cheap unicasts; CKD remains competitive (its extra rounds are single
  unicasts); STR and TGDH land in the same range as BD for moderate sizes;
* **leave** — BD is the most expensive (two all-broadcast rounds); GDH,
  CKD and TGDH need a single broadcast and perform similarly; STR's higher
  computation puts it above TGDH;
* the membership service costs hundreds of milliseconds — a significant
  fraction of the total, unlike on the LAN;
* communication cost (rounds × ring latency) dominates everything.
"""

import pytest

from conftest import ALL_PROTOCOLS, figure_series, run_once
from repro.bench import render_series, series_to_csv

WAN_SIZES = (2, 8, 14, 20, 26, 35, 50)


@pytest.fixture(scope="module")
def wan_join():
    return figure_series("wan", "join", "dh-512", WAN_SIZES)


@pytest.fixture(scope="module")
def wan_leave():
    return figure_series("wan", "leave", "dh-512", WAN_SIZES)


def test_fig14_join(benchmark, results_dir, wan_join):
    series = run_once(benchmark, lambda: wan_join)
    print()
    print(render_series(series, "Figure 14 (left): Join - DH 512 bits (WAN)"))
    series_to_csv(series, f"{results_dir}/fig14_join_512.csv")
    # GDH is significantly worse than the non-BD protocols at every size,
    # and the worst overall at large sizes.
    for size in WAN_SIZES:
        assert series.at("GDH", size) > 1.4 * series.at("CKD", size)
        assert series.at("GDH", size) >= series.at("STR", size)
    # CKD remains competitive (two of its three rounds are unicasts).
    assert series.at("CKD", 50) < series.at("GDH", 50) / 1.5
    # Everything is dominated by communication: hundreds of milliseconds.
    for protocol in ALL_PROTOCOLS:
        assert series.at(protocol, 8) > 250


def test_fig14_leave(benchmark, results_dir, wan_leave):
    series = run_once(benchmark, lambda: wan_leave)
    print()
    print(render_series(series, "Figure 14 (right): Leave - DH 512 bits (WAN)"))
    series_to_csv(series, f"{results_dir}/fig14_leave_512.csv")
    # BD is the most expensive leave protocol on the WAN.
    for size in WAN_SIZES[1:]:
        assert series.loser(size) == "BD"
    # GDH, CKD and TGDH exhibit similar performance (single broadcast).
    for size in (20, 50):
        trio = [series.at(p, size) for p in ("GDH", "CKD", "TGDH")]
        assert max(trio) < 2.0 * min(trio)


def test_fig14_membership_service_hundreds_of_ms(wan_join):
    """§6.2.1: the membership service costs 150-700 ms on the WAN — no
    longer negligible relative to key agreement."""
    for cost in wan_join.membership:
        assert 100 < cost < 800


def test_fig14_rounds_dominate(wan_join):
    """§6.2.3: "the number of rounds seems to be the most important factor"
    — 4-round GDH costs more than 3-round CKD, which costs more than the
    fastest 2-round protocol, at every measured size."""
    for size in WAN_SIZES:
        two_round_best = min(
            wan_join.at(p, size) for p in ("BD", "STR", "TGDH")
        )
        assert wan_join.at("GDH", size) > two_round_best
