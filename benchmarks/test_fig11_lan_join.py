"""Figure 11: average join time vs group size on the LAN testbed,
512- and 1024-bit Diffie-Hellman.

Shape claims reproduced (§6.1.3):

* BD is competitive for small groups but deteriorates rapidly — with a
  512-bit modulus it becomes the worst performer past ~30 members, and its
  cost roughly doubles as the group grows in increments of 13 (one more
  process per testbed machine);
* with a 1024-bit modulus GDH is the worst (modular exponentiation
  dominates) and BD stays good longer;
* STR and TGDH are fairly close, STR slightly better;
* the membership service is negligible (a few milliseconds).
"""

import pytest

from conftest import ALL_PROTOCOLS, FIGURE_SIZES, figure_series, run_once
from repro.bench import render_series, series_to_csv


@pytest.fixture(scope="module")
def join_512(request):
    return figure_series("lan", "join", "dh-512", FIGURE_SIZES)


@pytest.fixture(scope="module")
def join_1024(request):
    return figure_series("lan", "join", "dh-1024", FIGURE_SIZES)


def test_fig11_join_dh512(benchmark, results_dir, join_512):
    series = run_once(benchmark, lambda: join_512)
    print()
    print(render_series(series, "Figure 11 (left): Join - DH 512 bits (LAN)"))
    series_to_csv(series, f"{results_dir}/fig11_join_512.csv")
    # BD deteriorates: worst at 50 members, and far worse than at 13.
    assert series.loser(50) == "BD"
    assert series.at("BD", 50) > 2.5 * series.at("BD", 13)
    # The BD-vs-GDH crossover exists in the paper's mid-size region
    # (ours falls between 13 and 40 members; the paper's near 30).
    crossover = series.crossover("BD", "GDH")
    print(f"BD-vs-GDH crossover between {crossover[0]} and {crossover[1]} members")
    assert crossover is not None
    assert 4 <= crossover[0] and crossover[1] <= 40
    # GDH and CKD scale linearly; GDH is the costlier of the two.
    assert series.at("GDH", 50) > series.at("CKD", 50) > 3 * series.at("CKD", 2)
    # STR stays nearly flat and beats TGDH slightly.
    assert series.at("STR", 50) < 2.5 * series.at("STR", 2)
    assert series.at("STR", 50) < series.at("TGDH", 50)
    # Membership service is a few milliseconds, dwarfed by key agreement.
    assert all(cost < 8.0 for cost in series.membership)
    assert series.membership_at(50) < series.at("TGDH", 50) / 5


def test_fig11_join_dh1024(benchmark, results_dir, join_1024):
    series = run_once(benchmark, lambda: join_1024)
    print()
    print(render_series(series, "Figure 11 (right): Join - DH 1024 bits (LAN)"))
    series_to_csv(series, f"{results_dir}/fig11_join_1024.csv")
    # GDH is the worst at 1024 bits (sharp increase in exponentiation).
    assert series.loser(50) == "GDH"
    assert series.at("GDH", 50) > series.at("BD", 50)
    # BD remains best-of-breed longer than at 512 bits: it still beats
    # GDH and CKD at 26 members.
    assert series.at("BD", 26) < series.at("GDH", 26)
    assert series.at("BD", 26) < series.at("CKD", 26)
    # STR & TGDH remain the cheap protocols.
    assert series.at("STR", 50) < series.at("CKD", 50)
    assert series.at("TGDH", 50) < series.at("GDH", 50)


def test_fig11_bd_cost_doubles_every_thirteen(join_512):
    """§6.1.3: "BD's cost roughly doubles as the group size grows in
    increments of 13" — one extra process lands on every dual-CPU machine."""
    series = join_512
    # 13 -> 26 -> 40: each step adds one process per machine.
    first, second, third = (
        series.at("BD", 13),
        series.at("BD", 26),
        series.at("BD", 40),
    )
    assert second > 1.35 * first
    assert third > 1.35 * second


def test_fig11_1024_costs_exceed_512(join_512, join_1024):
    for protocol in ALL_PROTOCOLS:
        assert join_1024.at(protocol, 50) > join_512.at(protocol, 50)
