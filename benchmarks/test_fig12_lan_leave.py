"""Figure 12: average leave time vs group size on the LAN testbed,
512- and 1024-bit Diffie-Hellman.

Shape claims reproduced (§6.1.4):

* TGDH outperforms the rest — its sub-linear (logarithmic) behaviour
  becomes particularly evident past ~30 members;
* BD is the worst at 512 bits (its cost is the same as for a join);
* STR, CKD and GDH all scale linearly, with STR's slope the steepest
  (~3/2 of the others'), which makes STR the most expensive protocol at
  1024 bits;
* TGDH's 1024-bit cost is roughly twice its 512-bit cost and remains the
  leader.
"""

import pytest

from conftest import FIGURE_SIZES, figure_series, run_once
from repro.bench import render_series, series_to_csv


@pytest.fixture(scope="module")
def leave_512():
    return figure_series("lan", "leave", "dh-512", FIGURE_SIZES)


@pytest.fixture(scope="module")
def leave_1024():
    return figure_series("lan", "leave", "dh-1024", FIGURE_SIZES)


def test_fig12_leave_dh512(benchmark, results_dir, leave_512):
    series = run_once(benchmark, lambda: leave_512)
    print()
    print(render_series(series, "Figure 12 (left): Leave - DH 512 bits (LAN)"))
    series_to_csv(series, f"{results_dir}/fig12_leave_512.csv")
    # TGDH outperforms the rest; sub-linear growth.
    assert series.winner(50) == "TGDH"
    assert series.at("TGDH", 50) < 2.2 * series.at("TGDH", 13)
    # BD is the worst at 512 bits.
    assert series.loser(50) == "BD"
    # CKD and GDH are quite close; STR's slope is steeper.
    ckd, gdh = series.at("CKD", 50), series.at("GDH", 50)
    assert abs(ckd - gdh) < 0.45 * max(ckd, gdh)
    str_slope = (series.at("STR", 50) - series.at("STR", 13)) / 37
    gdh_slope = (series.at("GDH", 50) - series.at("GDH", 13)) / 37
    assert str_slope > 1.05 * gdh_slope


def test_fig12_leave_dh1024(benchmark, results_dir, leave_1024):
    series = run_once(benchmark, lambda: leave_1024)
    print()
    print(render_series(series, "Figure 12 (right): Leave - DH 1024 bits (LAN)"))
    series_to_csv(series, f"{results_dir}/fig12_leave_1024.csv")
    # STR is the most expensive protocol at 1024-bit leaves.
    assert series.loser(50) == "STR"
    # TGDH remains the leader.
    assert series.winner(50) == "TGDH"
    # BD is no longer the worst: for small-to-medium groups it performs
    # close to, or better than, GDH.
    assert series.at("BD", 13) < 1.3 * series.at("GDH", 13)


def test_fig12_tgdh_1024_roughly_doubles_512(leave_512, leave_1024):
    """§6.1.4: at 1024 bits TGDH costs roughly twice the 512-bit case."""
    ratio = leave_1024.at("TGDH", 50) / leave_512.at("TGDH", 50)
    assert 1.5 < ratio < 4.5
