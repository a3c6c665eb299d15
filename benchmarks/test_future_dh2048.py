"""Future work C (paper footnote 9): 2048-bit Diffie-Hellman results.

The paper intended to add 2048-bit measurements.  At 2048 bits a full
exponentiation costs ~26 ms on the reference platform, which pushes the
512-bit trends to their extreme: computation dwarfs LAN communication
entirely, GDH/CKD become unusable for medium groups, and the constant- or
log-exponentiation protocols (STR joins, TGDH leaves) win by an order of
magnitude.
"""

import pytest

from conftest import figure_series, run_once
from repro.bench import render_series, series_to_csv

SIZES = (4, 13, 26)


@pytest.fixture(scope="module")
def join_2048():
    return figure_series("lan", "join", "dh-2048", SIZES, repeats=1)


@pytest.fixture(scope="module")
def leave_2048():
    return figure_series("lan", "leave", "dh-2048", SIZES, repeats=1)


def test_join_2048(benchmark, results_dir, join_2048):
    series = run_once(benchmark, lambda: join_2048)
    print()
    print(render_series(series, "Future work: Join - DH 2048 bits (LAN)"))
    series_to_csv(series, f"{results_dir}/future_join_2048.csv")
    # Linear-exponentiation protocols are far behind the flat ones.
    assert series.at("GDH", 26) > 3 * series.at("STR", 26)
    assert series.at("CKD", 26) > 3 * series.at("STR", 26)
    # BD's 3 exponentiations keep it strong well past its 512-bit range.
    assert series.at("BD", 13) < series.at("GDH", 13)
    assert series.at("BD", 13) < series.at("CKD", 13)


def test_leave_2048(benchmark, results_dir, leave_2048):
    series = run_once(benchmark, lambda: leave_2048)
    print()
    print(render_series(series, "Future work: Leave - DH 2048 bits (LAN)"))
    series_to_csv(series, f"{results_dir}/future_leave_2048.csv")
    # The constant/logarithmic protocols win: at 2048 bits BD's three
    # exponentiations finally beat even TGDH's 2h (the trend §6.1.4 notes
    # going from 512 to 1024 bits, taken one step further).
    assert series.winner(26) in ("TGDH", "BD")
    assert series.at("STR", 26) > 2 * series.at("TGDH", 26)
    assert series.at("GDH", 26) > 2 * series.at("TGDH", 26)


def test_2048_exponentation_cost_dominates(join_2048):
    """At 2048 bits the LAN membership service (~2 ms) is hundreds of
    times below the expensive protocols."""
    assert join_2048.at("GDH", 26) > 200 * join_2048.membership_at(26)
