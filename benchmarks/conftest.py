"""Shared fixtures for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper on the
simulated testbeds, prints the series it measured, writes a CSV under
``benchmarks/results/``, and asserts the paper's *shape* claims (who wins,
by roughly what factor, where the crossovers fall).
"""

import os

import pytest

from repro.bench import FigureSeries, run_sweep
from repro.protocols import available

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Every registered protocol — the paper's five, in presentation order
#: (which happens to be sorted order).
ALL_PROTOCOLS = available()

#: The group sizes sampled along the paper's 0-50 member x-axis.
FIGURE_SIZES = (2, 4, 8, 13, 20, 26, 33, 40, 50)


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def run_once(benchmark, fn):
    """Run an expensive simulation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def figure_series(testbed, event, dh_group, sizes, repeats=2):
    """Every protocol's curve on a named testbed, one ``figure`` sweep."""
    run = run_sweep(
        "figure", topology=testbed, protocols=ALL_PROTOCOLS, event=event,
        dh_group=dh_group, sizes=sizes, repeats=repeats,
    )
    return FigureSeries.from_measurements(
        f"{event}-{dh_group}", run.rows, sorted(set(sizes))
    )
