"""Experiment harness regenerating the paper's evaluation (§6).

Every measurement is a cell of a registered sweep.
:mod:`repro.bench.pool` shards grid cells across worker processes behind
a content-addressed result cache, and holds the sweep registry: the four
grid kinds — :mod:`repro.bench.series` (group sizes the way Figures 11,
12 and 14 sweep them), :mod:`repro.bench.scale` (large n),
:mod:`repro.bench.chaos` (link faults) and :mod:`repro.bench.load`
(sustained multi-group churn, :mod:`repro.workload`) — each register one
:class:`Sweep`, run by :func:`run_sweep`.  Importing this package imports
all four, so the registry is complete in any process.
:mod:`repro.bench.harness` holds the size rule every measurement obeys
and the paper's measurement record (total elapsed time and the
membership-service component).  :mod:`repro.bench.compare` diffs two
benchmark artifacts for the exact perf-regression gate;
:mod:`repro.bench.report` renders the series as the tables/CSV the
benchmark suite prints.
"""

from repro.bench.chaos import ChaosCell, render_chaos_table, run_chaos_cell
from repro.bench.compare import compare_files, compare_payloads
from repro.bench.harness import EventMeasurement
from repro.bench.load import render_load_table, run_load_cell
from repro.bench.plot import render_plot
from repro.bench.pool import (
    Cell,
    ResultCache,
    Sweep,
    cell_key,
    pool_stats,
    run_cells,
    run_sweep,
    source_fingerprint,
)
from repro.bench.report import render_series, series_to_csv
from repro.bench.scale import render_scale_table, run_scale_cell
from repro.bench.series import FigureSeries, run_figure_cell

__all__ = [
    "Cell",
    "ChaosCell",
    "EventMeasurement",
    "FigureSeries",
    "ResultCache",
    "Sweep",
    "cell_key",
    "compare_files",
    "compare_payloads",
    "pool_stats",
    "render_chaos_table",
    "render_load_table",
    "render_plot",
    "render_scale_table",
    "render_series",
    "run_cells",
    "run_chaos_cell",
    "run_figure_cell",
    "run_load_cell",
    "run_scale_cell",
    "run_sweep",
    "series_to_csv",
    "source_fingerprint",
]
