"""Experiment harness regenerating the paper's evaluation (§6).

:mod:`repro.bench.harness` runs one experiment cell — a (testbed, protocol,
DH size, event, group size) combination — on the full simulated stack and
returns the paper's measurements (total elapsed time and the membership
service component).  :mod:`repro.bench.series` sweeps group sizes the way
Figures 11, 12 and 14 do.  :mod:`repro.bench.pool` shards grid cells
across worker processes behind a content-addressed result cache;
:mod:`repro.bench.compare` diffs two benchmark artifacts for the exact
perf-regression gate.  :mod:`repro.bench.report` renders the series as
the tables/CSV the benchmark suite prints.  :mod:`repro.bench.load`
sweeps sustained multi-group churn workloads (:mod:`repro.workload`)
across protocols and arrival processes.
"""

from repro.bench.chaos import (
    ChaosCell,
    render_chaos_table,
    run_chaos,
    run_chaos_cell,
)
from repro.bench.compare import compare_files, compare_payloads
from repro.bench.harness import EventMeasurement, ExperimentSpec, run_experiment
from repro.bench.load import (
    render_load_table,
    run_load,
    run_load_cell,
)
from repro.bench.plot import render_plot
from repro.bench.pool import (
    Cell,
    ResultCache,
    cell_key,
    pool_stats,
    register_runner,
    run_cells,
    source_fingerprint,
)
from repro.bench.report import render_series, series_to_csv
from repro.bench.scale import (
    render_scale_table,
    run_scale,
    run_scale_cell,
)
from repro.bench.series import (
    FigureSeries,
    measure_protocol_curve,
    run_figure_cell,
    sweep_group_sizes,
)

__all__ = [
    "Cell",
    "ChaosCell",
    "EventMeasurement",
    "ExperimentSpec",
    "FigureSeries",
    "ResultCache",
    "cell_key",
    "compare_files",
    "compare_payloads",
    "measure_protocol_curve",
    "pool_stats",
    "register_runner",
    "render_chaos_table",
    "render_load_table",
    "render_plot",
    "render_scale_table",
    "render_series",
    "run_cells",
    "run_chaos",
    "run_chaos_cell",
    "run_experiment",
    "run_figure_cell",
    "run_load",
    "run_load_cell",
    "run_scale",
    "run_scale_cell",
    "series_to_csv",
    "source_fingerprint",
    "sweep_group_sizes",
]
