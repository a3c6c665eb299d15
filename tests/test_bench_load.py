"""Tests for the sustained-load benchmark (`repro.bench load`)."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.load import (
    load_cells,
    render_load_table,
    run_load_cell,
    storm_faults,
)
from repro.bench.pool import canonical_json, cell_key, run_sweep
from repro.bench.report import artifact
from repro.obs.metrics import MetricsRegistry
from repro.workload import WorkloadResult

SMALL = dict(
    groups=2, group_size=3, rate_hz=10.0, duration_ms=400.0, seed=7
)


def _small_cells(protocols=("TGDH",), arrivals=("poisson",), **overrides):
    return load_cells(protocols, arrivals=arrivals, **{**SMALL, **overrides})


def test_runner_returns_json_ready_result():
    cell = _small_cells()[0]
    result = run_load_cell(cell.spec)
    json.dumps(result)  # JSON-ready: crosses process/cache boundaries
    parsed = WorkloadResult.from_dict(result["cell"])
    assert parsed.converged
    assert parsed.protocol == "TGDH" and parsed.arrival == "poisson"
    assert result["unkeyed"] == []


def test_grid_shares_one_seed_and_orders_protocol_major():
    cells = _small_cells(protocols=("TGDH", "BD"), arrivals=("poisson", "flash"))
    labels = [
        (c.spec["workload"]["protocol"], c.spec["workload"]["arrival"])
        for c in cells
    ]
    assert labels == [
        ("TGDH", "poisson"), ("TGDH", "flash"),
        ("BD", "poisson"), ("BD", "flash"),
    ]
    assert {c.spec["workload"]["seed"] for c in cells} == {7}


def test_cell_key_tracks_every_spec_field():
    base = _small_cells()[0]
    fingerprint = "f" * 64
    baseline = cell_key(base, fingerprint)
    for overrides in ({"seed": 8}, {"rate_hz": 20.0}, {"groups": 3}):
        changed = _small_cells(**{**overrides})[0]
        assert cell_key(changed, fingerprint) != baseline
    # ...and an identical grid keys identically (cache hits across runs).
    assert cell_key(_small_cells()[0], fingerprint) == baseline


def test_storm_faults_cover_partition_and_heal():
    faults = storm_faults(1000.0)
    actions = [f["action"] for f in faults]
    assert actions == ["partition", "heal"]
    assert faults[0]["at_ms"] == 750.0
    machines = sorted(m for part in faults[0]["components"] for m in part)
    assert machines == list(range(13))


def test_run_load_matches_any_jobs_count():
    kwargs = dict(protocols=("TGDH", "BD"), arrivals=("poisson",), **SMALL)
    sequential = run_sweep("load", jobs=1, **kwargs).rows
    parallel = run_sweep("load", jobs=2, **kwargs).rows
    as_dicts = [r.to_dict() for r in sequential]
    assert as_dicts == [r.to_dict() for r in parallel]
    assert canonical_json(artifact("load", {}, "cells", sequential)) == (
        canonical_json(artifact("load", {}, "cells", parallel))
    )
    assert all(r.converged for r in sequential)


def test_render_load_table_lists_every_cell():
    results = run_sweep(
        "load", protocols=("TGDH",), arrivals=("poisson",), **SMALL
    ).rows
    table = render_load_table(results)
    assert "p50 ms" in table and "epochs/s" in table
    assert "TGDH" in table and "poisson" in table


def test_cli_writes_byte_identical_artifact(tmp_path, capsys):
    args = [
        "load", "--protocols", "TGDH", "--arrivals", "poisson",
        "--groups", "2", "--group-size", "3", "--rate", "10",
        "--duration-ms", "400", "--seed", "7", "--no-storm", "--no-cache",
    ]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(first)]) == 0
    assert main(args + ["-o", str(second), "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "sustained churn" in out
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["benchmark"] == "load"
    assert payload["seed"] == 7
    cells = payload["cells"]
    assert len(cells) == 1 and cells[0]["converged"] is True


def test_cli_replay_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a list"}')
    code = main([
        "load", "--replay", str(bad), "--protocols", "TGDH",
        "-o", str(tmp_path / "out.json"),
    ])
    assert code == 1
    assert "expected a JSON list" in capsys.readouterr().err


def test_cli_replay_rejects_unknown_action(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('[{"at_ms": 1.0, "group": 0, "action": "explode"}]')
    code = main([
        "load", "--replay", str(bad), "--protocols", "TGDH",
        "-o", str(tmp_path / "out.json"),
    ])
    assert code == 1
    assert "unknown churn action" in capsys.readouterr().err


def test_cli_replay_rejects_nan_time(tmp_path, capsys):
    # Python's json reads NaN; such an entry must not reach the clock.
    bad = tmp_path / "bad.json"
    bad.write_text('[{"at_ms": NaN, "group": 0, "action": "join"}]')
    code = main([
        "load", "--replay", str(bad), "--protocols", "TGDH",
        "-o", str(tmp_path / "out.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "at_ms must be finite" in err


def test_cli_rejects_unknown_protocol(capsys):
    with pytest.raises(SystemExit):
        main(["load", "--protocols", "NOPE"])
    assert "invalid choice" in capsys.readouterr().err


def test_cli_replay_runs_the_trace(tmp_path, capsys):
    trace = tmp_path / "churn.json"
    trace.write_text(json.dumps([
        {"at_ms": 50.0, "group": 0, "action": "join"},
        {"at_ms": 150.0, "group": 1, "action": "leave"},
    ]))
    out = tmp_path / "out.json"
    code = main([
        "load", "--replay", str(trace), "--protocols", "TGDH",
        "--groups", "2", "--group-size", "3", "--duration-ms", "300",
        "--no-storm", "--no-cache", "-o", str(out),
    ])
    assert code == 0
    cell = json.loads(out.read_text())["cells"][0]
    assert cell["arrival"] == "trace"
    assert cell["events"] == 2 and cell["converged"] is True


def test_cells_cache_and_invalidate(tmp_path):
    kwargs = dict(
        protocols=("TGDH",), arrivals=("poisson",),
        cache_dir=str(tmp_path), use_cache=True, **SMALL,
    )
    metrics = MetricsRegistry()
    run_sweep("load", metrics=metrics, **kwargs)
    assert metrics.counter_total("bench.pool.cache_misses") == 1
    again = MetricsRegistry()
    run_sweep("load", metrics=again, **kwargs)
    assert again.counter_total("bench.pool.cache_hits") == 1
    assert again.counter_total("bench.pool.cells_executed") == 0
