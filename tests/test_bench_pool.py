"""The parallel experiment pool, its result cache, and ``bench compare``."""

import json
import runpy
import sys
import time

import pytest

from repro.bench.cli import main
from repro.bench.compare import compare_payloads
from repro.bench.pool import (
    Cell,
    ResultCache,
    cell_key,
    pool_stats,
    register_runner,
    run_cells,
    source_fingerprint,
)
from repro.bench.report import write_json
from repro.bench.scale import run_scale, scale_payload
from repro.obs import MetricsRegistry

EXECUTIONS = []


@register_runner("test-echo")
def _echo_runner(spec, metrics):
    """Deterministic toy runner; staggers sleeps to scramble completion
    order so merge-order tests actually exercise the reordering."""
    EXECUTIONS.append(spec["index"])
    time.sleep(0.05 if spec["index"] % 2 == 0 else 0.0)
    metrics.counter("test.echo.runs").inc()
    return {"index": spec["index"], "value": spec["index"] * 10}


def _echo_cells(count):
    return [Cell("test-echo", {"index": i}) for i in range(count)]


# -- shard/merge ordering -----------------------------------------------------


def test_results_merge_in_input_order_regardless_of_completion():
    results = run_cells(_echo_cells(6), jobs=4, use_cache=False)
    assert [r["index"] for r in results] == list(range(6))
    assert [r["value"] for r in results] == [i * 10 for i in range(6)]


def test_jobs_one_runs_inline_and_in_order():
    EXECUTIONS.clear()
    results = run_cells(_echo_cells(4), jobs=1, use_cache=False)
    assert [r["index"] for r in results] == list(range(4))
    # Inline execution: the cells ran in this process, in input order.
    assert EXECUTIONS == list(range(4))


def test_unknown_kind_raises():
    with pytest.raises(KeyError):
        run_cells([Cell("no-such-kind", {})], jobs=1, use_cache=False)


# -- the content-addressed cache ----------------------------------------------


def test_cache_hit_miss_and_fingerprint_invalidation(tmp_path):
    cells = _echo_cells(3)
    cache_dir = str(tmp_path / "cache")

    def sweep(fingerprint):
        registry = MetricsRegistry(enabled=True)
        results = run_cells(
            cells, jobs=1, cache_dir=cache_dir, use_cache=True,
            metrics=registry, fingerprint=fingerprint,
        )
        return results, pool_stats(registry)

    cold, stats = sweep("fp-aaa")
    assert stats == {
        "cells": 3, "cache_hits": 0, "cache_misses": 3, "executed": 3,
    }
    warm, stats = sweep("fp-aaa")
    assert stats["cache_hits"] == 3 and stats["executed"] == 0
    assert warm == cold
    # A source-tree change (different fingerprint) invalidates everything.
    _, stats = sweep("fp-bbb")
    assert stats["cache_hits"] == 0 and stats["executed"] == 3


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cell = Cell("test-echo", {"index": 7})
    cache_dir = str(tmp_path / "cache")
    run_cells(
        [cell], jobs=1, cache_dir=cache_dir, use_cache=True,
        fingerprint="fp",
    )
    cache = ResultCache(cache_dir)
    path = cache._path(cell_key(cell, "fp"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    registry = MetricsRegistry(enabled=True)
    (result,) = run_cells(
        [cell], jobs=1, cache_dir=cache_dir, use_cache=True,
        metrics=registry, fingerprint="fp",
    )
    assert result == {"index": 7, "value": 70}
    assert pool_stats(registry)["executed"] == 1
    # The corrupt entry was rewritten and is servable again.
    assert cache.load(cell_key(cell, "fp")) == result


def test_source_fingerprint_tracks_tree_content(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text("x = 1\n")
    first = source_fingerprint(str(tree))
    assert first == source_fingerprint(str(tree))
    (tree / "a.py").write_text("x = 2\n")
    assert source_fingerprint(str(tree)) != first
    # Non-Python files are not part of the fingerprint.
    changed = source_fingerprint(str(tree))
    (tree / "notes.txt").write_text("irrelevant\n")
    assert source_fingerprint(str(tree)) == changed


def test_worker_metrics_merge_back():
    registry = MetricsRegistry(enabled=True)
    run_cells(_echo_cells(5), jobs=2, use_cache=False, metrics=registry)
    assert registry.counter_total("test.echo.runs") == 5
    assert registry.counter_total("bench.pool.cells_executed") == 5


# -- --jobs 1 equivalence with the sequential path ----------------------------


def test_scale_jobs_equivalence_and_byte_identical_json(tmp_path):
    kwargs = dict(
        protocols=("BD", "TGDH"), sizes=(4,), dh_group="dh-test",
        engine="symbolic", use_cache=False,
    )
    sequential = run_scale(jobs=1, **kwargs)
    parallel = run_scale(jobs=2, **kwargs)
    assert sequential == parallel
    write_json(str(tmp_path / "seq.json"), scale_payload(sequential, seed=0))
    write_json(str(tmp_path / "par.json"), scale_payload(parallel, seed=0))
    assert (
        (tmp_path / "seq.json").read_bytes()
        == (tmp_path / "par.json").read_bytes()
    )
    # Cells carry exact op-ledger counts for the regression gate.
    for m in sequential:
        assert m.ops is not None
        assert all(isinstance(v, int) for v in m.ops.values())
        assert m.ops["exponentiations"] > 0


# -- bench compare ------------------------------------------------------------


def _payload(total=33.0, exps=15):
    return scale_payload(
        [],
        seed=0,
        engine="symbolic",
    ) | {
        "measurements": [
            {
                "protocol": "BD",
                "event": "join",
                "group_size": 4,
                "topology": "lan",
                "dh_group": "dh-test",
                "total_ms": total,
                "membership_ms": 3.0,
                "samples": 1,
                "engine": "symbolic",
                "ops": {"exponentiations": exps, "signatures": 10},
            }
        ]
    }


def test_compare_exact_match_passes():
    assert compare_payloads(_payload(), _payload()) == []


def test_compare_flags_simulated_time_drift():
    drifts = compare_payloads(_payload(total=33.0), _payload(total=33.01))
    assert len(drifts) == 1 and "total_ms" in drifts[0]
    # ... unless the drift is within an explicit tolerance.
    assert compare_payloads(
        _payload(total=33.0), _payload(total=33.01), tolerance=0.1
    ) == []
    assert compare_payloads(
        _payload(total=33.0), _payload(total=33.01), relative=0.01
    ) == []


def test_compare_flags_op_ledger_drift():
    drifts = compare_payloads(_payload(exps=15), _payload(exps=16))
    assert len(drifts) == 1
    assert "ops.exponentiations" in drifts[0]


def test_compare_flags_missing_and_extra_cells():
    one = _payload()
    empty = dict(one, measurements=[])
    assert any("missing in NEW" in d for d in compare_payloads(one, empty))
    assert any("missing in OLD" in d for d in compare_payloads(empty, one))


def test_compare_flags_meta_change():
    changed = dict(_payload(), engine="real")
    drifts = compare_payloads(_payload(), changed)
    assert any(d.startswith("meta.engine") for d in drifts)


# -- CLI exit codes -----------------------------------------------------------


def test_compare_cli_exit_codes(tmp_path, capsys):
    old = tmp_path / "old.json"
    same = tmp_path / "same.json"
    drifted = tmp_path / "drifted.json"
    old.write_text(json.dumps(_payload()))
    same.write_text(json.dumps(_payload()))
    drifted.write_text(json.dumps(_payload(total=34.0)))
    assert main(["compare", str(old), str(same)]) == 0
    assert "OK" in capsys.readouterr().out
    assert main(["compare", str(old), str(drifted)]) == 1
    assert "DRIFT" in capsys.readouterr().out
    assert main(["compare", str(old), str(drifted), "--tolerance", "2"]) == 0


def test_cli_errors_exit_nonzero_not_zero(tmp_path, capsys):
    # Unreadable artifact: a clean error line and exit 1, no traceback.
    missing = tmp_path / "nope.json"
    assert main(["compare", str(missing), str(missing)]) == 1
    assert "error:" in capsys.readouterr().err
    # Malformed artifact likewise.
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["compare", str(bad), str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_module_entrypoint_raises_systemexit(tmp_path, monkeypatch):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(_payload()))
    new.write_text(json.dumps(_payload(total=99.0)))
    monkeypatch.setattr(
        sys, "argv", ["repro.bench", "compare", str(old), str(new)]
    )
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("repro.bench", run_name="__main__")
    assert excinfo.value.code == 1
