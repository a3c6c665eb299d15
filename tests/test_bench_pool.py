"""The parallel experiment pool, its result cache, and ``bench compare``."""

import json
import runpy
import sys
import time

import pytest

from repro.bench import run_chaos_cell, run_figure_cell, run_load_cell, run_scale_cell
from repro.bench.cli import main
from repro.bench.compare import compare_payloads
from repro.bench.pool import (
    SWEEPS,
    Cell,
    ResultCache,
    Sweep,
    cell_key,
    pool_stats,
    run_cells,
    run_sweep,
    source_fingerprint,
)
from repro.bench.report import artifact, write_json
from repro.crypto.engine import RealEngine
from repro.gcs.topology import lan_testbed
from repro.obs import MetricsRegistry
from repro.workload import WorkloadSpec

EXECUTIONS = []


def _echo_runner(spec):
    """Deterministic toy runner; staggers sleeps to scramble completion
    order so merge-order tests actually exercise the reordering."""
    EXECUTIONS.append(spec["index"])
    time.sleep(0.05 if spec["index"] % 2 == 0 else 0.0)
    return {"index": spec["index"], "value": spec["index"] * 10}


def _echo_cells(count):
    return [Cell("test-echo", {"index": i}) for i in range(count)]


SWEEPS["test-echo"] = Sweep(
    _echo_runner, _echo_cells, list, lambda result: f"echo {result['index']}"
)


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


@pytest.mark.parametrize("runner, spec", [
    (run_figure_cell, {"protocol": "BD", "event": "join", "sizes": [3], "repeats": 1}),
    (run_scale_cell, {"protocol": "BD", "group_size": 3}),
    (run_chaos_cell, {"protocol": "BD", "drop_rate": 0.0, "repeats": 1}),
    (run_load_cell, {"workload": WorkloadSpec("BD", groups=1, group_size=2).to_spec()}),
], ids=["figure", "scale", "chaos", "load"])
def test_every_runner_rejects_an_unknown_testbed_by_name(runner, spec):
    with pytest.raises(ValueError, match=r"unknown topology 'metro'; choose from \["):
        runner({**spec, "topology": "metro"})


def test_unknown_kind_raises():
    with pytest.raises(KeyError):
        run_cells([Cell("no-such-kind", {})], jobs=1, use_cache=False)


@pytest.mark.parametrize(
    "value", [RealEngine(), lan_testbed], ids=["engine", "testbed"]
)
def test_a_spec_that_is_not_data_is_refused_naming_its_cell(value):
    """No inline, uncached fallback: an engine instance or a testbed
    factory in one spec stops the grid before any cell runs."""
    EXECUTIONS.clear()
    cells = _echo_cells(2) + [
        Cell("scale", {"protocol": "BD", "group_size": 4, "engine": value})
    ]
    with pytest.raises(TypeError, match="cell 'scale protocol=BD size=4'"):
        run_cells(cells, jobs=1, use_cache=False)
    assert EXECUTIONS == []


# -- the content-addressed cache ----------------------------------------------


def test_cache_hit_miss_and_fingerprint_invalidation(tmp_path):
    cells = _echo_cells(3)
    cache_dir = str(tmp_path / "cache")

    def sweep(fingerprint):
        registry = MetricsRegistry()
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
    registry = MetricsRegistry()
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
    registry = MetricsRegistry()
    run_cells(_echo_cells(5), jobs=2, use_cache=False, metrics=registry)
    assert registry.counter_total("bench.pool.cells_executed") == 5


# -- --jobs 1 equivalence with the sequential path ----------------------------


def test_scale_jobs_equivalence_and_byte_identical_json(tmp_path):
    kwargs = dict(
        protocols=("BD", "TGDH"), sizes=(4,), dh_group="dh-test",
        engine="symbolic", use_cache=False,
    )
    sequential = run_sweep("scale", jobs=1, **kwargs).rows
    parallel = run_sweep("scale", jobs=2, **kwargs).rows
    assert sequential == parallel
    meta = {"seed": 0}
    write_json(
        str(tmp_path / "seq.json"),
        artifact("scale", meta, "measurements", sequential),
    )
    write_json(
        str(tmp_path / "par.json"),
        artifact("scale", meta, "measurements", parallel),
    )
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
    return artifact(
        "scale", {"seed": 0, "engine": "symbolic"}, "measurements", []
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


def test_compare_flags_op_ledger_drift():
    drifts = compare_payloads(_payload(exps=15), _payload(exps=16))
    assert len(drifts) == 1
    assert "ops.exponentiations" in drifts[0]


def test_compare_flags_missing_and_extra_cells():
    one = _payload()
    empty = dict(one, measurements=[])
    assert any("missing in NEW" in d for d in compare_payloads(one, empty))
    assert any("missing in OLD" in d for d in compare_payloads(empty, one))


def _cells(*rows):
    return {"benchmark": "load", "seed": 7, "cells": list(rows)}


def test_compare_matches_load_cells_by_arrival_not_row_order():
    # Two cells of one protocol differ only in their arrival process.
    poisson = {"protocol": "TGDH", "arrival": "poisson", "member_epochs": 40}
    flash = {"protocol": "TGDH", "arrival": "flash", "member_epochs": 90}
    assert compare_payloads(_cells(poisson, flash), _cells(flash, poisson)) == []
    drifts = compare_payloads(
        _cells(poisson, flash), _cells(flash, dict(poisson, member_epochs=41))
    )
    assert drifts == [
        "protocol=TGDH arrival=poisson.member_epochs: 40 -> 41"
    ]


def test_compare_ranks_repeated_cells_by_occurrence():
    # A cell prepended before two identical ones shifts their row
    # positions, not their ranks among cells of the same identity.
    bd = {"protocol": "BD", "event": "join", "group_size": 4, "total_ms": 9.0}
    first = {"protocol": "STR", "event": "join", "group_size": 4, "total_ms": 1.0}
    second = dict(first, total_ms=2.0)
    assert compare_payloads(_cells(first, second), _cells(bd, first, second)) == [
        "protocol=BD event=join group_size=4: missing in OLD"
    ]
    drifts = compare_payloads(
        _cells(first, second), _cells(bd, first, dict(second, total_ms=3.0))
    )
    assert drifts[1:] == [
        "protocol=STR event=join group_size=4 #=1.total_ms: 2.0 -> 3.0"
    ]


def test_compare_flags_meta_change():
    changed = dict(_payload(), engine="real")
    drifts = compare_payloads(_payload(), changed)
    assert any(d.startswith("meta.engine") for d in drifts)


def test_compare_names_a_field_missing_on_either_side():
    """Field-level drift: OLD holds the always-null ``communication_ms``
    that NEW lacks, and NEW carries a key OLD never had."""
    old, new = _payload(), _payload()
    old["measurements"][0]["communication_ms"] = None
    new["measurements"][0]["extra"] = 1
    cell = "protocol=BD event=join group_size=4 topology=lan dh_group=dh-test"
    assert compare_payloads(old, new) == [
        f"{cell}.communication_ms: missing in NEW, old=None",
        f"{cell}.extra: missing in OLD, new=1",
    ]


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
    with pytest.raises(SystemExit):
        main(["compare", str(old), str(drifted), "--tolerance", "2"])


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
