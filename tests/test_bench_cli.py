"""Tests for the benchmark CLI (`python -m repro.bench`)."""

import dataclasses
import functools
import json
import os
import time

import pytest

from repro.bench.chaos import chaos_cells
from repro.bench.cli import (
    COMMANDS,
    FIGURES,
    _run_observed_event,
    build_subcommand_parser,
    main,
)
from repro.bench.pool import SWEEPS, Cell, run_cells
from repro.core.driver import GroupDriver
from repro.gcs.topology import TESTBEDS
from repro.obs import JSONL_SCHEMA_VERSION, validate_chrome_trace


def test_table_mode(capsys):
    assert main(["table", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "GDH" in out and "TGDH" in out


def test_figure_mode_small_run(capsys, tmp_path):
    code = main([
        "figure", "14",
        "--sizes", "3",
        "--repeats", "1",
        "--protocols", "STR", "CKD",
        "--csv", str(tmp_path),
        "--jobs", "1", "--no-cache",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 14" in out
    csvs = [f for f in os.listdir(tmp_path) if f.endswith(".csv")]
    assert len(csvs) == 2  # join + leave
    content = open(tmp_path / csvs[0]).read()
    assert content.startswith("group_size,CKD,STR,membership")


def test_requires_a_target():
    with pytest.raises(SystemExit):
        build_subcommand_parser().parse_args([])


def test_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_subcommand_parser().parse_args(["figure", "99"])


def test_trace_subcommand_emits_valid_chrome_trace(capsys, tmp_path):
    out_path = str(tmp_path / "trace.json")
    jsonl_path = str(tmp_path / "events.jsonl")
    code = main([
        "trace", "--protocol", "TGDH", "--size", "4", "--event", "join",
        "-o", out_path, "--jsonl", jsonl_path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace events" in out and "Perfetto" in out
    trace = json.load(open(out_path))
    validate_chrome_trace(trace)
    phases = {e["ph"] for e in trace["traceEvents"]}
    assert "X" in phases and "M" in phases
    assert all(
        "ts" in e and "pid" in e for e in trace["traceEvents"]
    )
    assert os.path.exists(jsonl_path)
    with open(jsonl_path) as handle:
        header = json.loads(handle.readline())
        second = json.loads(handle.readline())
    assert header["schema"]["version"] == JSONL_SCHEMA_VERSION
    assert "category" in second and "span_id" in second


def test_trace_jsonl_holds_the_timelines_rekey_latency_once(tmp_path):
    argv = ["trace", "--protocol", "BD", "--size", "5", "--event", "leave"]
    jsonl_path = str(tmp_path / "events.jsonl")
    assert main(
        argv + ["-o", str(tmp_path / "t.json"), "--jsonl", jsonl_path]
    ) == 0
    with open(jsonl_path) as handle:
        rows = [json.loads(line) for line in handle]
    metrics = [row["metric"] for row in rows if "metric" in row]
    assert {row["kind"] for row in metrics} == {
        "counter", "gauge", "log_histogram",
    }
    rekey = [row for row in metrics if row["name"] == "member.rekey_ms"]
    framework, _ = _run_observed_event(
        build_subcommand_parser().parse_args(argv)
    )
    expected = framework.timeline.metrics.log_histograms()
    assert [
        (row["labels"]["group"], row["labels"]["protocol"]) for row in rekey
    ] == [(dict(h.labels)["group"], dict(h.labels)["protocol"]) for h in expected]
    for row, histogram in zip(rekey, expected):
        assert row["kind"] == "log_histogram"
        assert {int(k): v for k, v in row["buckets"].items()} == histogram.buckets
        for field in ("zero_count", "count", "total", "min", "max"):
            assert row[field] == getattr(histogram, field), field
    installs = [
        row for row in rows if row.get("name") == "key-install"
    ]
    assert sum(row["count"] for row in rekey) == len(installs)


@pytest.mark.parametrize(
    "protocol, event", [("STR", "leave"), ("GDH", "leave"), ("TGDH", "join")]
)
def test_report_subcommand_prints_reconciled_phases(capsys, protocol, event):
    """``report`` prints the phase table, then every epoch's exact chain
    read off it, then the rekey-latency percentile table."""
    code = main(["report", "--protocol", protocol, "--size", "4", "--event", event])
    assert code == 0
    out = capsys.readouterr().out
    assert "membship" in out and "comms" in out and "comput" in out
    assert "NO" not in out  # every epoch reconciles
    assert "worst |phases - timeline|" in out
    assert "Critical paths:" in out
    assert out.index("worst |phases - timeline|") < out.index("Critical paths:")
    assert "critical member" in out
    assert "(exact," in out and "INEXACT" not in out
    assert "truncated" not in out
    assert "Rekey latency percentiles" in out
    assert "member.rekey_ms" in out and "p99" in out


def _percentile_block(out):
    return out[out.index("Rekey latency percentiles"):out.index("\nwrote ")]


def test_scale_observe_flag_prints_percentiles(capsys, tmp_path):
    argv = [
        "scale", "--sizes", "4", "--protocols", "TGDH", "--observe",
        "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
        "-o", str(tmp_path / "scale.json"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "member.rekey_ms{group=secure-group,protocol=TGDH}" in cold
    # A warm cache serves the cell's result, and the table with it.
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "(1 cache hits, 0 executed)" in warm
    assert "(no log histograms recorded)" not in warm
    assert _percentile_block(warm) == _percentile_block(cold)


def test_livelocked_chaos_cell_counts_cached_or_fresh(
    capsys, tmp_path, monkeypatch
):
    """The livelock count rides in the cell's result, so a cache hit
    reports the tripped settle the fresh run did."""
    spec = {
        "protocol": "GDH", "drop_rate": 0.3, "group_size": 4,
        "repeats": 1, "max_events": 300, "dh_group": "dh-test",
    }
    cache_dir = str(tmp_path / "cells")
    for run in ("fresh", "cached"):
        (result,) = run_cells([Cell("chaos", spec)], jobs=1, cache_dir=cache_dir)
        assert result["livelocks"] == 1, run
    # The same cell through the CLI, whose event budget is not a flag.
    monkeypatch.setitem(SWEEPS, "chaos", dataclasses.replace(
        SWEEPS["chaos"], cells=functools.partial(chaos_cells, max_events=300)
    ))
    argv = [
        "chaos", "--protocols", "GDH", "--drops", "0.3", "--size", "4",
        "--repeats", "1", "--dh-group", "dh-test", "--jobs", "1",
        "--cache-dir", str(tmp_path / "cli"), "-o", str(tmp_path / "chaos.json"),
    ]
    for hits in (0, 1):
        assert main(argv) == 1  # the livelocked sample did not converge
        out = capsys.readouterr().out
        assert f"({hits} cache hits, {1 - hits} executed)" in out
        assert out.rstrip().endswith(", 1 livelocked settles")


@pytest.mark.parametrize("argv, complaint", [
    (["--drops", "-0.5"], "drop must be a probability"),
    (["--repeats", "0"], "repeats must be at least 1"),
    (["--stall-timeout-ms", "0"], "stall_timeout_ms must be positive"),
    (["--stall-timeout-ms", "-1"], "stall_timeout_ms must be positive"),
])
def test_chaos_refuses_bad_inputs_up_front(argv, complaint, capsys, tmp_path):
    started = time.monotonic()
    code = main([
        "chaos", "--protocols", "BD", "--size", "4", "--repeats", "1",
        "--jobs", "1", "--no-cache", "-o", str(tmp_path / "chaos.json"),
        *argv,
    ])
    assert code == 1
    assert complaint in capsys.readouterr().err
    assert time.monotonic() - started < 1.0
    assert not (tmp_path / "chaos.json").exists()


@pytest.mark.parametrize("argv, size", [
    pytest.param(
        ["figure", "11", "--sizes", "-3", "2", "--protocols", "BD",
         "--repeats", "1", "--jobs", "1", "--no-cache"], -3, id="figure",
    ),
    pytest.param(
        ["chaos", "--protocols", "BD", "--size", "-2", "--drops", "0",
         "--repeats", "1", "--jobs", "1", "--no-cache"], -2, id="chaos",
    ),
    pytest.param(["trace", "--size", "-1"], -1, id="trace"),
    pytest.param(["report", "--size", "0"], 0, id="report"),
])
def test_a_size_below_one_is_refused_before_any_group_grows(
    argv, size, capsys, tmp_path, monkeypatch
):
    """One size rule for every command: each size is checked up front,
    and the refusal names it."""
    def grow(*args, **kwargs):
        pytest.fail("a group grew before its size was checked")

    monkeypatch.setattr(GroupDriver, "grow", grow)
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 1
    assert f"group_size must be at least 1, got {size}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, complaint", [
    (["-n", "1"], "size (-n) must be at least 2"),
    (["-n", "0"], "size (-n) must be at least 2"),
    (["--timeout", "0", "--daemon", "inline"], "--timeout) must be positive"),
    (["--timeout", "-1", "--daemon", "spawn"], "--timeout) must be positive"),
])
def test_live_refuses_bad_inputs_up_front(argv, complaint, capsys, tmp_path,
                                          monkeypatch):
    def simulated(*args, **kwargs):
        pytest.fail("simulated before the arguments were checked")

    monkeypatch.setattr("repro.bench.live.simulate_prediction", simulated)
    out = tmp_path / "live.json"
    code = main(["live", "--protocol", "BD", "--dh-group", "dh-test",
                 "-o", str(out), *argv])
    assert code == 1
    assert complaint in capsys.readouterr().err
    assert not out.exists()


def test_live_names_a_daemon_that_misses_its_timeout(capsys, tmp_path):
    out = tmp_path / "live.json"
    assert main(["live", "--protocol", "BD", "-n", "2", "--dh-group",
                 "dh-test", "--timeout", "0.001", "-o", str(out)]) == 1
    assert "did not report LISTENING within 0.001s" in capsys.readouterr().err
    assert not out.exists()


def test_live_inline_writes_both_halves(capsys, tmp_path):
    out = tmp_path / "live.json"
    assert main(["live", "--protocol", "BD", "-n", "3", "--daemon", "inline",
                 "--dh-group", "dh-test", "-o", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["schema"] == "bench-live/v1"
    for half in ("simulated", "live"):
        assert {"join", "leave", "rekey_ms"} <= set(document[half])
    assert document["live"]["daemon"]["mode"] == "inline"


def test_subcommand_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        main(["trace", "--protocol", "NOPE"])


class TestTransportFlag:
    """The subcommand picks the substrate: ``live`` runs on the asyncio
    transport and every other subcommand on the simulator, so no
    subcommand takes a ``--transport`` flag that could contradict it."""

    @staticmethod
    def _rejected(argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --transport" in capsys.readouterr().err

    def test_sim_only_subcommand_rejects_asyncio(self, capsys):
        for command in sorted(set(COMMANDS) - {"live"}):
            argv = [command, *_POSITIONALS.get(command, [])]
            self._rejected(argv + ["--transport", "asyncio"], capsys)

    def test_live_rejects_sim_transport(self, capsys):
        self._rejected(["live", "--transport", "sim"], capsys)

    def test_live_defaults_to_live_json(self):
        args = build_subcommand_parser().parse_args(
            ["live", "--protocol", "tgdh"]
        )
        assert args.protocol == "TGDH"
        assert args.out == "BENCH_live.json"

    def test_live_parser_accepts_size_and_daemon_mode(self):
        args = build_subcommand_parser().parse_args(
            ["live", "--protocol", "bd", "-n", "6", "--daemon", "inline"]
        )
        assert args.protocol == "BD"
        assert args.size == 6
        assert args.daemon == "inline"

    def test_live_rejects_unknown_daemon_mode(self):
        with pytest.raises(SystemExit):
            build_subcommand_parser().parse_args(["live", "--daemon", "nope"])


#: the positionals a subcommand needs before argparse looks at its flags
_POSITIONALS = {"figure": ["14"], "table": ["1"], "compare": ["a.json", "b.json"]}


@pytest.mark.parametrize("argv, complaint", [
    pytest.param(
        [command, *_POSITIONALS.get(command, []), "--trace", "x.jsonl"],
        "unrecognized arguments: --trace",
        id=command,
    )
    for command in sorted(COMMANDS) if command != "chaos"
] + [
    # gone subcommands and flags (critpath's chains print in plain report)
    pytest.param([gone], f"invalid choice: '{gone}'", id=gone)
    for gone in ("critpath", "profile")
] + [
    pytest.param(
        ["report", "--critical-path"],
        "unrecognized arguments: --critical-path",
        id="report-critical-path",
    )
])
def test_trace_flag_is_chaos_only_and_profile_is_gone(argv, complaint, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert complaint in capsys.readouterr().err


_CHAOS_TRACE_ARGV = [
    "chaos", "--protocols", "BD", "--drops", "0", "0.15", "--size", "4",
    "--repeats", "1", "--no-cache",
]


@pytest.fixture(scope="module")
def chaos_trace_runs(tmp_path_factory):
    """The same small chaos sweep three ways: (artifact, trace) paths for
    ``--trace`` at one job, no ``--trace``, and ``--trace`` at two jobs."""
    root = tmp_path_factory.mktemp("chaos_trace")
    runs = {}
    for name, jobs, traced in (
        ("traced", "1", True), ("plain", "1", False), ("traced_jobs2", "2", True)
    ):
        out, trace = str(root / f"{name}.json"), str(root / f"{name}.jsonl")
        argv = _CHAOS_TRACE_ARGV + ["--jobs", jobs, "-o", out]
        assert main(argv + (["--trace", trace] if traced else [])) == 0
        runs[name] = (out, trace)
    return runs


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_chaos_trace_rows_are_labelled_span_records(chaos_trace_runs):
    rows = [
        json.loads(line)
        for line in _read(chaos_trace_runs["traced"][1]).splitlines()
    ]
    assert rows
    for row in rows:
        assert row["protocol"] == "BD" and row["sample"] == 0
        assert row["drop_rate"] in (0.0, 0.15)
        assert {"category", "name", "actor", "start", "end", "attrs"} <= set(row)
    rates_with_fault_drops = {
        row["drop_rate"] for row in rows
        if row["category"] == "net" and row["name"].startswith("fault-drop")
    }
    assert rates_with_fault_drops == {0.15}


def test_chaos_trace_leaves_the_artifact_unchanged(chaos_trace_runs):
    assert _read(chaos_trace_runs["traced"][0]) == _read(
        chaos_trace_runs["plain"][0]
    )


def test_chaos_trace_rows_do_not_depend_on_jobs(chaos_trace_runs):
    assert _read(chaos_trace_runs["traced"][1]) == _read(
        chaos_trace_runs["traced_jobs2"][1]
    )


def test_every_registered_figure_is_well_formed():
    for panels in FIGURES.values():
        for title, topology, event, dh_group in panels:
            assert event in ("join", "leave")
            assert dh_group.startswith("dh-")
            # Topologies are registry names so figure cells stay
            # JSON-ready (picklable, cacheable) for the parallel pool.
            assert topology in TESTBEDS
