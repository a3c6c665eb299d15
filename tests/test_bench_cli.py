"""Tests for the benchmark CLI (`python -m repro.bench`)."""

import json
import os

import pytest

from repro.bench.cli import COMMANDS, FIGURES, build_subcommand_parser, main
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


def test_report_subcommand_prints_reconciled_phases(capsys):
    code = main([
        "report", "--protocol", "STR", "--size", "4", "--event", "leave",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "membship" in out and "comms" in out and "comput" in out
    assert "NO" not in out  # every epoch reconciles
    assert "worst |phases - timeline|" in out


def test_critpath_subcommand_prints_exact_chains(capsys):
    """Plain ``report`` prints every epoch's exact chain and the
    rekey-latency percentile table."""
    code = main([
        "report", "--protocol", "GDH", "--size", "4", "--event", "leave",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Critical paths:" in out
    assert "critical member" in out
    assert "(exact," in out and "INEXACT" not in out
    assert "truncated" not in out
    assert "Rekey latency percentiles" in out
    assert "member.rekey_ms" in out and "p99" in out


def test_report_critical_path_flag_appends_chains(capsys):
    """The chains follow the phase table they were read from."""
    code = main([
        "report", "--protocol", "TGDH", "--size", "4", "--event", "join",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "worst |phases - timeline|" in out  # the base report survives
    assert "critical member" in out and "(exact," in out


def test_scale_observe_flag_prints_percentiles(capsys, tmp_path):
    code = main([
        "scale", "--sizes", "4", "--protocols", "TGDH", "--observe",
        "--jobs", "1", "--no-cache", "-o", str(tmp_path / "scale.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Rekey latency percentiles" in out
    assert "member.rekey_ms{group=secure-group,protocol=TGDH}" in out


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
