"""Schema and behaviour checks for the host-time benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (outside
the tier-1 ``testpaths``: these start real child processes and sockets).
"""

import json
import os
import re
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)

import compare  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run(script, *arguments):
    return subprocess.run(
        [sys.executable, script, *arguments],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_file_is_well_formed():
    doc = contract()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["benchmarks/perf"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = run(RUN, "--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), done.stdout


def test_smoke_names_every_metric_with_a_unit(smoke_document):
    document, printed = smoke_document
    doc = contract()
    for key in ("python", "nproc", "REPRO_BIGNUM", "gmpy2_available",
                "git_commit", "loadavg_1min_at_start", "noisy"):
        assert key in document["environment"]
    assert set(document["workloads"]) == {w["name"] for w in doc["workloads"]}
    for workload, result in document["workloads"].items():
        assert result["ops_failed_share"] == 0, result["failures"]
        assert result["attempted"] > 0
        for metric in doc["end_to_end"]:
            row = result["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert row["value"] > 0 and len(row["samples"]) >= 1
            assert metric["name"] in printed
        for metric in doc["per_layer"]:
            row = result["per_layer"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert metric["name"] in printed


def test_smoke_traced_run_folds_to_the_profiled_wall(smoke_document):
    document, _printed = smoke_document
    for workload, result in document["workloads"].items():
        trace = result["trace"]
        assert abs(trace["fold_sum_s"] - trace["profiled_s"]) < 1e-6
        assert abs(trace["fold_vs_wall"] - 1.0) < 0.02, (workload, trace)
        net = result["per_layer"]["net.self_s"]["value"]
        assert (net > 0) == (workload == "live-loopback")
        with open(os.path.join(ROOT, trace["spans"]), encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert {"setup", "measure"} <= {span["name"] for span in spans}
        assert any(span["name"].startswith("cell:") for span in spans)
        for span in spans:
            assert span["workload"] == workload
            assert span["end"] >= span["start"]
            assert span["parent"] is None or span["parent"] < span["id"]


def test_contract_invocation_prints_one_result_object():
    doc = contract()
    for trace, metrics in ((0, doc["end_to_end"]), (1, doc["per_layer"])):
        result = last_json(run(
            RUN, "--workload", "scale-symbolic", "--seed", "5", "--seconds",
            "0", "--trace", str(trace), "--smoke",
        ))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in metrics}
        for metric in metrics:
            row = result["metrics"][metric["name"]]
            assert set(row) == {"value", "unit"}
            assert row["unit"] == metric["unit"]


def test_corrupted_reference_entry_fails_exactly_that_operation(tmp_path):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    reference["workloads"]["scale-symbolic"]["cells"]["TGDH:join:96"][
        "total_ms"
    ] += 1.0
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    result = last_json(run(
        CHILD, "--workload", "scale-symbolic", "--reference", str(corrupted),
    ))
    assert result["drift_checked"] is True
    assert (result["attempted"], result["failed"]) == (10, 1)
    assert "TGDH:join:96" in result["failures"][0]


def test_live_settle_timeout_is_a_failed_operation_not_an_exception():
    sizes = {"n": 3, "cycles": 2, "timeout_s": 0.0, "poll_s": 0.001}
    result = last_json(run(
        CHILD, "--workload", "live-loopback", "--profile", "smoke",
        "--sizes", json.dumps(sizes),
    ))
    assert result["attempted"] == 5 * 2 * sizes["cycles"]
    assert result["failed"] == result["attempted"]


def test_a_process_refuses_a_second_workload():
    import child

    child.run_pass("scale-symbolic", 0, "smoke")
    with pytest.raises(RuntimeError, match="fresh process"):
        child.run_pass("scale-symbolic", 0, "smoke")


def _row(samples):
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return {"value": median, "median": median, "q1": q1, "q3": q3,
            "samples": samples}


def test_compare_verdicts():
    steady = _row([10.0, 10.1, 10.2])
    assert compare.verdict(steady, _row([10.1, 10.2, 10.3]), "lower", 0.08)[0] == "ok"
    assert compare.verdict(steady, _row([12.0, 12.1, 12.2]), "lower", 0.08)[0] == (
        "regressed"
    )
    noisy = _row([9.0, 10.5, 12.5])
    assert compare.verdict(steady, noisy, "lower", 0.08)[0] == "unresolved"
    assert compare.verdict(steady, _row([8.0, 8.1, 8.2]), "lower", 0.08)[0] == "ok"
    assert compare.verdict(steady, _row([8.0, 8.1, 8.2]), "higher", 0.08)[0] == (
        "regressed"
    )


def test_compare_exits_nonzero_on_more_failed_operations():
    doc = contract()
    row = _row([1.0, 1.0, 1.0])
    side = {
        "ops_failed_share": 0.0,
        "end_to_end": {m["name"]: row for m in doc["end_to_end"]},
    }
    a = {"workloads": {"figures-lan": side}}
    b = {"workloads": {"figures-lan": dict(side, ops_failed_share=0.1)}}
    assert compare.compare(a, a, doc)[1] == 0
    assert compare.compare(a, b, doc)[1] == 1


def test_reference_self_checks_pass():
    done = run(RUN, "--self-check")
    assert done.returncode == 0, done.stdout + done.stderr
