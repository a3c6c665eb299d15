"""Tests for the self-profiling benchmark (``python -m repro.bench profile``).

The fast tests exercise the comparison/artifact logic on canned
documents and the CLI on a tiny symbolic cell; the ``slow``-marked
wall-clock smoke runs the real engine end to end (the shape CI's
bench-regression job runs — see .github/workflows/ci.yml) and is
excluded from tier-1 by the ``-m "not slow"`` default.
"""

import json

import pytest

from repro.bench.cli import main
from repro.bench.profiling import profile_micro_sweep, wallclock_document


def _fake_profile_doc(wall_by_protocol, sims):
    return {
        "schema": "repro.bench.profile/1",
        "spec": {
            "protocols": list(wall_by_protocol),
            "group_size": 8,
            "engine": "real",
            "topology": "lan",
            "dh_group": "dh-512",
            "seed": 0,
        },
        "total_wall_s": round(sum(wall_by_protocol.values()), 4),
        "cells": {
            name: {"wall_s": wall, "sim": sims[name]}
            for name, wall in wall_by_protocol.items()
        },
    }


def test_wallclock_document_speedup_and_identity():
    sims = {
        "BD": {"join_total_ms": 10.0, "leave_total_ms": 11.0},
        "STR": {"join_total_ms": 3.0, "leave_total_ms": 4.0},
    }
    doc = _fake_profile_doc({"BD": 2.0, "STR": 1.0}, sims)
    baseline = {
        "source": "test",
        "per_protocol": {
            "BD": {"wall_s": 10.0, "sim": sims["BD"]},
            "STR": {"wall_s": 5.0, "sim": sims["STR"]},
        },
    }
    wallclock = wallclock_document(doc, baseline)
    assert wallclock["speedup"] == 5.0
    assert wallclock["sim_identical"] is True
    assert wallclock["baseline"]["total_wall_s"] == 15.0


def test_wallclock_document_flags_sim_divergence():
    sims = {"BD": {"join_total_ms": 10.0, "leave_total_ms": 11.0}}
    doc = _fake_profile_doc({"BD": 2.0}, sims)
    baseline = {
        "per_protocol": {
            "BD": {
                "wall_s": 10.0,
                "sim": {"join_total_ms": 10.0, "leave_total_ms": 99.0},
            },
        },
    }
    assert wallclock_document(doc, baseline)["sim_identical"] is False


def test_wallclock_document_compares_shared_protocols_only():
    sims = {
        "BD": {"join_total_ms": 1.0, "leave_total_ms": 2.0},
        "GDH": {"join_total_ms": 3.0, "leave_total_ms": 4.0},
    }
    doc = _fake_profile_doc({"BD": 2.0, "GDH": 2.0}, sims)
    baseline = {"per_protocol": {"BD": {"wall_s": 8.0, "sim": sims["BD"]}}}
    wallclock = wallclock_document(doc, baseline)
    assert list(wallclock["baseline"]["per_protocol"]) == ["BD"]
    assert wallclock["speedup"] == 4.0  # 8.0 / BD's 2.0; GDH not compared


def test_wallclock_document_without_baseline():
    doc = _fake_profile_doc(
        {"BD": 1.0}, {"BD": {"join_total_ms": 1.0, "leave_total_ms": 2.0}}
    )
    wallclock = wallclock_document(doc, None)
    assert "speedup" not in wallclock and "baseline" not in wallclock


def test_timed_cell_sim_times_match_scale_cell():
    # The profile cell mirrors run_scale_cell's measurement protocol, so
    # its simulated join/leave totals must match a scale cell of the
    # same spec exactly — that equivalence is what lets the committed
    # wall-clock baseline double as a behaviour oracle.
    from repro.bench.scale import run_scale_cell

    spec = {"protocol": "TGDH", "group_size": 6, "engine": "symbolic"}
    cell = profile_micro_sweep(
        protocols=["TGDH"], size=6, engine="symbolic", with_profiler=False
    )["cells"]["TGDH"]
    scale = run_scale_cell(dict(spec))
    assert cell["sim"]["join_total_ms"] == scale["join"]["total_ms"]
    assert cell["sim"]["leave_total_ms"] == scale["leave"]["total_ms"]
    assert cell["wall_s"] > 0
    assert set(cell["phases_wall_s"]) == {"grow", "join", "leave"}


def test_profile_subcommand_emits_artifacts(capsys, tmp_path):
    out = str(tmp_path / "profile.json")
    wallclock = str(tmp_path / "wallclock.json")
    code = main([
        "profile", "--size", "6", "--protocols", "STR",
        "--engine", "symbolic", "--top", "3",
        "-o", out, "--wallclock", wallclock, "--baseline", "",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "micro-sweep" in stdout and "no baseline comparison" in stdout
    profile_doc = json.load(open(out))
    cell = profile_doc["cells"]["STR"]
    assert cell["wall_s"] > 0
    assert len(cell["hot_functions"]) == 3
    assert all(row["ncalls"] > 0 for row in cell["hot_functions"])
    wallclock_doc = json.load(open(wallclock))
    assert wallclock_doc["current"]["per_protocol"]["STR"]["sim"] == cell["sim"]


def test_profile_subcommand_skips_mismatched_baseline(capsys, tmp_path):
    # A baseline recorded at a different spec must not be compared: the
    # sim values would always "diverge" and the speedup would be bogus.
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "spec": {"group_size": 256, "engine": "real"},
        "per_protocol": {"STR": {"wall_s": 1.0, "sim": {}}},
    }))
    code = main([
        "profile", "--size", "6", "--protocols", "STR",
        "--engine", "symbolic", "--no-profiler",
        "-o", str(tmp_path / "p.json"),
        "--wallclock", str(tmp_path / "w.json"),
        "--baseline", str(baseline),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "skipping comparison" in stdout
    assert "sim_identical" not in json.load(open(tmp_path / "w.json"))


@pytest.mark.slow
def test_real_engine_wallclock_smoke(tmp_path):
    # The CI-shaped smoke: a small real-engine sweep, profiler on, both
    # artifacts written.  No timing thresholds — hosts vary — but the
    # wall-clock plumbing and the hot tables must be populated, and the
    # simulated times must be engine-independent (the symbolic run of
    # the same spec is the oracle).
    doc = profile_micro_sweep(
        protocols=("BD", "TGDH"), size=16, engine="real", top=5,
    )
    assert doc["total_wall_s"] > 0
    for cell in doc["cells"].values():
        assert cell["hot_functions"]
        assert cell["wall_s"] >= sum(cell["phases_wall_s"].values()) - 0.01
    symbolic = profile_micro_sweep(
        protocols=("BD", "TGDH"), size=16, engine="symbolic",
        with_profiler=False,
    )
    for name in ("BD", "TGDH"):
        assert doc["cells"][name]["sim"] == symbolic["cells"][name]["sim"]
