"""Tests for the analytic time predictor and its simulator sanity-check."""


from repro.analysis.predict import predict_elapsed_ms
from repro.bench.harness import ExperimentSpec, run_experiment
from repro.crypto.costmodel import pentium3_666
from repro.gcs.messages import ViewEvent
from repro.gcs.topology import lan_testbed, wan_testbed


def test_wan_predictions_track_round_counts():
    model = pentium3_666()
    topo = wan_testbed()
    gdh = predict_elapsed_ms("GDH", ViewEvent.JOIN, 10, topo, model)
    ckd = predict_elapsed_ms("CKD", ViewEvent.JOIN, 10, topo, model)
    str_ = predict_elapsed_ms("STR", ViewEvent.JOIN, 10, topo, model)
    # 4 rounds > 3 rounds > 2 rounds on a high-latency ring.
    assert gdh > ckd > str_


def test_lan_predictions_track_computation():
    model = pentium3_666()
    topo = lan_testbed()
    gdh = predict_elapsed_ms("GDH", ViewEvent.JOIN, 40, topo, model)
    str_ = predict_elapsed_ms("STR", ViewEvent.JOIN, 40, topo, model)
    assert gdh > 2 * str_  # linear vs constant exponentiation counts


def test_prediction_within_factor_of_simulation():
    """The coarse predictor lands within a small factor of the simulator
    (it ignores contention and token phase, so exact match is not
    expected)."""
    model = pentium3_666()
    for protocol in ("GDH", "STR", "CKD"):
        predicted = predict_elapsed_ms(
            protocol, ViewEvent.JOIN, 10, lan_testbed(), model
        )
        simulated = run_experiment(
            ExperimentSpec(protocol, "join", 10, dh_group="dh-512", repeats=1)
        ).total_ms
        assert predicted / 4 < simulated < predicted * 4, protocol


def test_modulus_scaling():
    model = pentium3_666()
    topo = lan_testbed()
    small = predict_elapsed_ms("GDH", ViewEvent.JOIN, 30, topo, model, 512)
    big = predict_elapsed_ms("GDH", ViewEvent.JOIN, 30, topo, model, 1024)
    assert big > 1.5 * small
