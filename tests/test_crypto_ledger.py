"""Tests for operation accounting (OperationLedger / OpCounts)."""

from hypothesis import given, settings, strategies as st

from repro.crypto.costmodel import (
    CostModel,
    expensive_signatures,
    free_crypto,
    pentium3_666,
)
from repro.crypto.ledger import OpCounts, OperationLedger


def test_snapshot_counts_exponentiations_by_modulus():
    ledger = OperationLedger()
    ledger.record_exponentiation(512)
    ledger.record_exponentiation(512, 2)
    ledger.record_exponentiation(1024)
    snap = ledger.snapshot()
    assert snap.exp_count(512) == 3
    assert snap.exp_count(1024) == 1
    assert snap.exp_count() == 4


def test_small_exponentiation_multiplication_count():
    ledger = OperationLedger()
    # e=5 = 0b101: 2 squarings + 1 multiply = 3 mults.
    ledger.record_small_exponentiation(512, 5)
    assert ledger.snapshot().small_mult_count(512) == 3
    # e=1 and e=0 cost nothing.
    ledger.record_small_exponentiation(512, 1)
    ledger.record_small_exponentiation(512, 0)
    assert ledger.snapshot().small_mult_count(512) == 3


def test_small_exp_charged_as_multiplications():
    ledger = OperationLedger()
    ledger.record_small_exponentiation(512, 6)  # 0b110 -> 2 squarings + 1 multiply
    snap = ledger.snapshot()
    assert snap.exp_count() == 0
    assert snap.small_mult_count(512) == 3


def test_signature_and_verification_counts():
    ledger = OperationLedger()
    ledger.record_signature()
    ledger.record_verification(3)
    snap = ledger.snapshot()
    assert snap.signatures == 1
    assert snap.verifications == 3


def test_delta_since():
    ledger = OperationLedger()
    ledger.record_exponentiation(512)
    before = ledger.snapshot()
    ledger.record_exponentiation(512, 4)
    ledger.record_signature()
    delta = ledger.delta_since(before)
    assert delta.exp_count(512) == 4
    assert delta.signatures == 1


def test_delta_of_no_work_is_zero():
    ledger = OperationLedger()
    ledger.record_exponentiation(1024, 7)
    before = ledger.snapshot()
    assert ledger.delta_since(before) == OpCounts()


def test_opcounts_addition_and_subtraction_roundtrip():
    a = OpCounts(exponentiations=((512, 3),), signatures=2)
    b = OpCounts(exponentiations=((512, 1), (1024, 2)), verifications=5)
    total = a + b
    assert total.exp_count(512) == 4
    assert total.exp_count(1024) == 2
    assert (total - b).exp_count(512) == 3
    assert total - b - a == OpCounts()


@given(
    st.lists(
        st.tuples(st.sampled_from([512, 1024]), st.integers(1, 20)), max_size=10
    )
)
def test_snapshot_matches_recorded_sum(records):
    ledger = OperationLedger()
    for bits, count in records:
        ledger.record_exponentiation(bits, count)
    expected = sum(count for _, count in records)
    assert ledger.snapshot().exp_count() == expected


def test_mult_count_tracks_plain_multiplications():
    ledger = OperationLedger()
    ledger.record_multiplication(512, 7)
    ledger.record_multiplication(160, 2)
    snap = ledger.snapshot()
    assert snap.mult_count(512) == 7
    assert snap.mult_count(160) == 2
    assert snap.mult_count() == 9


# -- the charge window ------------------------------------------------------
#
# ``begin_charge``/``charge_pending`` price a protocol step off the
# pending records alone.  They must agree to the last bit with pricing a
# full snapshot delta, for every cost model, including when records were
# made between windows (``begin_charge`` folds those first).

# Every shipped model, plus one whose costs round in every sum, so a
# term taken out of order shows in the last bit.
_COST_MODELS = [
    pentium3_666(), free_crypto(), expensive_signatures(),
    CostModel("rounding", {512: 0.1, 1024: 0.7}, sign_ms=0.3, verify_ms=0.1),
]
_BITS = st.sampled_from([160, 512, 768, 1024, 2048])
_RECORD = st.one_of(
    st.tuples(st.just("exp"), _BITS, st.integers(1, 40)),
    st.tuples(st.just("small"), _BITS, st.integers(0, 5000)),
    st.tuples(st.just("mult"), _BITS, st.integers(1, 40)),
    st.tuples(st.just("sign"), st.just(0), st.integers(1, 3)),
    st.tuples(st.just("verify"), st.just(0), st.integers(1, 30)),
)
_WINDOW = st.tuples(
    st.sampled_from(range(len(_COST_MODELS))),
    st.lists(_RECORD, max_size=4),  # recorded before the window opens
    st.lists(_RECORD, max_size=12),  # recorded inside the window
)


def _record(ledger, op, bits, n):
    if op == "exp":
        ledger.record_exponentiation(bits, n)
    elif op == "small":
        ledger.record_small_exponentiation(bits, n)
    elif op == "mult":
        ledger.record_multiplication(bits, n)
    elif op == "sign":
        ledger.record_signature(n)
    else:
        ledger.record_verification(n)


@settings(max_examples=300)
@given(st.lists(_WINDOW, min_size=1, max_size=8))
def test_charge_window_is_time_of_delta_bit_for_bit(windows):
    charged = OperationLedger()  # priced through the window
    twin = OperationLedger()  # priced from snapshots
    for model_index, between, inside in windows:
        model = _COST_MODELS[model_index]
        for record in between:
            _record(charged, *record)
            _record(twin, *record)
        charged.begin_charge()
        before = twin.snapshot()
        for record in inside:
            _record(charged, *record)
            _record(twin, *record)
        cost = charged.charge_pending(model)
        assert cost == model.time_of(twin.delta_since(before))
        assert charged.snapshot() == twin.snapshot()
