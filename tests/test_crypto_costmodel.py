"""Tests for the virtual-time cost model."""

import pytest

from repro.crypto.costmodel import (
    expensive_signatures,
    free_crypto,
    pentium3_666,
)
from repro.crypto.ledger import OperationLedger


@pytest.fixture()
def model():
    return pentium3_666()


def test_full_exponentiation_costs(model):
    ledger = OperationLedger()
    ledger.record_exponentiation(512)
    assert model.time_of(ledger.snapshot()) == pytest.approx(2.0)
    ledger = OperationLedger()
    ledger.record_exponentiation(1024, 2)
    assert model.time_of(ledger.snapshot()) == pytest.approx(14.4)


def test_signature_costs(model):
    ledger = OperationLedger()
    ledger.record_signature()
    ledger.record_verification(10)
    assert model.time_of(ledger.snapshot()) == pytest.approx(9.3 + 12.0)


def test_small_exponent_hidden_cost(model):
    """BD's hidden cost: n-1 small-exponent exponentiations are priced as
    multiplications, each worth exp/240."""
    ledger = OperationLedger()
    ledger.record_small_exponentiation(1024, 0b101)  # 3 mults
    expected = 3 * model.exp_cost(1024) / 240.0
    assert model.time_of(ledger.snapshot()) == pytest.approx(expected)


def test_unlisted_modulus_scales_quadratically(model):
    assert model.exp_cost(256) == pytest.approx(model.exp_cost(512) / 4)
    # Tiny test group moduli cost almost nothing.
    assert model.exp_cost(10) < 0.01


def test_free_crypto_model_is_zero():
    ledger = OperationLedger()
    ledger.record_exponentiation(512, 100)
    ledger.record_signature(10)
    ledger.record_verification(10)
    assert free_crypto().time_of(ledger.snapshot()) == 0.0


def test_dsa_like_model_makes_verification_expensive():
    assert expensive_signatures().verify_ms > pentium3_666().verify_ms * 5


def test_paper_bd_hidden_cost_magnitude(model):
    """§5: BD step 3 costs ~373 1024-bit modular multiplications for n≈50
    (square-and-multiply with exponents 1..n-1)."""
    ledger = OperationLedger()
    for exponent in range(1, 50):
        ledger.record_small_exponentiation(1024, exponent)
    mults = ledger.snapshot().small_mult_count(1024)
    # Same order of magnitude as the paper's figure (exact value depends on
    # the group size and the square-and-multiply accounting convention).
    assert 200 <= mults <= 450
