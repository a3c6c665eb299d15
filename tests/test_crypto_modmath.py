"""Tests for ledger-charged modular arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.groups import GROUP_TINY
from repro.crypto.modmath import GroupElementContext
from repro.crypto.rng import DeterministicRandom


@pytest.fixture()
def ctx():
    return GroupElementContext(GROUP_TINY)


def test_exp_matches_pow_and_is_charged(ctx):
    result = ctx.exp(ctx.group.g, 17)
    assert result == pow(ctx.group.g, 17, ctx.group.p)
    assert ctx.ledger.snapshot().exp_count(ctx.group.p_bits) == 1


def test_exp_g_blinds_secret(ctx):
    assert ctx.exp_g(5) == pow(ctx.group.g, 5, ctx.group.p)


def test_mul_and_inverse(ctx):
    a = pow(ctx.group.g, 3, ctx.group.p)
    assert ctx.mul(a, ctx.inv_element(a)) == 1


def test_inv_exponent_round_trip(ctx):
    e = 123 % ctx.group.q
    inv = ctx.inv_exponent(e)
    assert (e * inv) % ctx.group.q == 1


def test_exponent_product(ctx):
    assert ctx.exponent_product(400, 300) == (400 * 300) % ctx.group.q


def test_random_exponent_in_range(ctx):
    rng = DeterministicRandom(5)
    for _ in range(100):
        e = ctx.random_exponent(rng)
        assert 2 <= e < ctx.group.q


@given(st.integers(min_value=2, max_value=508), st.integers(min_value=2, max_value=508))
def test_exp_homomorphism(x, y):
    """g^x * g^y == g^(x+y mod q) in the subgroup."""
    ctx = GroupElementContext(GROUP_TINY)
    lhs = ctx.mul(ctx.exp_g(x), ctx.exp_g(y))
    rhs = ctx.exp_g((x + y) % ctx.group.q)
    assert lhs == rhs


@given(st.integers(min_value=2, max_value=508))
def test_factor_out_round_trip(e):
    """(g^e)^(e^-1 mod q) == g — the identity GDH's factor-out step relies on."""
    ctx = GroupElementContext(GROUP_TINY)
    blinded = ctx.exp_g(e)
    assert ctx.exp(blinded, ctx.inv_exponent(e)) == ctx.group.g % ctx.group.p
