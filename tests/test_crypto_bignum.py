"""Tests for the optional bignum backend seam (``repro.crypto.bignum``).

Every arithmetic test is parametrized over *available* backends: on a
bare interpreter that is just the pure-python one, and the suite still
proves the seam's plumbing (selection, env override, error paths).  On
an interpreter with gmpy2 installed — the ``bignum-identity`` CI job —
the same assertions pin bit-identity between the two implementations.
"""

import pytest

from repro.crypto.bignum import (
    ENV_VAR,
    PYTHON_BACKEND,
    BignumBackend,
    available_backends,
    backend_info,
    get_backend,
    gmpy2_available,
)
from repro.crypto.engine import get_engine
from repro.crypto.fixedbase import FixedBaseTable
from repro.crypto.groups import GROUP_TINY
from repro.crypto.modmath import batch_exp, multi_exp

BACKENDS = available_backends()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return get_backend(request.param)


# ---------------------------------------------------------------------------
# selection


def test_python_backend_always_available():
    assert "python" in BACKENDS
    assert get_backend("python") is PYTHON_BACKEND


def test_instance_passes_through():
    assert get_backend(PYTHON_BACKEND) is PYTHON_BACKEND


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown bignum backend"):
        get_backend("openssl")


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "python")
    assert get_backend(None).name == "python"


def test_auto_never_fails(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert get_backend(None).name in BACKENDS
    monkeypatch.setenv(ENV_VAR, "auto")
    chosen = get_backend(None)
    # auto prefers the compiled path exactly when it is importable.
    assert chosen.name == ("gmpy2" if gmpy2_available() else "python")


def test_explicit_argument_beats_env(monkeypatch):
    monkeypatch.setenv(ENV_VAR, BACKENDS[-1])
    assert get_backend("python").name == "python"


@pytest.mark.skipif(gmpy2_available(), reason="gmpy2 is installed here")
def test_explicit_gmpy2_raises_when_missing():
    with pytest.raises(ValueError, match="gmpy2"):
        get_backend("gmpy2")


@pytest.mark.skipif(not gmpy2_available(), reason="gmpy2 not installed")
def test_gmpy2_results_are_plain_ints():
    gm = get_backend("gmpy2")
    assert gm.name == "gmpy2"
    assert get_backend("gmpy2") is gm  # one instance per process
    value = gm.unwrap(gm.powmod(4, 17, GROUP_TINY.p))
    assert type(value) is int
    assert gm.unwrap(gm.wrap(12345)) == 12345


def test_backend_info_shape(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "python")
    info = backend_info()
    assert info["selected"] == "python"
    assert "python" in info["available"]
    assert info["env"] == "python"


def test_get_engine_backend_suffix_is_cached():
    engine = get_engine("real:python")
    assert engine is get_engine("real:python")
    assert engine.name == "real"  # artifacts never record the backend
    assert engine.backend.name == "python"


# ---------------------------------------------------------------------------
# arithmetic identity (vs builtins, per available backend)


def test_powmod_matches_builtin(backend: BignumBackend):
    p = GROUP_TINY.p
    for base, exponent in ((2, 0), (GROUP_TINY.g, 1), (7, 509), (p - 1, 2)):
        assert backend.unwrap(backend.powmod(base, exponent, p)) == pow(
            base, exponent, p
        )


def test_powmod_negative_exponent(backend: BignumBackend):
    p = GROUP_TINY.p
    assert backend.unwrap(backend.powmod(4, -3, p)) == pow(4, -3, p)


def test_mulmod_matches_builtin(backend: BignumBackend):
    p = GROUP_TINY.p
    assert backend.unwrap(backend.mulmod(p - 2, p - 3, p)) == (p - 2) * (p - 3) % p


def test_invmod_matches_builtin(backend: BignumBackend):
    p = GROUP_TINY.p
    inv = backend.unwrap(backend.invmod(42, p))
    assert inv == pow(42, -1, p)
    assert 42 * inv % p == 1


def test_invmod_rejects_noninvertible(backend: BignumBackend):
    with pytest.raises(ValueError):
        backend.invmod(6, 12)


def test_wrap_unwrap_round_trip(backend: BignumBackend):
    assert backend.unwrap(backend.wrap(GROUP_TINY.p)) == GROUP_TINY.p


# ---------------------------------------------------------------------------
# multi_exp / batch_exp / fixed-base edge cases, per backend


def _naive_product(pairs, modulus):
    result = 1
    for base, exponent in pairs:
        result = result * pow(base, exponent, modulus) % modulus
    return result


def test_multi_exp_empty_batch(backend):
    assert multi_exp([], GROUP_TINY.p, backend=backend) == 1


def test_multi_exp_single_pair(backend):
    p = GROUP_TINY.p
    assert multi_exp([(4, 123)], p, backend=backend) == pow(4, 123, p)


def test_multi_exp_zero_exponent(backend):
    p = GROUP_TINY.p
    assert multi_exp([(4, 0)], p, backend=backend) == 1
    assert multi_exp([(4, 0), (9, 7)], p, backend=backend) == pow(9, 7, p)


def test_multi_exp_mixed_bases(backend):
    p = GROUP_TINY.p
    pairs = [(4, 301), (9, 118), (25, 0), (p - 1, 2), (2, 508)]
    assert multi_exp(pairs, p, backend=backend) == _naive_product(pairs, p)


@pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 8])
def test_multi_exp_window_boundaries(backend, window):
    p = GROUP_TINY.p
    pairs = [(4, (1 << 9) - 1), (9, 1 << 8), (7, 255)]
    assert multi_exp(pairs, p, window=window, backend=backend) == _naive_product(
        pairs, p
    )


def test_multi_exp_rejects_negative_exponent(backend):
    with pytest.raises(ValueError):
        multi_exp([(4, -1)], GROUP_TINY.p, backend=backend)


def test_batch_exp_matches_pow_loop(backend):
    p = GROUP_TINY.p
    exponents = [0, 1, 2, 255, 256, 508, (1 << 9) - 1]
    assert batch_exp(7, exponents, p, backend=backend) == [
        pow(7, e, p) for e in exponents
    ]
    assert batch_exp(7, [], p, backend=backend) == []


def test_batch_exp_rejects_negative_exponent(backend):
    with pytest.raises(ValueError):
        batch_exp(7, [3, -1], GROUP_TINY.p, backend=backend)


def test_fixed_base_table_per_backend(backend):
    group = GROUP_TINY
    table = FixedBaseTable(
        group.p, group.g, group.q.bit_length(), window=3, backend=backend
    )
    exponents = [0, 1, 2, 100, group.q - 1]
    assert table.pow_many(exponents) == [
        pow(group.g, e, group.p) for e in exponents
    ]
    assert all(type(v) is int for v in table.pow_many(exponents))
