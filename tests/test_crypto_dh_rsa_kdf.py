"""Tests for Diffie-Hellman, RSA signatures and the symmetric layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.groups import GROUP_512, GROUP_TEST, GROUP_TINY
from repro.crypto.kdf import derive_key, hmac_sha256, stream_xor
from repro.crypto.modmath import GroupElementContext
from repro.crypto.rng import DeterministicRandom
from repro.crypto.rsa import (
    RsaSigner,
    RsaVerifier,
    cached_rsa_keypair,
    generate_rsa_keypair,
)


def _exchange(ctx):
    """Two-party Diffie-Hellman on ``ctx``: the secret each side derives
    from the other's public value ``g^x``."""
    a = ctx.random_exponent(DeterministicRandom(1))
    b = ctx.random_exponent(DeterministicRandom(2))
    ga, gb = ctx.exp_g(a), ctx.exp_g(b)
    return ctx.exp(gb, a), ctx.exp(ga, b)


class TestDiffieHellman:
    """The two-party exchange every protocol generalizes, on the group
    context the protocols compute with."""

    def test_shared_secret_agreement(self):
        alice, bob = _exchange(GroupElementContext(GROUP_TEST))
        assert alice == bob

    def test_real_sized_group(self):
        alice, bob = _exchange(GroupElementContext(GROUP_512))
        assert alice == bob

    def test_rejects_out_of_group_public(self):
        ctx = GroupElementContext(GROUP_TINY)
        public = ctx.exp_g(ctx.random_exponent(DeterministicRandom(1)))
        assert ctx.group.contains(public)
        assert not ctx.group.contains(2)  # order-1018 element, not in the subgroup

    def test_exchange_charges_ledger(self):
        ctx = GroupElementContext(GROUP_TEST)
        before = ctx.ledger.snapshot()
        _exchange(ctx)
        assert ctx.ledger.delta_since(before).exp_count() == 4


class TestRsa:
    def test_sign_verify_roundtrip(self):
        kp = cached_rsa_keypair(512, 0)
        signer = RsaSigner(kp)
        verifier = RsaVerifier()
        sig = signer.sign(b"attack at dawn")
        assert verifier.verify(kp.public, b"attack at dawn", sig)

    def test_tampered_message_rejected(self):
        kp = cached_rsa_keypair(512, 0)
        sig = RsaSigner(kp).sign(b"attack at dawn")
        assert not RsaVerifier().verify(kp.public, b"attack at dusk", sig)

    def test_wrong_key_rejected(self):
        kp1 = cached_rsa_keypair(512, 0)
        kp2 = cached_rsa_keypair(512, 1)
        sig = RsaSigner(kp1).sign(b"msg")
        assert not RsaVerifier().verify(kp2.public, b"msg", sig)

    def test_out_of_range_signature_rejected(self):
        kp = cached_rsa_keypair(512, 0)
        verifier = RsaVerifier()
        assert not verifier.verify(kp.public, b"msg", 0)
        assert not verifier.verify(kp.public, b"msg", kp.n + 5)

    def test_public_exponent_is_three(self):
        # The paper signs with e=3 to keep verification cheap (§6.1.1).
        assert cached_rsa_keypair(512, 0).e == 3

    def test_keygen_produces_requested_size(self):
        kp = generate_rsa_keypair(128, DeterministicRandom(3))
        assert kp.n.bit_length() == 128
        assert (kp.d * kp.e) % ((kp.p - 1) * (kp.q - 1)) == 1

    def test_keygen_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            generate_rsa_keypair(8, DeterministicRandom(0))

    def test_cached_keypair_is_memoized_and_deterministic(self):
        assert cached_rsa_keypair(256, 7) is cached_rsa_keypair(256, 7)
        assert cached_rsa_keypair(256, 7).n != cached_rsa_keypair(256, 8).n

    def test_ledger_charges(self):
        kp = cached_rsa_keypair(512, 0)
        signer = RsaSigner(kp)
        verifier = RsaVerifier()
        sig = signer.sign(b"m")
        verifier.verify(kp.public, b"m", sig)
        verifier.verify(kp.public, b"m", sig)
        assert signer.ledger.snapshot().signatures == 1
        assert verifier.ledger.snapshot().verifications == 2

    @given(st.binary(max_size=64))
    @settings(max_examples=25)
    def test_roundtrip_arbitrary_messages(self, message):
        kp = cached_rsa_keypair(256, 2)
        sig = RsaSigner(kp).sign(message)
        assert RsaVerifier().verify(kp.public, message, sig)


class TestKdf:
    def test_derive_key_length_and_determinism(self):
        assert len(derive_key(42, "label", 48)) == 48
        assert derive_key(42, "label") == derive_key(42, "label")

    def test_derive_key_sensitivity(self):
        assert derive_key(42, "a") != derive_key(42, "b")
        assert derive_key(42, "a") != derive_key(43, "a")

    def test_derive_key_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            derive_key(42, "label", 0)

    def test_hmac_known_property(self):
        assert hmac_sha256(b"k", b"m") != hmac_sha256(b"k", b"n")
        assert len(hmac_sha256(b"k", b"m")) == 32

    @given(st.binary(max_size=200), st.binary(min_size=1, max_size=16))
    @settings(max_examples=50)
    def test_stream_xor_roundtrip(self, data, nonce):
        key = derive_key(7, "stream")
        assert stream_xor(key, nonce, stream_xor(key, nonce, data)) == data

    def test_stream_xor_differs_by_nonce(self):
        key = derive_key(7, "stream")
        data = b"x" * 32
        assert stream_xor(key, b"n1", data) != stream_xor(key, b"n2", data)


class TestDeterministicRandom:
    def test_same_seed_same_stream(self):
        a = DeterministicRandom(5)
        b = DeterministicRandom(5)
        assert [a.randint_bits(32) for _ in range(5)] == [
            b.randint_bits(32) for _ in range(5)
        ]

    def test_fork_is_independent_of_draw_order(self):
        root = DeterministicRandom(5)
        fork_a = root.fork("alice")
        root.randint_bits(64)  # extra draw must not perturb forks
        fork_a2 = DeterministicRandom(5).fork("alice")
        assert fork_a.randint_bits(32) == fork_a2.randint_bits(32)

    def test_randint_bits_msb_set(self):
        rng = DeterministicRandom(1)
        for _ in range(50):
            assert rng.randint_bits(16).bit_length() == 16

    def test_randint_bits_rejects_zero(self):
        with pytest.raises(ValueError):
            DeterministicRandom(0).randint_bits(0)


class TestDeterministicRandomExtras:
    def test_choice_and_uniform_are_deterministic(self):
        a, b = DeterministicRandom(11), DeterministicRandom(11)
        items = ["x", "y", "z"]
        assert [a.choice(items) for _ in range(5)] == [
            b.choice(items) for _ in range(5)
        ]
        assert a.uniform(0, 10) == b.uniform(0, 10)

    def test_shuffle_in_place_and_deterministic(self):
        a_items, b_items = list(range(10)), list(range(10))
        DeterministicRandom(3).shuffle(a_items)
        DeterministicRandom(3).shuffle(b_items)
        assert a_items == b_items
        assert sorted(a_items) == list(range(10))
