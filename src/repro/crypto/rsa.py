"""RSA signatures from scratch (keygen, hash-and-sign, verify).

The paper's testbed signs every key agreement message with 1024-bit RSA and
public exponent 3, so that the per-message verification burden — which
dominates BD's behaviour on the LAN — stays small (§6.1.1).  Signing uses
the Chinese Remainder Theorem as OpenSSL does, which is why sign is ~15x
more expensive than verify with e=3.

Padding is a deterministic full-domain hash (repeated SHA-256 expansion of
the message digest to modulus size), sufficient for a research simulator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.crypto.ledger import OperationLedger
from repro.crypto.primes import generate_prime
from repro.crypto.rng import DeterministicRandom


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int


@dataclass(frozen=True)
class RsaKeyPair:
    """RSA key pair with CRT components for fast signing."""

    n: int
    e: int
    d: int
    p: int
    q: int
    d_p: int
    d_q: int
    q_inv: int

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)


def generate_rsa_keypair(
    bits: int, rng: DeterministicRandom, e: int = 3
) -> RsaKeyPair:
    """Generate an RSA key pair with ``bits``-bit modulus and exponent ``e``.

    Primes are drawn until ``gcd(e, p-1) = gcd(e, q-1) = 1`` (for e=3 this
    rejects primes congruent to 1 mod 3).
    """
    if bits < 16:
        raise ValueError("RSA modulus must be at least 16 bits")
    half = bits // 2
    while True:
        p = _prime_coprime_to(half, e, rng)
        q = _prime_coprime_to(bits - half, e, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        lam = (p - 1) * (q - 1)
        d = pow(e, -1, lam)
        return RsaKeyPair(
            n=n,
            e=e,
            d=d,
            p=p,
            q=q,
            d_p=d % (p - 1),
            d_q=d % (q - 1),
            q_inv=pow(q, -1, p),
        )


def _prime_coprime_to(bits: int, e: int, rng: DeterministicRandom) -> int:
    while True:
        candidate = generate_prime(bits, rng)
        if (candidate - 1) % e != 0:
            return candidate


def _full_domain_digest(message: bytes, n: int) -> int:
    """Expand SHA-256(message) to an integer just below ``n``."""
    target_bytes = (n.bit_length() - 1) // 8
    seed = hashlib.sha256(message).digest()
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < target_bytes:
        blocks.append(hashlib.sha256(seed + counter.to_bytes(4, "big")).digest())
        counter += 1
    return int.from_bytes(b"".join(blocks)[:target_bytes], "big")


class RsaSigner:
    """Signs messages with a key pair, charging the ledger one signature each."""

    def __init__(self, keypair: RsaKeyPair, ledger: Optional[OperationLedger] = None):
        self.keypair = keypair
        self.ledger = ledger or OperationLedger()

    def sign(self, message: bytes) -> int:
        """CRT signature of the full-domain digest of ``message``."""
        self.ledger.record_signature()
        kp = self.keypair
        m = _full_domain_digest(message, kp.n)
        s_p = pow(m % kp.p, kp.d_p, kp.p)
        s_q = pow(m % kp.q, kp.d_q, kp.q)
        h = (kp.q_inv * (s_p - s_q)) % kp.p
        return s_q + h * kp.q


class RsaVerifier:
    """Verifies signatures, charging the ledger one verification each."""

    def __init__(self, ledger: Optional[OperationLedger] = None):
        self.ledger = ledger or OperationLedger()

    def verify(self, public: RsaPublicKey, message: bytes, signature: int) -> bool:
        """True when ``signature`` is valid for ``message`` under ``public``."""
        self.ledger.record_verification()
        if not 0 < signature < public.n:
            return False
        return pow(signature, public.e, public.n) == _full_domain_digest(
            message, public.n
        )


# Key generation in pure Python is slow for 1024-bit keys, and simulated
# experiments may create hundreds of members.  Members whose behaviour does
# not depend on *which* key they hold can share cached keys per (bits, slot).
_KEY_CACHE: dict = {}


def cached_rsa_keypair(bits: int, slot: int = 0, e: int = 3) -> RsaKeyPair:
    """A deterministic, memoized key pair for simulation principals."""
    cache_key = (bits, slot, e)
    if cache_key not in _KEY_CACHE:
        rng = DeterministicRandom(0x5254 + 1000003 * slot + bits)
        _KEY_CACHE[cache_key] = generate_rsa_keypair(bits, rng, e)
    return _KEY_CACHE[cache_key]
