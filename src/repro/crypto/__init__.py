"""Cryptographic substrate built from scratch on Python integers.

Everything the five key agreement protocols need: Schnorr groups with
512/1024-bit moduli and 160-bit prime-order subgroups (the parameters the
paper uses), the group arithmetic every Diffie-Hellman step runs on, RSA
signatures with public exponent 3 (as in the paper's testbed), a SHA-256
based KDF/stream cipher, and — the piece that powers the performance
reproduction — an :class:`OperationLedger` that counts every
cryptographic operation so the simulator can charge virtual CPU time for
it through a calibrated :class:`CostModel`.
"""

from repro.crypto.costmodel import CostModel
from repro.crypto.engine import (
    CryptoEngine,
    RealEngine,
    SymbolicEngine,
    SymbolicElementContext,
    REAL_ENGINE,
    SYMBOLIC_ENGINE,
    get_engine,
)
from repro.crypto.fixedbase import FixedBaseTable
from repro.crypto.groups import (
    SchnorrGroup,
    get_group,
    GROUP_512,
    GROUP_1024,
    GROUP_2048,
    GROUP_TEST,
    GROUP_TINY,
)
from repro.crypto.kdf import derive_key, hmac_sha256, stream_xor
from repro.crypto.ledger import OperationLedger, OpCounts
from repro.crypto.modmath import GroupElementContext
from repro.crypto.rng import DeterministicRandom
from repro.crypto.rsa import RsaKeyPair, RsaSigner, RsaVerifier, generate_rsa_keypair

__all__ = [
    "CostModel",
    "CryptoEngine",
    "RealEngine",
    "SymbolicEngine",
    "SymbolicElementContext",
    "REAL_ENGINE",
    "SYMBOLIC_ENGINE",
    "get_engine",
    "FixedBaseTable",
    "SchnorrGroup",
    "get_group",
    "GROUP_512",
    "GROUP_1024",
    "GROUP_2048",
    "GROUP_TEST",
    "GROUP_TINY",
    "derive_key",
    "hmac_sha256",
    "stream_xor",
    "OperationLedger",
    "OpCounts",
    "GroupElementContext",
    "DeterministicRandom",
    "RsaKeyPair",
    "RsaSigner",
    "RsaVerifier",
    "generate_rsa_keypair",
]
