"""Deterministic randomness for reproducible experiments.

All key material in a simulation is drawn from one seeded
:class:`DeterministicRandom`, so a figure regenerates bit-identically for a
given seed while remaining statistically random-looking.
"""

from __future__ import annotations

import hashlib
import random


class DeterministicRandom:
    """Seedable randomness source for integers and byte strings.

    A thin wrapper over :class:`random.Random` with convenience methods used
    throughout the crypto layer.  Not a secure RNG — this is a research
    simulator; determinism is the feature.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def randint_bits(self, bits: int) -> int:
        """A uniformly random integer with exactly ``bits`` bits (MSB set)."""
        if bits < 1:
            raise ValueError("bits must be >= 1")
        if bits == 1:
            return 1
        return (1 << (bits - 1)) | self._rng.getrandbits(bits - 1)

    def randrange(self, lower: int, upper: int) -> int:
        """A uniformly random integer in ``[lower, upper)``."""
        return self._rng.randrange(lower, upper)

    def random_exponent(self, order: int) -> int:
        """A random exponent in ``[2, order - 1]`` suitable as a DH share."""
        return self._rng.randrange(2, order)

    def fork(self, label: str) -> "DeterministicRandom":
        """An independent stream derived from this one's seed and ``label``.

        Forking lets every member of a simulated group own a private stream
        whose draws do not depend on the scheduling order of other members.
        """
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return DeterministicRandom(int.from_bytes(digest[:8], "big"))

    def shuffle(self, items: list) -> None:
        """In-place deterministic shuffle."""
        self._rng.shuffle(items)

    def choice(self, items):
        """Deterministic choice from a non-empty sequence."""
        return self._rng.choice(items)

    def uniform(self, a: float, b: float) -> float:
        """Deterministic uniform float in ``[a, b)``."""
        return self._rng.uniform(a, b)
