"""Ledger-charged modular arithmetic over a Schnorr group.

All protocol arithmetic goes through a :class:`GroupElementContext`, which
executes real big-integer math *and* records every operation to the owning
member's :class:`~repro.crypto.ledger.OperationLedger`.  The simulator then
charges virtual CPU time for the recorded work, which is what makes the
reproduced figures track the paper's cost structure.

The class is deliberately split into *recorded wrappers* (the public API:
``exp``, ``exp_g``, ``mul``, …) and *raw arithmetic hooks* (``_raw_exp``,
``_raw_mul``, …).  The wrappers own all ledger accounting; the hooks own
the math.  :mod:`repro.crypto.engine` subclasses this context to swap the
hooks for symbolic (discrete-log) arithmetic while inheriting the
accounting untouched — which is exactly why symbolic runs produce
bit-identical simulated timings.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.bignum import BackendSpec, get_backend
from repro.crypto.fixedbase import FixedBaseTable
from repro.crypto.groups import SchnorrGroup
from repro.crypto.ledger import OperationLedger
from repro.crypto.rng import DeterministicRandom


def multi_exp(
    pairs: Sequence[Tuple[int, int]],
    modulus: int,
    window: int = 4,
    backend: BackendSpec = None,
) -> int:
    """``prod b_i^{e_i} mod modulus`` — Shamir/Straus simultaneous
    exponentiation with per-base sliding windows.

    One shared square ladder serves every base: each exponent is
    decomposed (least-significant first) into odd ``window``-bit digits
    separated by free runs of zeros, and the ladder multiplies each
    digit's table entry in at its shift.  For ``k`` bases with
    ``b``-bit exponents that is ``~b`` squarings total instead of
    ``~b·k``, which is what makes products of many powers (a general
    weighted product of broadcast elements) cheaper than exponentiating
    factor by factor.  Exponents must be non-negative.

    The ladder runs on the selected bignum backend (table entries and
    the accumulator stay in native representation); the returned value
    is always a plain ``int``, identical for every backend.
    """
    chosen = get_backend(backend)
    wrap = chosen.wrap
    wmod = wrap(modulus)
    filtered = [(wrap(b) % wmod, e) for b, e in pairs if e > 0]
    if any(e < 0 for _, e in pairs):
        raise ValueError("multi_exp requires non-negative exponents")
    if not filtered:
        return chosen.unwrap(wrap(1) % wmod)
    mask = (1 << window) - 1
    # Odd-power tables: tables[i][t] == b_i^(2t+1) mod modulus.
    tables: List[List] = []
    for b, _ in filtered:
        b_sq = b * b % wmod
        row = [b]
        for _ in range((1 << (window - 1)) - 1):
            row.append(row[-1] * b_sq % wmod)
        tables.append(row)
    # Sliding-window digit placement, LSB first: per base, a list of
    # (shift, odd digit) covering the exponent exactly.
    by_shift: dict = {}
    top = 0
    for i, (_, e) in enumerate(filtered):
        shift = 0
        while e:
            if e & 1:
                digit = e & mask
                by_shift.setdefault(shift, []).append((i, digit >> 1))
                e >>= window
                shift += window
            else:
                run = (e & -e).bit_length() - 1
                e >>= run
                shift += run
        top = max(top, shift)
    # One shared ladder, MSB down: square once per bit position, fold in
    # every base's digit at its shift.
    acc = wrap(1)
    for position in range(top, -1, -1):
        acc = acc * acc % wmod
        for i, index in by_shift.get(position, ()):
            acc = acc * tables[i][index] % wmod
    return chosen.unwrap(acc)


def batch_exp(
    base: int,
    exponents: Sequence[int],
    modulus: int,
    window: int = 4,
    backend: BackendSpec = None,
) -> List[int]:
    """``[base^e mod modulus for e in exponents]`` over one odd-power table.

    The shared-base batching primitive for epoch-level callers (GDH's
    upflow lifts one accumulated value by many members' exponents): the
    odd powers ``base^1, base^3, …`` are computed once and every
    exponent reuses them, amortizing the table across the batch.  Each
    value is bit-identical to the built-in ``pow``; exponents must be
    non-negative.
    """
    if any(e < 0 for e in exponents):
        raise ValueError("batch_exp requires non-negative exponents")
    chosen = get_backend(backend)
    wrap = chosen.wrap
    unwrap = chosen.unwrap
    wmod = wrap(modulus)
    if not exponents:
        return []
    one = unwrap(wrap(1) % wmod)
    b = wrap(base) % wmod
    mask = (1 << window) - 1
    b_sq = b * b % wmod
    row = [b]
    for _ in range((1 << (window - 1)) - 1):
        row.append(row[-1] * b_sq % wmod)
    results: List[int] = []
    for e in exponents:
        if e == 0:
            results.append(one)
            continue
        # LSB-first digit placement, then one MSB-down ladder — the
        # single-base specialization of :func:`multi_exp`.
        digits: List[Tuple[int, int]] = []
        shift = 0
        while e:
            if e & 1:
                digit = e & mask
                digits.append((shift, digit >> 1))
                e >>= window
                shift += window
            else:
                run = (e & -e).bit_length() - 1
                e >>= run
                shift += run
        by_shift = dict(digits)
        acc = wrap(1)
        for position in range(shift, -1, -1):
            acc = acc * acc % wmod
            index = by_shift.get(position)
            if index is not None:
                acc = acc * row[index] % wmod
        results.append(unwrap(acc))
    return results


class GroupElementContext:
    """Arithmetic over one Schnorr group, charged to one ledger.

    Exponent arithmetic (mod ``q``) is charged as cheap multiplications;
    element arithmetic (mod ``p``) distinguishes full exponentiations,
    small-exponent exponentiations and single multiplications, matching the
    cost taxonomy the paper's Table 1 and §5 use.

    ``fixed_base`` optionally carries a precomputed
    :class:`~repro.crypto.fixedbase.FixedBaseTable` for the generator,
    accelerating ``exp_g`` wall-clock (bit-identical results, identical
    ledger accounting).
    """

    def __init__(
        self,
        group: SchnorrGroup,
        ledger: Optional[OperationLedger] = None,
        fixed_base: Optional[FixedBaseTable] = None,
        backend: BackendSpec = None,
    ):
        self.group = group
        self.ledger = ledger or OperationLedger()
        self._fixed_base = fixed_base
        self._backend = get_backend(backend)

    # -- element (mod p) operations: recorded wrappers -------------------

    def exp(self, base: int, exponent: int) -> int:
        """Full modular exponentiation ``base^exponent mod p`` (crypto-sized exponent)."""
        self.ledger.record_exponentiation(self.group.p_bits)
        return self._raw_exp(base, exponent)

    def exp_g(self, exponent: int) -> int:
        """``g^exponent mod p`` — blinding a secret."""
        self.ledger.record_exponentiation(self.group.p_bits)
        return self._raw_exp_g(exponent)

    def mul(self, a: int, b: int) -> int:
        """Modular multiplication ``a·b mod p``."""
        self.ledger.record_multiplication(self.group.p_bits)
        return self._raw_mul(a, b)

    def inv_element(self, a: int) -> int:
        """Inverse of a group element mod ``p`` (used by BD's ``z_{i+1}/z_{i-1}``)."""
        self.ledger.record_multiplication(self.group.p_bits)
        return self._raw_inv_element(a)

    def weighted_product(
        self, base: int, exponent: int, factors: Sequence[int]
    ) -> int:
        """``base^exponent · f_0^m · f_1^(m-1) ··· f_(m-1)^1 mod p`` for
        ``m = len(factors)`` — BD's key, one request per member.

        The weights are implicit in the factor order: factor ``j`` is
        raised to ``m - j``.  Charged exactly as the textbook steps —
        one full exponentiation for ``base^exponent``, then one
        small-exponent exponentiation (its square-and-multiply
        multiplication count, the paper's "hidden cost") plus one
        fold-in multiplication per factor — so the ledger delta and the
        simulated time are those of ``exp`` and the factor-by-factor
        loop.  Only the raw computation is cheaper (see the raw hooks).
        """
        ledger = self.ledger
        p_bits = self.group.p_bits
        ledger.record_exponentiation(p_bits)
        for weight in range(len(factors), 0, -1):
            ledger.record_small_exponentiation(p_bits, weight)
            ledger.record_multiplication(p_bits)
        return self._raw_weighted_product(base, exponent, factors)

    # -- element (mod p) operations: raw arithmetic hooks ----------------
    #
    # Never call these directly from protocol code — they bypass the
    # ledger.  Engine implementations override them; accounting above
    # stays shared, which is what keeps symbolic timings bit-identical.

    def _raw_exp(self, base: int, exponent: int) -> int:
        backend = self._backend
        return backend.unwrap(backend.powmod(base, exponent, self.group.p))

    def _raw_exp_g(self, exponent: int) -> int:
        if self._fixed_base is not None:
            return self._fixed_base.pow(exponent)
        backend = self._backend
        return backend.unwrap(
            backend.powmod(self.group.g, exponent, self.group.p)
        )

    def _raw_mul(self, a: int, b: int) -> int:
        backend = self._backend
        return backend.unwrap(backend.mulmod(a, b, self.group.p))

    def _raw_inv_element(self, a: int) -> int:
        backend = self._backend
        return backend.unwrap(backend.invmod(a, self.group.p))

    def _raw_weighted_product(
        self, base: int, exponent: int, factors: Sequence[int]
    ) -> int:
        """The math behind :meth:`weighted_product`.

        The descending weights use the prefix-product identity
        ``prod f_j^(m-j) = prod_t (f_0···f_t)``, so every factor costs
        two plain multiplications instead of a square-and-multiply
        ladder; the result is bit-identical to the factor-by-factor
        loop.  ``base^exponent`` goes through :meth:`_raw_exp`; the
        prefix loop multiplies through the backend directly, not
        :meth:`_raw_mul`, so an engine hook on products (the real
        engine's discrete-log maps) never sees the intermediate values.
        """
        backend = self._backend
        mulmod = backend.mulmod
        p = self.group.p
        result = self._raw_exp(base, exponent)
        prefix = None
        for factor in factors:
            prefix = factor if prefix is None else mulmod(prefix, factor, p)
            result = mulmod(result, prefix, p)
        return backend.unwrap(result)

    # -- exponent (mod q) operations ------------------------------------
    #
    # Exponents are *not* engine-dependent: both engines draw the same
    # random shares and reduce them mod q, so the streams stay aligned.

    def exponent_product(self, a: int, b: int) -> int:
        """Exponent multiplication mod ``q`` (negligible cost: one small mult)."""
        self.ledger.record_multiplication(self.group.q_bits)
        return (a * b) % self.group.q

    def inv_exponent(self, e: int) -> int:
        """Inverse of an exponent mod ``q`` — GDH's factor-out, CKD's recovery."""
        self.ledger.record_multiplication(self.group.q_bits)
        return pow(e, -1, self.group.q)

    def random_exponent(self, rng: DeterministicRandom) -> int:
        """A fresh random session share in ``[2, q - 1]``."""
        return rng.random_exponent(self.group.q)
